"""Figure 16: performance under switch *and server* failures (§5.6.4, §3.6).

Panel (a) — the paper's figure: throughput over a 25-second timeline;
the switch is stopped at t = 5 s and reactivated at t = 7 s; port/ASIC
re-initialisation takes a few more seconds (the paper observes
recovery at ~10 s and attributes the length of the gap to the switch
architecture, not NetClone).

Recovery wipes every register — NetClone keeps only soft state, so
the wipe must be harmless: the sequence number restarts, state tables
read IDLE, filter tables are empty, and the system simply resumes.

Panel (b) — the §3.6 *server* failure path, swept over the placement
axis on a spine-leaf fabric: one server is killed mid-run (access
link down + ``ServerFailureHandler.remove_server``) and later
restored (``restore_server``), and each placement policy's cell
reports throughput and ``trunk_tx_bytes`` through the failure window.
The shape this pins: placement-aware rebuilds keep a ``rack-local``
deployment trunk-free across the kill → rebuild → restore cycle,
while ``global`` keeps paying trunk crossings throughout.

Both panels are :class:`~repro.scenarios.spec.Scenario` specs run
through :func:`~repro.scenarios.runner.run_scenario` — the ``wipe_switch``
and ``kill_server``/``restore_server`` events the failure drills use —
and either panel raises :class:`~repro.errors.ExperimentError` with the
report summary when any applicable invariant of
:data:`~repro.scenarios.invariants.INVARIANTS` fails (a duplicate
delivery after the wipe, a stuck request, an epoch moving backwards, a
rack-local clone crossing a trunk, ...).

The simulated offered rate is scaled down (tens of KRPS rather than
MRPS) to keep the 25-second timeline tractable in pure Python; the
shape of the figure does not depend on the absolute rate because the
cluster is far from saturation either way.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ExperimentError
from repro.experiments.executor import SweepExecutor
from repro.experiments.harness import spine_leaf_params, swept_placements
from repro.experiments.registry import register
from repro.experiments.topologies import TOPOLOGIES
from repro.metrics.tables import format_table
from repro.scenarios import Scenario, ScenarioRun, run_scenario
from repro.sim.units import ms, sec

__all__ = ["collect", "collect_panels", "collect_server_failure", "render"]

NUM_SERVERS = 6
WORKERS = 15
OFFERED_RPS = 40_000.0
HORIZON_S = 25
FAIL_AT_S = 5
RECOVER_AT_S = 7
REINIT_S = 3


def _gated_scenario(spec: Dict[str, Any], scale: float) -> ScenarioRun:
    """Run one panel's scenario; raise when any invariant failed."""
    run = run_scenario(Scenario.from_dict(spec), scale=scale)
    if not run.report.passed:
        raise ExperimentError(run.report.summary())
    return run


def collect(
    scale: float = 1.0,
    seed: int = 1,
    topology: Optional[str] = None,
    placement: Optional[str] = None,
) -> Tuple[List[float], List[float], dict]:
    """(window starts s, throughput KRPS per window, integrity stats)."""
    horizon_s = HORIZON_S if scale >= 1.0 else max(10, int(HORIZON_S * scale))
    run = _gated_scenario(
        {
            "name": "fig16-switch-failure",
            "cluster": {
                "scheme": "netclone",
                "topology": topology,
                "placement": placement,
                "workload": "exp",
                "num_servers": NUM_SERVERS,
                "workers_per_server": WORKERS,
                "rate_rps": OFFERED_RPS,
                "warmup_ns": 0,
                "measure_ns": sec(horizon_s),
                "drain_ns": sec(1),
                "seed": seed,
            },
            "report_window_ns": sec(1),
            "events": [
                {
                    "at_ns": sec(FAIL_AT_S),
                    "action": "wipe_switch",
                    "down_ns": sec(RECOVER_AT_S - FAIL_AT_S),
                    "reinit_ns": sec(REINIT_S),
                },
            ],
        },
        scale,
    )
    monitor = run.completions
    rates_krps = [rate / 1e3 for rate in monitor.rates_per_second()[:horizon_s]]
    stats = {
        "redundant_responses": run.end["redundant"],
        "completed": run.cluster.recorder.completed_in_window,
        "offered_rps": run.cluster.config.rate_rps,
        "recovered_rate_krps": rates_krps[-1] if rates_krps else float("nan"),
    }
    return monitor.window_starts_sec()[: len(rates_krps)], rates_krps, stats


# ----------------------------------------------------------------------
# Panel (b): server failure × placement on spine-leaf (§3.6)
# ----------------------------------------------------------------------
SF_RACKS = 4
SF_SPINES = 2
#: Three servers per rack: a single death leaves every rack with two
#: live members, so rack-local placements must stay rack-local.
SF_NUM_SERVERS = 12
SF_WORKERS = 10
SF_NUM_CLIENTS = 4
SF_RATE_RPS = 120e3
SF_HORIZON = ms(400)
SF_WINDOW = ms(25)
SF_KILL_AT = ms(100)
SF_RESTORE_AT = ms(250)
#: The victim: server 0 lives in rack 0 on the round-robin spread.
SF_VICTIM = 0

#: Panel (a) as :func:`collect` returns it, and panel (b)'s cells
#: (``None`` when the fabric has no racks).
Panels = Tuple[Tuple[List[float], List[float], dict], Optional[List[Dict[str, Any]]]]


def _server_failure_cell(args: Tuple[str, float, int, Dict[str, Any]]) -> Dict[str, Any]:
    """One placement's kill → rebuild → restore timeline (picklable)."""
    placement, scale, seed, topology_params = args
    run = _gated_scenario(
        {
            "name": f"fig16-server-failure-{placement}",
            "cluster": {
                "scheme": "netclone",
                "topology": "spine_leaf",
                "topology_params": dict(topology_params),
                "placement": placement,
                "workload": "exp",
                "num_servers": SF_NUM_SERVERS,
                "workers_per_server": SF_WORKERS,
                "num_clients": SF_NUM_CLIENTS,
                "rate_rps": SF_RATE_RPS,
                "warmup_ns": 0,
                "measure_ns": SF_HORIZON,
                "drain_ns": ms(20),
                "seed": seed,
            },
            "report_window_ns": SF_WINDOW,
            "events": [
                {"at_ns": SF_KILL_AT, "action": "kill_server", "server": SF_VICTIM},
                {"at_ns": SF_RESTORE_AT, "action": "restore_server",
                 "server": SF_VICTIM},
            ],
        },
        scale,
    )
    timeline = run.report.timeline
    window_starts_ms = timeline["window_starts_ms"]
    victim_rack = run.report.meta["server_racks"][SF_VICTIM]
    # Bytes each rack's ToR clocked onto its spine uplinks: the
    # per-rack trunk contribution the rack-local shape check reads.
    rack_tx_bytes = run.end["rack_tx_bytes"]
    return {
        "placement": placement,
        "window_starts_ms": window_starts_ms,
        "rates_krps": [
            rate / 1e3
            for rate in timeline["rates_per_sec"][: len(window_starts_ms)]
        ],
        "trunk_kb": [b / 1e3 for b in timeline["trunk_total"]],
        "rack_tx_bytes": rack_tx_bytes,
        "other_rack_tx_bytes": float(
            sum(b for t, b in enumerate(rack_tx_bytes) if t != victim_rack)
        ),
        "victim_rack": victim_rack,
        "table_epoch": run.end["handler_epoch"],
        "point": run.cluster.load_point(),
    }


def collect_server_failure(
    scale: float = 1.0,
    seed: int = 1,
    jobs: int = 1,
    topology: Optional[str] = None,
    placement: Optional[str] = None,
) -> List[Dict[str, Any]]:
    """One timeline cell per swept placement policy.

    *topology* must resolve to ``spine_leaf`` (the default
    ``racks=4, spines=2``); inline params are honoured.  *placement*
    pins one policy to race the ``global`` baseline.  Cells are
    independent runs, so ``jobs > 1`` fans them over worker processes
    (bit-identical to serial — each cell seeds its own registry).
    """
    topology_params = spine_leaf_params(
        topology, "the fig16 server-failure panel", racks=SF_RACKS, spines=SF_SPINES
    )
    cells = [
        (chosen, scale, seed, topology_params)
        for chosen in swept_placements(placement)
    ]
    return SweepExecutor(jobs).run_tasks(_server_failure_cell, cells)


def collect_panels(
    scale: float = 1.0,
    seed: int = 1,
    jobs: int = 1,
    topology: Optional[str] = None,
    placement: Optional[str] = None,
) -> Panels:
    """Both panels: (:func:`collect`, :func:`collect_server_failure`).

    Panel (a) is one continuous timeline with mid-run failure
    injection (no batch to fan out; the injected failure hits the
    primary ToR of whatever *topology* is selected).  Panel (b) always
    runs on spine-leaf and fans its placement cells over *jobs*
    workers; it is ``None`` when *topology* pins a fabric without rack
    structure.
    """
    switch_panel = collect(scale, seed, topology=topology, placement=placement)
    server_cells = None
    if topology is None or TOPOLOGIES.parse(topology)[0] == "spine_leaf":
        server_cells = collect_server_failure(
            scale, seed, jobs=jobs, topology=topology, placement=placement
        )
    return switch_panel, server_cells


def _render_server_failure(cells: List[Dict[str, Any]]) -> List[str]:
    """Panel (b)'s report lines."""
    lines = [
        "== Figure 16 (b): server kill -> rebuild -> restore, by placement =="
    ]
    rows = []
    for cell in cells:
        point = cell["point"]
        rows.append(
            (
                cell["placement"],
                f"{point.samples}",
                f"{point.p99_us:.1f}",
                f"{point.extra['trunk_tx_bytes'] / 1e6:.2f}",
                f"{cell['other_rack_tx_bytes'] / 1e6:.2f}",
                f"{cell['table_epoch']}",
            )
        )
    lines.append(
        format_table(
            ["placement", "samples", "p99_us", "trunk_MB", "other_racks_MB",
             "epoch"],
            rows,
        )
    )
    by_placement = {cell["placement"]: cell for cell in cells}
    lines.append("")
    lines.append("shape checks:")
    local = by_placement.get("rack-local")
    if local is not None:
        lines.append(
            f"  - rack-local: non-victim racks pushed "
            f"{local['other_rack_tx_bytes'] / 1e6:.2f} MB across the trunks "
            f"through the kill -> rebuild -> restore cycle (clones stayed "
            f"in-rack)"
        )
    base = by_placement.get("global")
    if base is not None and base["rates_krps"]:
        # Measured, not asserted: far from saturation a single death
        # barely dents throughput, so report the observed numbers.
        kill_window = int(SF_KILL_AT // SF_WINDOW)
        restore_window = int(SF_RESTORE_AT // SF_WINDOW)
        rates = base["rates_krps"]
        pre = rates[:kill_window]
        outage = rates[kill_window : restore_window + 1]
        lines.append(
            f"  - global: {sum(pre) / len(pre) if pre else float('nan'):.1f} "
            f"KRPS mean before the kill, "
            f"{min(outage) if outage else float('nan'):.1f} KRPS minimum "
            f"through the outage, {rates[-1]:.1f} KRPS at the end of the "
            f"timeline"
        )
    lines.append(
        f"  - every cell ended at table epoch "
        f"{max(cell['table_epoch'] for cell in cells)} "
        f"(one rebuild per control-plane operation: remove + restore)"
    )
    return lines


@register(
    "fig16",
    "throughput across a switch failure + server kill/restore by placement",
    collect_panels,
)
def render(panels: Panels) -> str:
    """Figure 16's report: panel (a), then panel (b) when it ran."""
    (starts, rates, stats), server_cells = panels
    lines = ["== Figure 16: throughput under a switch failure =="]
    lines.append(
        format_table(
            ["time (s)", "throughput (KRPS)"],
            [(f"{start:.0f}", f"{rate:.1f}") for start, rate in zip(starts, rates)],
        )
    )
    offered_krps = stats["offered_rps"] / 1e3
    outage = [rate for start, rate in zip(starts, rates) if FAIL_AT_S < start < RECOVER_AT_S]
    lines.append("")
    lines.append("shape checks:")
    lines.append(
        f"  - outage window throughput ~0 KRPS (measured "
        f"{max(outage) if outage else float('nan'):.1f} KRPS)"
    )
    lines.append(
        f"  - recovered to {stats['recovered_rate_krps']:.1f} KRPS of "
        f"{offered_krps:.1f} KRPS offered by the end of the timeline"
    )
    lines.append(
        f"  - no permanent misbehaviour: {stats['redundant_responses']} duplicate "
        f"deliveries after the register wipe (paper: soft state only)"
    )
    if server_cells is not None:
        lines.extend(_render_server_failure(server_cells))
    return "\n".join(lines)
