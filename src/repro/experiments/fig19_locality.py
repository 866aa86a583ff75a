"""Figure 19 (extension): placement locality vs trunk pressure.

PR 3's fig18 showed *where* a spine-leaf fabric hurts: cloning doubles
trunk crossings and deterministic ECMP concentrates them, so spine
uplinks saturate and p99 explodes.  This experiment measures the
placement-layer answer: the same offered load is run over a grid of
group placement policy × cloning scheme × rack count, and each cell
reports tail latency next to the trunk byte/utilization series from
:mod:`repro.metrics.links` — the before/after for keeping request
redundancy inside the source rack before it touches shared core links.

Expected shape: ``global`` placement sends ~(1 − 1/racks) of requests
*and* clones across the trunks; ``rack-local`` keeps both request and
responses inside the rack, cutting ``trunk_tx_bytes`` to (nearly)
zero and holding a single-rack-like tail even when trunks are tight;
``rack-weighted:p`` interpolates linearly between them, which is the
knob the locality sweep turns.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from repro.experiments.common import ClusterConfig
from repro.experiments.executor import SweepExecutor
from repro.experiments.harness import capacity_rps, scaled_config
from repro.experiments.placements import PLACEMENTS as PLACEMENT_REGISTRY
from repro.experiments.registry import register
from repro.experiments.specs import make_synthetic_spec
from repro.experiments.topologies import TOPOLOGIES
from repro.metrics.sweep import LoadPoint
from repro.metrics.tables import format_table

__all__ = ["PLACEMENTS", "RACK_COUNTS", "SCHEMES", "collect", "run"]

#: Cloning schemes compared (both install per-ToR group tables).
SCHEMES = ("netclone", "netclone-racksched")

#: Placement policies swept by default; a policy pinned via
#: ``--placement`` runs against the ``global`` baseline instead
#: (pinning ``global`` itself runs only global).
PLACEMENTS = ("global", "rack-weighted:p=0.5", "rack-local")

#: Rack counts swept (servers/clients spread round-robin).
RACK_COUNTS = (2, 4)

NUM_SERVERS = 8
WORKERS = 15
NUM_CLIENTS = 4
#: Offered load as a fraction of worker-pool capacity.
LOAD_FRACTION = 0.6
#: Tight-ish trunks so locality shows up in the tail, not just the
#: byte counters (a pinned ``trunk_bandwidth_bps`` overrides).
TRUNK_GBPS = 1.0

#: One cell of the grid: (racks, measured point).
Cell = Tuple[int, LoadPoint]


def _placements(pinned: Optional[str]) -> Tuple[str, ...]:
    """The placement set to sweep; a pinned policy races ``global``."""
    if pinned is None:
        return PLACEMENTS
    pinned = PLACEMENT_REGISTRY.canonical(pinned)
    if pinned == "global":
        return ("global",)
    return ("global", pinned)


def collect(
    scale: float = 1.0,
    seed: int = 1,
    jobs: int = 1,
    topology: Optional[str] = None,
    placement: Optional[str] = None,
) -> Dict[Tuple[str, str], List[Cell]]:
    """(scheme, placement) → cells over the rack-count grid.

    *topology* must resolve to ``spine_leaf`` (the default); inline
    parameters are honoured — ``spines=4`` widens the mesh, a pinned
    ``racks`` collapses the swept axis to that rack count, and
    ``trunk_bandwidth_bps`` re-tightens the trunks.  *placement* pins
    one policy to race the ``global`` baseline.  The whole grid is one
    executor batch, so ``jobs > 1`` keeps every worker busy across all
    three axes.
    """
    from repro.errors import ExperimentError

    name, params = TOPOLOGIES.parse(topology or "spine_leaf")
    if name != "spine_leaf":
        raise ExperimentError(
            f"fig19 measures trunk locality; topology {name!r} has no "
            "rack structure to localise into (use spine_leaf, optionally "
            "with inline params)"
        )
    base_params = {"spines": 2, "trunk_bandwidth_bps": TRUNK_GBPS * 1e9}
    base_params.update(params)
    placements = _placements(placement)
    # A pinned rack count collapses the swept axis rather than being
    # silently overwritten by the grid.
    pinned_racks = base_params.pop("racks", None)
    if pinned_racks is not None:
        rack_counts: Tuple[int, ...] = (int(pinned_racks),)
    else:
        rack_counts = RACK_COUNTS if scale >= 0.4 else RACK_COUNTS[:1]

    spec = make_synthetic_spec("exp", mean_us=25.0)
    capacity = capacity_rps(NUM_SERVERS * WORKERS, spec.mean_service_ns)
    config = scaled_config(
        ClusterConfig(
            workload=spec,
            topology=name,
            num_servers=NUM_SERVERS,
            workers_per_server=WORKERS,
            num_clients=NUM_CLIENTS,
            rate_rps=LOAD_FRACTION * capacity,
            seed=seed,
        ),
        scale,
    )
    grid = [
        (
            (scheme, chosen, racks),
            replace(
                config,
                scheme=scheme,
                placement=chosen,
                placement_params={},
                topology_params={**base_params, "racks": racks},
            ),
        )
        for scheme in SCHEMES
        for chosen in placements
        for racks in rack_counts
    ]
    points = SweepExecutor(jobs).run_points([cfg for _, cfg in grid])
    results: Dict[Tuple[str, str], List[Cell]] = {}
    for ((scheme, chosen, racks), _), point in zip(grid, points):
        results.setdefault((scheme, chosen), []).append((racks, point))
    return results


@register(
    "fig19",
    "placement locality: group placement × cloning scheme × rack count on spine-leaf",
)
def run(
    scale: float = 1.0,
    seed: int = 1,
    jobs: int = 1,
    topology: Optional[str] = None,
    placement: Optional[str] = None,
) -> str:
    """Run Figure 19 and return the formatted report."""
    results = collect(scale, seed, jobs=jobs, topology=topology, placement=placement)
    lines = ["== Figure 19: placement locality vs trunk pressure on spine-leaf =="]
    rows = []
    for (scheme, chosen), cells in results.items():
        for racks, point in cells:
            rows.append(
                (
                    scheme,
                    chosen,
                    f"{racks}",
                    f"{point.throughput_rps / 1e6:.2f}",
                    f"{point.p50_us:.1f}",
                    f"{point.p99_us:.1f}",
                    f"{point.extra['trunk_util_max']:.3f}",
                    f"{point.extra['trunk_tx_bytes'] / 1e6:.2f}",
                )
            )
    lines.append(
        format_table(
            ["scheme", "placement", "racks", "tput_MRPS", "p50_us", "p99_us",
             "util_max", "trunk_MB"],
            rows,
        )
    )
    lines.append("")
    lines.append("shape checks:")
    most_racks = max(racks for racks, _ in next(iter(results.values())))

    def cell(scheme: str, chosen: str, racks: int) -> Optional[LoadPoint]:
        for at, point in results.get((scheme, chosen), []):
            if at == racks:
                return point
        return None

    local_policies = sorted({c for _, c in results} - {"global"})
    for scheme in SCHEMES if local_policies else ():
        base = cell(scheme, "global", most_racks)
        best = min(
            (cell(scheme, chosen, most_racks) for chosen in local_policies),
            key=lambda point: point.extra["trunk_tx_bytes"] if point else float("inf"),
        )
        if base and best:
            lines.append(
                f"  - {scheme} at {most_racks} racks: rack-aware placement "
                f"moved {best.extra['trunk_tx_bytes'] / 1e6:.2f} MB across "
                f"the trunks vs global {base.extra['trunk_tx_bytes'] / 1e6:.2f} MB "
                f"(p99 {best.p99_us:.0f} us vs {base.p99_us:.0f} us)"
            )
    weighted = [c for c in local_policies if c.startswith("rack-weighted")]
    if weighted:
        base = cell("netclone", "global", most_racks)
        mid = cell("netclone", weighted[0], most_racks)
        local = cell("netclone", "rack-local", most_racks)
        if base and mid and local:
            lines.append(
                f"  - locality knob interpolates: trunk MB global "
                f"{base.extra['trunk_tx_bytes'] / 1e6:.2f} > {weighted[0]} "
                f"{mid.extra['trunk_tx_bytes'] / 1e6:.2f} > rack-local "
                f"{local.extra['trunk_tx_bytes'] / 1e6:.2f}"
            )
    lines.append("")
    report = "\n".join(lines)
    print(report)
    return report
