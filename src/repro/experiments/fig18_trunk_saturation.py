"""Figure 18 (extension): trunk saturation vs cloning vs spine policy.

The spine-leaf fabric's deterministic ECMP pins every destination to
one spine, so a skewed inter-rack workload — here, all cross-rack
responses converging on a handful of client addresses, doubled again
by cloning — saturates one trunk while its siblings idle.  This
experiment measures exactly that: a fixed offered load is run over a
grid of trunk bandwidth × cloning scheme × spine policy, and each
cell reports tail latency next to the per-trunk utilization series
from :mod:`repro.metrics.links`.

Expected shape: with headroom every policy matches (``least-loaded``
anchors on the ECMP choice and only deviates under queueing); as the
trunks tighten, ECMP's hot trunk crosses saturation and its p99
explodes while ``least-loaded`` spreads the same traffic across all
spines and holds the single-rack-like tail.  ``flowlet`` sits between
them: continuous flows never present an idle gap, so it can only
rebalance when the workload lets it.  Cloning (NetClone vs Baseline)
roughly doubles trunk crossings, pulling the saturation knee to
higher bandwidths.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from repro.experiments.common import ClusterConfig
from repro.experiments.executor import SweepExecutor
from repro.experiments.harness import capacity_rps, scaled_config, spine_leaf_params
from repro.experiments.registry import register
from repro.experiments.specs import make_synthetic_spec
from repro.metrics.sweep import LoadPoint
from repro.metrics.tables import format_table

__all__ = ["POLICIES", "SCHEMES", "TRUNK_GBPS", "collect", "render"]

SCHEMES = ("baseline", "netclone")

#: Spine policies compared by default; a ``spine_policy`` pinned via
#: ``--topology`` runs against the ``ecmp`` baseline instead (pinning
#: ``ecmp`` itself runs only ecmp).
POLICIES = ("ecmp", "least-loaded", "flowlet")

#: Trunk line rates swept, saturated → headroom.  At the default load
#: the ECMP-pinned response trunk runs past 100% at the low end.
TRUNK_GBPS = (0.5, 0.7, 1.0, 2.0)

NUM_SERVERS = 6
WORKERS = 15
NUM_CLIENTS = 2
#: Offered load as a fraction of worker-pool capacity — high enough to
#: drive the trunks, low enough that server queueing stays mild.
LOAD_FRACTION = 0.7

#: One cell of the grid: (trunk Gb/s, measured point).
Cell = Tuple[float, LoadPoint]


def _policies(pinned: Optional[str]) -> Tuple[str, ...]:
    """The policy set to sweep; a pinned policy races ECMP alone."""
    if pinned is None:
        return POLICIES
    if pinned == "ecmp":
        return ("ecmp",)
    return ("ecmp", str(pinned))


def collect(
    scale: float = 1.0,
    seed: int = 1,
    jobs: int = 1,
    topology: Optional[str] = None,
    placement: Optional[str] = None,
    workload: Optional[str] = None,
    metrics: str = "exact",
) -> Dict[Tuple[str, str], List[Cell]]:
    """(scheme, policy) → cells over the trunk-bandwidth grid.

    *topology* must resolve to ``spine_leaf`` (the default); inline
    parameters are honoured — ``spines=4`` widens the mesh, a pinned
    ``spine_policy`` is swept against the ``ecmp`` baseline, and a
    pinned ``trunk_bandwidth_bps`` replaces the swept grid.
    The whole grid is one executor batch, so ``jobs > 1`` keeps every
    worker busy across all three axes.

    *workload* (a registered name, e.g. ``"mmpp:burst=8"``) replaces
    the default Exp(25) spec.
    *metrics* selects the latency backend (``"exact"`` | ``"sketch"``).
    """
    base_params = spine_leaf_params(topology, "fig18", racks=2, spines=4)
    policies = _policies(base_params.pop("spine_policy", None))
    # A pinned trunk bandwidth collapses the swept axis to that single
    # line rate instead of being silently overwritten by the grid.
    pinned_bps = base_params.pop("trunk_bandwidth_bps", None)
    if pinned_bps is not None:
        bandwidths = (pinned_bps / 1e9,)
    else:
        bandwidths = TRUNK_GBPS if scale >= 0.4 else TRUNK_GBPS[::2]

    if workload is not None:
        from repro.experiments.workloads_registry import make_workload_spec

        spec = make_workload_spec(workload)
    else:
        spec = make_synthetic_spec("exp", mean_us=25.0)
    capacity = capacity_rps(NUM_SERVERS * WORKERS, spec.mean_service_ns)
    config = scaled_config(
        ClusterConfig(
            workload=spec,
            topology="spine_leaf",
            placement=placement,
            num_servers=NUM_SERVERS,
            workers_per_server=WORKERS,
            num_clients=NUM_CLIENTS,
            rate_rps=LOAD_FRACTION * capacity,
            seed=seed,
            metrics=metrics,
        ),
        scale,
    )
    def cell_config(scheme: str, policy: str, gbps: float) -> ClusterConfig:
        return replace(
            config,
            scheme=scheme,
            topology_params={
                **base_params,
                "spine_policy": policy,
                "trunk_bandwidth_bps": gbps * 1e9,
            },
        )

    grid = [
        ((scheme, policy, gbps), cell_config(scheme, policy, gbps))
        for scheme in SCHEMES
        for policy in policies
        for gbps in bandwidths
    ]
    points = SweepExecutor(jobs).run_points([cfg for _, cfg in grid])
    results: Dict[Tuple[str, str], List[Cell]] = {}
    for ((scheme, policy, gbps), _), point in zip(grid, points):
        results.setdefault((scheme, policy), []).append((gbps, point))
    return results


@register(
    "fig18",
    "trunk saturation: trunk bandwidth × cloning scheme × spine policy on spine-leaf",
    collect,
)
def render(results: Dict[Tuple[str, str], List[Cell]]) -> str:
    """Figure 18's report: the grid table and its shape checks."""
    lines = ["== Figure 18: trunk saturation vs cloning rate vs spine policy =="]
    rows = []
    for (scheme, policy), cells in results.items():
        for gbps, point in cells:
            rows.append(
                (
                    scheme,
                    policy,
                    f"{gbps:.1f}",
                    f"{point.throughput_rps / 1e6:.2f}",
                    f"{point.p50_us:.1f}",
                    f"{point.p99_us:.1f}",
                    f"{point.extra['trunk_util_max']:.3f}",
                    f"{point.extra['trunk_util_mean']:.3f}",
                )
            )
    lines.append(
        format_table(
            ["scheme", "policy", "trunk_gbps", "tput_MRPS", "p50_us", "p99_us",
             "util_max", "util_mean"],
            rows,
        )
    )
    lines.append("")
    lines.append("shape checks:")
    tight = min(gbps for gbps, _ in next(iter(results.values())))

    def cell(scheme: str, policy: str, gbps: float) -> Optional[LoadPoint]:
        for at, point in results.get((scheme, policy), []):
            if at == gbps:
                return point
        return None

    congestion_aware = sorted({p for _, p in results} - {"ecmp"})
    for scheme in SCHEMES if congestion_aware else ():
        ecmp = cell(scheme, "ecmp", tight)
        best = min(
            (cell(scheme, policy, tight) for policy in congestion_aware),
            key=lambda point: point.p99_us if point else float("inf"),
        )
        if ecmp and best:
            lines.append(
                f"  - {scheme} at {tight:.1f} Gb/s trunks: congestion-aware "
                f"p99 {best.p99_us:.0f} us vs ECMP {ecmp.p99_us:.0f} us "
                f"(hot-trunk util {best.extra['trunk_util_max']:.2f} vs "
                f"{ecmp.extra['trunk_util_max']:.2f})"
            )
    nc_tight = cell("netclone", "ecmp", tight)
    base_tight = cell("baseline", "ecmp", tight)
    if nc_tight and base_tight:
        lines.append(
            f"  - cloning doubles trunk pressure: NetClone moved "
            f"{nc_tight.extra['trunk_tx_bytes'] / 1e6:.1f} MB across the trunks "
            f"vs Baseline {base_tight.extra['trunk_tx_bytes'] / 1e6:.1f} MB at "
            f"{tight:.1f} Gb/s"
        )
    lines.append("")
    return "\n".join(lines)
