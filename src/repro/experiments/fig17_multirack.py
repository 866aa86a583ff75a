"""Figure 17 (extension): schemes across multi-rack fabrics (§3.7).

The paper evaluates NetClone in one rack and sketches the multi-rack
deployment in §3.7: only ToR switches run NetClone logic and the SWID
field keeps exactly one ToR responsible for each client's requests.
This experiment puts that sketch on the same sweep machinery as every
other figure: the same scheme set is swept over the single-rack star,
the two-rack trunk fabric, and a spine-leaf Clos, one panel per
fabric.

Expected shape: every fabric preserves the scheme ordering (NetClone
tracks the Baseline's throughput with lower tail latency); the
inter-rack fabrics shift the whole latency curve up by the extra
trunk/spine hops but cloning and filtering keep working — redundant
deliveries at the clients stay at zero because the client-side ToR
filters both response copies.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.experiments.common import ClusterConfig
from repro.experiments.harness import format_series, scaled_config, sweep_panels
from repro.experiments.registry import register
from repro.experiments.specs import make_synthetic_spec
from repro.experiments.topologies import TOPOLOGIES
from repro.metrics.sweep import SweepResult

__all__ = ["FABRICS", "SCHEMES", "collect", "render"]

SCHEMES = ("baseline", "cclone", "netclone")

#: Panel id -> topology-registry name (all built-in fabrics).
FABRICS = ("star", "two_rack", "spine_leaf")

NUM_SERVERS = 6
WORKERS = 15


def collect(
    scale: float = 1.0,
    seed: int = 1,
    jobs: int = 1,
    topology: Optional[str] = None,
    placement: Optional[str] = None,
) -> Dict[str, Dict[str, SweepResult]]:
    """One panel per fabric (or just *topology* when given).

    The whole fabric × scheme × load grid is one executor batch — one
    process pool for the entire figure — so parallel workers stay busy
    across panels, not just within one.
    """
    fabrics = FABRICS if topology is None else (TOPOLOGIES.canonical(topology),)
    spec = make_synthetic_spec("exp", mean_us=25.0)
    configs = {
        fabric: scaled_config(
            ClusterConfig(
                workload=spec,
                topology=fabric,
                placement=placement,
                num_servers=NUM_SERVERS,
                workers_per_server=WORKERS,
                seed=seed,
            ),
            scale,
        )
        for fabric in fabrics
    }
    return sweep_panels(configs, SCHEMES, scale, jobs)


@register(
    "fig17",
    "multi-rack fabrics: same schemes over star/two-rack/spine-leaf (§3.7)",
    collect,
)
def render(results: Dict[str, Dict[str, SweepResult]]) -> str:
    """Figure 17's report: one section per fabric, then the cross-fabric check."""
    sections = []
    for fabric, series in results.items():
        base = series["baseline"]
        netclone = series["netclone"]
        low = base.points[0].offered_rps
        cloned = sum(point.extra.get("nc_cloned", 0.0) for point in netclone.points)
        redundant = sum(
            point.extra.get("redundant_responses", 0.0) for point in netclone.points
        )
        notes = [
            f"NetClone max throughput {netclone.max_throughput_mrps():.2f} MRPS vs "
            f"Baseline {base.max_throughput_mrps():.2f} MRPS (tracks it on every fabric)",
            f"p99 at lowest load: Baseline {base.p99_at_load(low):.0f} us, "
            f"NetClone {netclone.p99_at_load(low):.0f} us",
            f"ToR-only cloning stayed live off-rack: {cloned:.0f} clones, "
            f"{redundant:.0f} redundant deliveries reached clients "
            f"(client-side ToR filters both copies)",
        ]
        sections.append(format_series(f"Figure 17 ({fabric})", series, notes))
    if {"star", "two_rack"} <= results.keys():
        star = results["star"]["netclone"]
        two = results["two_rack"]["netclone"]
        low = star.points[0].offered_rps
        sections.append(
            "cross-fabric shape check:\n"
            f"  - trunk hops cost latency: NetClone p50 at lowest load "
            f"{star.points[0].p50_us:.1f} us (star) < "
            f"{two.points[0].p50_us:.1f} us (two_rack) at {low / 1e6:.2f} MRPS\n"
        )
    return "\n".join(sections)
