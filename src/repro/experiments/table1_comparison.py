"""Table 1: qualitative comparison of cloning approaches.

The paper's Table 1 summarises C-Clone, LÆDGE and NetClone along five
properties.  Rather than hard-coding the matrix, this harness *derives*
each cell from tiny probe simulations of the actual implementations —
e.g. "dynamic cloning" is confirmed by observing that the scheme stops
cloning under load, and "low latency overhead" by comparing the
scheme's low-load median latency against the Baseline's.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional

from repro.experiments.common import ClusterConfig
from repro.experiments.executor import SweepExecutor
from repro.experiments.harness import capacity_rps, scaled_config
from repro.experiments.registry import register
from repro.experiments.specs import make_synthetic_spec
from repro.metrics.tables import format_table
from repro.sim.units import ms

__all__ = ["derive_matrix", "run"]

CLONING_POINT = {"cclone": "Client", "laedge": "Coordinator", "netclone": "Switch"}


def _mark(value: bool) -> str:
    return "yes" if value else "no"


def derive_matrix(
    scale: float = 1.0,
    seed: int = 1,
    jobs: int = 1,
    topology: Optional[str] = None,
    placement: Optional[str] = None,
) -> Dict[str, Dict[str, str]]:
    """Measure each Table 1 property from probe runs."""
    spec = make_synthetic_spec("exp", mean_us=25.0)
    base = scaled_config(
        ClusterConfig(
            workload=spec,
            topology=topology,
            placement=placement,
            num_servers=5,
            workers_per_server=15,
            warmup_ns=ms(5),
            measure_ns=ms(20),
            seed=seed,
        ),
        scale,
    )
    capacity = capacity_rps(5 * 15, spec.mean_service_ns)
    low, high = capacity * 0.15, capacity * 0.85

    # Every probe is an independent cluster, so the whole batch fans
    # out through the executor at once.
    schemes = ("cclone", "laedge", "netclone")
    probes = [replace(base, scheme="baseline", rate_rps=low)]
    for scheme in schemes:
        probes.append(replace(base, scheme=scheme, rate_rps=low))
        probes.append(replace(base, scheme=scheme, rate_rps=high))
        # Scalability probe: the same scheme with half the servers at
        # proportionally half the load — a scheme with no central
        # bottleneck roughly doubles; the coordinator-bound one does not.
        probes.append(
            replace(base, scheme=scheme, num_servers=3, rate_rps=high * 0.5)
        )
    points = SweepExecutor(jobs=jobs).run_points(probes)
    baseline_low = points[0]
    matrix: Dict[str, Dict[str, str]] = {}
    for index, scheme in enumerate(schemes):
        low_point, high_point, half_high = points[1 + index * 3 : 4 + index * 3]

        # Dynamic cloning: redundancy rate falls as load rises.
        low_redundancy = _redundancy_rate(scheme, low_point)
        high_redundancy = _redundancy_rate(scheme, high_point)
        dynamic = high_redundancy < low_redundancy * 0.5

        # High throughput: sustains >=70 % of worker-pool capacity.
        high_tput = high_point.throughput_rps >= 0.7 * high

        scalable = high_point.throughput_rps >= 1.5 * half_high.throughput_rps

        # Low latency overhead vs Baseline median at low load.
        overhead_us = low_point.p50_us - baseline_low.p50_us
        low_overhead = overhead_us < 2.0

        matrix[scheme] = {
            "Cloning point": CLONING_POINT[scheme],
            "Dynamic cloning": _mark(dynamic),
            "Scalability": _mark(scalable),
            "High throughput": _mark(high_tput),
            "Low latency overhead": _mark(low_overhead),
        }
    return matrix


def _redundancy_rate(scheme: str, point) -> float:
    if point.samples == 0:
        return 0.0
    if scheme == "cclone":
        return 1.0  # static duplication by construction
    if scheme == "netclone":
        return point.extra.get("nc_cloned", 0.0) / point.samples
    if scheme == "laedge":
        return point.extra.get("coordinator_cloned", 0.0) / point.samples
    return 0.0


def run(
    scale: float = 1.0,
    seed: int = 1,
    jobs: int = 1,
    topology: Optional[str] = None,
    placement: Optional[str] = None,
) -> str:
    """Derive and print Table 1."""
    matrix = derive_matrix(scale, seed, jobs=jobs, topology=topology, placement=placement)
    properties = [
        "Cloning point",
        "Dynamic cloning",
        "Scalability",
        "High throughput",
        "Low latency overhead",
    ]
    paper = {
        "cclone": ["Client", "no", "yes", "no", "yes"],
        "laedge": ["Coordinator", "yes", "no", "no", "no"],
        "netclone": ["Switch", "yes", "yes", "yes", "yes"],
    }
    rows = []
    for prop_index, prop in enumerate(properties):
        rows.append(
            (
                prop,
                matrix["cclone"][prop],
                matrix["laedge"][prop],
                matrix["netclone"][prop],
                "/".join(paper[s][prop_index] for s in ("cclone", "laedge", "netclone")),
            )
        )
    report = "== Table 1: comparison to existing works (derived from probes) ==\n"
    report += format_table(
        ["property", "C-Clone", "LAEDGE", "NetClone", "paper (C/L/N)"], rows
    )
    print(report)
    return report


@register("table1", "qualitative comparison matrix, derived from probe runs")
def _run(
    scale: float = 1.0,
    seed: int = 1,
    jobs: int = 1,
    topology: Optional[str] = None,
    placement: Optional[str] = None,
) -> str:
    return run(scale, seed, jobs=jobs, topology=topology, placement=placement)
