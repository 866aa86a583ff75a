"""Figure 13: confidence of the empty-queue state signal (§5.6.1).

(a) The fraction of responses reporting an empty queue, as offered
load sweeps 10 %..100 % of capacity.  Expected shape: decreasing in
load, but never 0 even at very high load (queues drain between
bursts) and never quite 1 even at low load (bursts queue briefly) —
the two observations that explain NetClone's behaviour at both ends.

(b) Ten repetitions of Baseline vs NetClone at 90 % load: mean and
standard deviation of p99.  Expected shape: NetClone's mean p99 is
lower, with enough run-to-run spread that individual runs can cross.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.experiments.common import JITTER_FACTOR, ClusterConfig
from repro.experiments.executor import SweepExecutor
from repro.experiments.harness import capacity_rps, scaled_config
from repro.experiments.registry import register
from repro.experiments.specs import make_synthetic_spec
from repro.metrics.tables import format_table

__all__ = ["collect", "run"]

NUM_SERVERS = 6
WORKERS = 15
REPEATS = 10
HIGH_LOAD_FRACTION = 0.9


def _effective_capacity(config: ClusterConfig) -> float:
    """Achievable capacity: worker capacity divided by the jitter
    inflation factor (1 + p·(factor−1)).  The paper's load percentages
    are fractions of what the cluster can actually serve, so anchoring
    to raw worker capacity would place '90 %' beyond saturation."""
    raw = capacity_rps(NUM_SERVERS * WORKERS, config.workload.mean_service_ns)
    inflation = 1.0 + config.jitter_p * (JITTER_FACTOR - 1.0)
    return raw / inflation


def _base_config(
    scale: float,
    seed: int,
    topology: Optional[str] = None,
    placement: Optional[str] = None,
) -> ClusterConfig:
    spec = make_synthetic_spec("exp", mean_us=25.0)
    return scaled_config(
        ClusterConfig(
            workload=spec,
            topology=topology,
            placement=placement,
            num_servers=NUM_SERVERS,
            workers_per_server=WORKERS,
            seed=seed,
        ),
        scale,
    )


def collect(
    scale: float = 1.0,
    seed: int = 1,
    repeats: int = REPEATS,
    jobs: int = 1,
    topology: Optional[str] = None,
    placement: Optional[str] = None,
) -> Tuple[List[Tuple[float, float]], Dict[str, Tuple[float, float]]]:
    """Both panels' samples, measured as one executor batch.

    Panel (a): (load fraction, empty-queue fraction) pairs.  Panel
    (b): mean and std of p99 over *repeats* runs at 90 % load, per
    scheme.
    """
    config = _base_config(scale, seed, topology, placement)
    capacity = _effective_capacity(config)
    fractions = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
    if scale < 0.4:
        fractions = (0.1, 0.4, 0.7, 1.0)
    schemes = ("baseline", "netclone")
    configs = [
        replace(config, scheme="netclone", rate_rps=capacity * fraction)
        for fraction in fractions
    ] + [
        replace(
            config,
            scheme=scheme,
            rate_rps=capacity * HIGH_LOAD_FRACTION,
            seed=seed + run_index,
        )
        for scheme in schemes
        for run_index in range(repeats)
    ]
    points = SweepExecutor(jobs).run_points(configs)
    empty = []
    for fraction, point in zip(fractions, points):
        zeros = point.extra["state_samples_zero"]
        total = point.extra["state_samples_total"]
        empty.append((fraction, zeros / total if total else float("nan")))
    repeated = points[len(fractions):]
    stats: Dict[str, Tuple[float, float]] = {}
    for index, scheme in enumerate(schemes):
        p99s = [p.p99_us for p in repeated[index * repeats : (index + 1) * repeats]]
        stats[scheme] = (float(np.mean(p99s)), float(np.std(p99s)))
    return empty, stats


@register("fig13", "confidence of the empty-queue state signal")
def run(
    scale: float = 1.0,
    seed: int = 1,
    jobs: int = 1,
    topology: Optional[str] = None,
    placement: Optional[str] = None,
) -> str:
    """Run Figure 13 and return the formatted report."""
    repeats = REPEATS if scale >= 1.0 else max(3, int(REPEATS * scale))
    empty, stats = collect(scale, seed, repeats, jobs, topology, placement)
    lines = ["== Figure 13 (a): portion of empty queues vs offered load =="]
    lines.append(
        format_table(
            ["offered load (%)", "empty-queue fraction (%)"],
            [(f"{frac * 100:.0f}", f"{portion * 100:.1f}") for frac, portion in empty],
        )
    )
    lines.append("")
    lines.append(f"== Figure 13 (b): p99 at 90% load over {repeats} runs ==")
    lines.append(
        format_table(
            ["scheme", "mean p99 (us)", "std (us)"],
            [
                (scheme, f"{mean:.1f}", f"{std:.1f}")
                for scheme, (mean, std) in stats.items()
            ],
        )
    )
    lines.append("")
    lines.append("shape checks:")
    lines.append(
        f"  - empty-queue fraction decreases with load: "
        f"{empty[0][1] * 100:.1f}% at {empty[0][0] * 100:.0f}% load -> "
        f"{empty[-1][1] * 100:.1f}% at {empty[-1][0] * 100:.0f}% load"
    )
    lines.append(
        f"  - NetClone mean p99 {stats['netclone'][0]:.0f} +/- {stats['netclone'][1]:.0f} us vs "
        f"Baseline {stats['baseline'][0]:.0f} +/- {stats['baseline'][1]:.0f} us at 90% load "
        f"(paper: NetClone lower on average, with runs occasionally crossing)"
    )
    report = "\n".join(lines)
    print(report)
    return report
