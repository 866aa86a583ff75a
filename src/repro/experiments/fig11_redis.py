"""Figure 11: Redis (§5.5).

Baseline vs C-Clone vs NetClone serving a replicated Redis-like
key-value store: 1 M objects, 16 B keys / 64 B values, Zipf-0.99 reads,
8 worker threads per server, GET/SCAN mixes of 99 %/1 % and 90 %/10 %.

Expected shape: NetClone's p99 win over the Baseline is largest at low
load (the paper reports up to 22.6× for 99/1 — the p99 sits at the
GET/SCAN boundary, so masking jitter and head-of-line blocking pays
enormously) and shrinks with load; for 90/10 the p99 lies inside the
SCAN region, so the win is modest (1.77×).  C-Clone matches NetClone's
latency at low load but saturates at half the throughput.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional

from repro.experiments.common import ClusterConfig
from repro.experiments.harness import format_series, scaled_config, sweep_panels
from repro.experiments.registry import register
from repro.experiments.specs import KvSpec
from repro.metrics.sweep import SweepResult

__all__ = ["collect", "format_report", "render"]

SCHEMES = ("baseline", "cclone", "netclone")

PANELS = {
    "a-99%GET-1%SCAN": 0.01,
    "b-90%GET-10%SCAN": 0.10,
}

NUM_SERVERS = 6
WORKERS = 8
COST_MODEL = "redis"
#: Smaller keyspace at reduced scale keeps Zipf setup cheap in tests.
FULL_KEYS = 1_000_000
QUICK_KEYS = 100_000


def collect(
    scale: float = 1.0,
    seed: int = 1,
    jobs: int = 1,
    topology: Optional[str] = None,
    placement: Optional[str] = None,
    *,
    cost_model: str = COST_MODEL,
) -> Dict[str, Dict[str, SweepResult]]:
    """Both mix panels' curves under *cost_model*, keyed by panel then scheme."""
    num_keys = FULL_KEYS if scale >= 1.0 else QUICK_KEYS
    configs = {}
    for panel, scan_fraction in PANELS.items():
        spec = KvSpec(
            cost_model=cost_model, scan_fraction=scan_fraction, num_keys=num_keys
        )
        config = scaled_config(
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
        # KV event rates are low (tens of microseconds per op), so the
        # windows can be 3x longer at the same cost -- more samples
        # around the boundary-sensitive p99.  Lengthened after scaling,
        # so small scales keep 3x the floored window.
        configs[panel] = replace(config, measure_ns=config.measure_ns * 3)
    return sweep_panels(configs, SCHEMES, scale, jobs)


def format_report(
    title: str, results: Dict[str, Dict[str, SweepResult]], paper: str
) -> str:
    """One section per mix panel; *paper* is the reported p99 improvement."""
    sections = []
    for panel, series in results.items():
        base = series["baseline"]
        netclone = series["netclone"]
        low = base.points[0].offered_rps
        base_p99 = base.p99_at_load(low)
        nc_p99 = netclone.p99_at_load(low)
        improvement = base_p99 / nc_p99 if nc_p99 and nc_p99 == nc_p99 else float("nan")
        ratios = [
            b.p99_us / n.p99_us
            for b, n in zip(base.points, netclone.points)
            if n.p99_us == n.p99_us and n.p99_us > 0
        ]
        best = max(ratios) if ratios else float("nan")
        notes = [
            f"low-load p99 improvement: {improvement:.2f}x, "
            f"best across loads: {best:.2f}x "
            f"(paper: {paper})",
            f"C-Clone max throughput {series['cclone'].max_throughput_mrps():.3f} MRPS vs "
            f"NetClone {netclone.max_throughput_mrps():.3f} MRPS (paper: about half)",
        ]
        sections.append(format_series(f"{title} ({panel})", series, notes))
    return "\n".join(sections)


@register("fig11", "Redis key-value store, 99/1 and 90/10 GET/SCAN mixes", collect)
def render(results: Dict[str, Dict[str, SweepResult]]) -> str:
    """Figure 11's report."""
    return format_report(
        "Figure 11 Redis", results, "up to 22.6x for 99/1, 1.77x for 90/10"
    )
