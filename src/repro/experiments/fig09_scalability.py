"""Figure 9: impact of the number of worker servers.

Baseline vs NetClone on Exp(25) with 2, 4 and 6 worker servers.
Expected shape: throughput scales with the server count for both
schemes; NetClone keeps p99 at or below the Baseline's, except that
with only 2 (and sometimes 4) servers NetClone can be *worse* at very
high load — stale cloning decisions herd clones onto busy servers and
the dropped-clone processing costs show (§5.3.2).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.experiments.common import ClusterConfig
from repro.experiments.harness import format_series, scaled_config, sweep_panels
from repro.experiments.registry import register
from repro.experiments.specs import make_synthetic_spec
from repro.metrics.sweep import SweepResult

__all__ = ["SERVER_COUNTS", "collect", "render"]

SCHEMES = ("baseline", "netclone")
SERVER_COUNTS = (2, 4, 6)
WORKERS = 15


def collect(
    scale: float = 1.0,
    seed: int = 1,
    jobs: int = 1,
    topology: Optional[str] = None,
    placement: Optional[str] = None,
) -> Dict[int, Dict[str, SweepResult]]:
    """Curves keyed by server count then scheme."""
    configs = {
        num_servers: scaled_config(
            ClusterConfig(
                workload=make_synthetic_spec("exp", mean_us=25.0),
                topology=topology,
                placement=placement,
                num_servers=num_servers,
                workers_per_server=WORKERS,
                seed=seed,
            ),
            scale,
        )
        for num_servers in SERVER_COUNTS
    }
    return sweep_panels(configs, SCHEMES, scale, jobs)


@register("fig9", "impact of the number of worker servers (2/4/6)", collect)
def render(results: Dict[int, Dict[str, SweepResult]]) -> str:
    """Figure 9's report: one section per server count, then the scaling line."""
    sections = []
    tput = {
        n: results[n]["netclone"].max_throughput_mrps() for n in SERVER_COUNTS
    }
    for num_servers, series in results.items():
        notes = [
            f"NetClone({num_servers}) max throughput {tput[num_servers]:.2f} MRPS",
        ]
        sections.append(
            format_series(f"Figure 9 ({num_servers} worker servers)", series, notes)
        )
    ordering = " < ".join(f"{tput[n]:.2f}" for n in SERVER_COUNTS)
    sections.append(
        f"scalability: NetClone max throughput grows with servers: {ordering} MRPS\n"
    )
    return "\n".join(sections)
