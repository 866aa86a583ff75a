"""Figure 12: Memcached (§5.5).

Same setup as Figure 11 with the Memcached cost model.  The paper
reports the same trends as Redis: up to 22× p99 improvement at the
99/1 mix, 1.24× on average for 90/10, C-Clone throughput halved.
"""

from __future__ import annotations

from typing import Optional

from repro.experiments import fig11_redis
from repro.experiments.registry import register

__all__ = ["run"]


@register("fig12", "Memcached key-value store, 99/1 and 90/10 GET/SCAN mixes")
def run(
    scale: float = 1.0,
    seed: int = 1,
    jobs: int = 1,
    topology: Optional[str] = None,
    placement: Optional[str] = None,
) -> str:
    """Run Figure 12 and return the formatted report."""
    report = fig11_redis.format_report(
        "Figure 12 Memcached",
        fig11_redis.collect(
            scale,
            seed,
            jobs=jobs,
            topology=topology,
            placement=placement,
            cost_model="memcached",
        ),
        "up to 22x for 99/1, ~1.24x average for 90/10",
    )
    print(report)
    return report
