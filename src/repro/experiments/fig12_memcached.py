"""Figure 12: Memcached (§5.5).

Same setup as Figure 11 with the Memcached cost model.  The paper
reports the same trends as Redis: up to 22× p99 improvement at the
99/1 mix, 1.24× on average for 90/10, C-Clone throughput halved.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.experiments import fig11_redis
from repro.experiments.registry import register
from repro.metrics.sweep import SweepResult

__all__ = ["collect", "render"]


def collect(
    scale: float = 1.0,
    seed: int = 1,
    jobs: int = 1,
    topology: Optional[str] = None,
    placement: Optional[str] = None,
) -> Dict[str, Dict[str, SweepResult]]:
    """Figure 11's two mix panels under the Memcached cost model."""
    return fig11_redis.collect(
        scale, seed, jobs, topology, placement, cost_model="memcached"
    )


@register("fig12", "Memcached key-value store, 99/1 and 90/10 GET/SCAN mixes", collect)
def render(results: Dict[str, Dict[str, SweepResult]]) -> str:
    """Figure 12's report."""
    return fig11_redis.format_report(
        "Figure 12 Memcached", results, "up to 22x for 99/1, ~1.24x average for 90/10"
    )
