"""Design ablations: the three data-plane choices NetClone rests on.

* ``ablation-groups`` (§3.3): the paper installs every *ordered* pair —
  n·(n−1) groups — because non-cloned requests go to the first
  candidate, so dropping the reversed pairs biases load toward
  low-numbered servers.  Runs NetClone with the full ordered set and
  with only the i<j half and reports per-server load imbalance and
  tail latency.  Expected shape: the unordered half skews requests
  toward low server IDs and costs tail latency at load.
* ``ablation-clone-drop`` (§3.4): the switch clones on *tracked*
  state; by the time the clone arrives the server may be busy, and
  NetClone drops such clones at the server when its queue is
  non-empty.  Compares tail latency with and without that rule
  (``netclone-noclonedrop``) at mid and high load.  Expected shape:
  without the drop, stale clones consume worker time exactly when the
  cluster is busiest, inflating p99.
* ``ablation-filters`` (§3.5): the paper reserves 2 filter tables ×
  2^17 slots.  Varies both knobs and reports the *filtering miss
  rate* — redundant responses that reach the client because a hash
  collision overwrote the fingerprint before the slower response
  arrived.  Expected shape: misses are essentially zero at the
  paper's sizing and grow as slots shrink; adding tables at a fixed
  total budget reduces misses because the client-chosen table index
  separates colliding requests.

Every counter comes from :meth:`Cluster.telemetry` or its
``LoadPoint.extra`` projection.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.placement import GroupTable
from repro.experiments.common import Cluster, ClusterConfig
from repro.experiments.executor import SweepExecutor
from repro.experiments.harness import capacity_rps, scaled_config
from repro.experiments.registry import register
from repro.metrics.tables import format_table

__all__ = ["run_clone_drop", "run_filters", "run_groups"]

NUM_SERVERS = 6
WORKERS = 15

#: (tables, slots per table); the last row is the paper's configuration.
FILTER_CONFIGS = ((1, 16), (1, 256), (2, 16), (2, 256), (4, 16), (2, 1 << 17))

CLONE_DROP_FRACTIONS = (0.5, 0.7, 0.9)


def _capacity(config: ClusterConfig) -> float:
    return capacity_rps(NUM_SERVERS * WORKERS, config.workload.mean_service_ns)


@register("ablation-groups", "ablation: ordered vs unordered candidate pairs (§3.3)")
def run_groups(scale: float = 1.0, seed: int = 1, jobs: int = 1) -> str:
    """Print the group-construction rows (*jobs* accepted for CLI
    symmetry: the i<j table is installed after build, so both runs
    build their clusters here)."""
    base = scaled_config(ClusterConfig(scheme="netclone", seed=seed), scale)
    config = replace(base, rate_rps=_capacity(base) * 0.75)
    unordered = tuple(
        (i, j) for i in range(NUM_SERVERS) for j in range(i + 1, NUM_SERVERS)
    )
    rows = []
    for label, pairs in (
        ("ordered n*(n-1) (paper)", None),
        ("unordered i<j half", unordered),
    ):
        cluster = Cluster(config)
        if pairs is not None:
            # Swap the custom group set in as one uniform table, on the
            # switch and on every client alike, as the next epoch.
            table = GroupTable(pairs=pairs, split=len(pairs)).with_epoch(1)
            cluster.program.install_group_table(table)
            for client in cluster.clients:
                client.install_group_table(table)
        cluster.start()
        cluster.run()
        accepted = cluster.telemetry()["server_accepted"]
        mean = sum(accepted) / len(accepted)
        imbalance = max(accepted) / mean if mean else float("nan")
        rows.append(
            (
                label,
                " ".join(str(count) for count in accepted),
                f"{imbalance:.2f}",
                f"{cluster.load_point().p99_us:.0f}",
            )
        )
    report = "== Ablation: group construction (per-server accepted requests) ==\n"
    report += format_table(["groups", "per-server load", "max/mean", "p99 (us)"], rows)
    print(report)
    return report


@register("ablation-clone-drop", "ablation: server-side stale-clone drop (§3.4)")
def run_clone_drop(scale: float = 1.0, seed: int = 1, jobs: int = 1) -> str:
    """Print p99 with and without the stale-clone drop at three loads."""
    base = scaled_config(ClusterConfig(seed=seed), scale)
    capacity = _capacity(base)
    configs = [
        replace(base, scheme=scheme, rate_rps=capacity * fraction)
        for fraction in CLONE_DROP_FRACTIONS
        for scheme in ("netclone", "netclone-noclonedrop")
    ]
    points = SweepExecutor(jobs).run_points(configs)
    rows = [
        (
            f"{fraction * 100:.0f}%",
            f"{with_drop.p99_us:.0f}",
            f"{without_drop.p99_us:.0f}",
            f"{with_drop.extra['clones_dropped']:.0f}",
        )
        for fraction, with_drop, without_drop in zip(
            CLONE_DROP_FRACTIONS, points[0::2], points[1::2]
        )
    ]
    report = "== Ablation: server-side stale-clone drop (p99 us) ==\n"
    report += format_table(["load", "with drop", "without drop", "clones dropped"], rows)
    print(report)
    return report


@register("ablation-filters", "ablation: filter table count x slots (§3.5)")
def run_filters(scale: float = 1.0, seed: int = 1, jobs: int = 1) -> str:
    """Print the filtering miss rate per filter-table sizing."""
    base = scaled_config(
        ClusterConfig(scheme="netclone", rate_rps=1.4e6, seed=seed), scale
    )
    configs = [
        replace(base, num_filter_tables=tables, filter_slots=slots)
        for tables, slots in FILTER_CONFIGS
    ]
    rows = []
    for (tables, slots), point in zip(
        FILTER_CONFIGS, SweepExecutor(jobs).run_points(configs)
    ):
        cloned = int(point.extra["nc_cloned"])
        leaked = int(point.extra["redundant_responses"])
        rows.append(
            (
                tables,
                slots,
                cloned,
                int(point.extra["nc_fingerprint_overwrite"]),
                leaked,
                f"{(leaked / cloned if cloned else 0.0) * 100:.3f}%",
            )
        )
    report = "== Ablation: filter table count x slots (filtering miss rate) ==\n"
    report += format_table(
        ["tables", "slots", "cloned", "overwrites", "leaked responses", "miss rate"],
        rows,
    )
    print(report)
    return report
