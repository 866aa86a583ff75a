"""Ablation: ordered vs unordered candidate pairs (§3.3).

The paper installs every *ordered* pair — n·(n−1) groups — because
non-cloned requests go to the first candidate, so dropping the
reversed pairs biases load toward low-numbered servers.  This bench
runs NetClone with the full ordered set and with only the i<j half and
measures per-server load imbalance and tail latency.  Expected shape:
the unordered half skews requests toward low server IDs and costs tail
latency at load.
"""

from dataclasses import replace

import numpy as np
from conftest import run_once

from repro.core.placement import GroupTable
from repro.experiments.common import Cluster, ClusterConfig
from repro.experiments.harness import capacity_rps, scaled_config
from repro.metrics.tables import format_table


def measure(scale: float, seed: int) -> str:
    base = scaled_config(ClusterConfig(scheme="netclone", seed=seed), scale)
    capacity = capacity_rps(6 * 15, base.workload.mean_service_ns)
    config = replace(base, rate_rps=capacity * 0.75)
    rows = []
    for label, pairs in (
        ("ordered n*(n-1) (paper)", None),
        ("unordered i<j half", [(i, j) for i in range(6) for j in range(i + 1, 6)]),
    ):
        cluster = Cluster(config)
        if pairs is not None:
            # Swap the custom group set in as one uniform table, on the
            # switch and on every client alike.
            table = GroupTable(pairs=tuple(pairs), split=len(pairs))
            cluster.program.install_group_table(table)
            for client in cluster.clients:
                client.install_group_table(table)
        cluster.start()
        cluster.run()
        accepted = np.array(
            [server.counters.get("requests_accepted") for server in cluster.servers],
            dtype=float,
        )
        imbalance = accepted.max() / accepted.mean() if accepted.mean() else float("nan")
        point = cluster.load_point()
        rows.append(
            (
                label,
                " ".join(f"{int(count)}" for count in accepted),
                f"{imbalance:.2f}",
                f"{point.p99_us:.0f}",
            )
        )
    report = "== Ablation: group construction (per-server accepted requests) ==\n"
    report += format_table(
        ["groups", "per-server load", "max/mean", "p99 (us)"], rows
    )
    print(report)
    return report


def _imbalance(report: str, label: str) -> float:
    """The max/mean column of the row whose label starts with *label*."""
    row = next(line for line in report.splitlines() if line.startswith(label))
    return float(row.split()[-2])


def bench_ablation_group_choice(benchmark, bench_scale, bench_seed):
    report = run_once(benchmark, measure, scale=bench_scale, seed=bench_seed)
    # §3.3: without the reversed pairs, non-cloned requests herd onto
    # the low-numbered first candidates.
    assert _imbalance(report, "unordered") > _imbalance(report, "ordered")
