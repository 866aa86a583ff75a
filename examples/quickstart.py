#!/usr/bin/env python3
"""Quickstart: run NetClone against the random baseline in two minutes.

Builds the paper's single-rack testbed (one programmable ToR, two
clients, six 15-thread worker servers), offers 1.4 MRPS of Exp(25 µs)
RPCs with 1 % execution jitter, and prints the tail latency of the
Baseline (random forwarding, no cloning) versus NetClone — plus the
switch's own view of what it did (clones issued, slower responses
filtered).

Run:  python examples/quickstart.py
"""

from repro.experiments.common import Cluster, ClusterConfig
from repro.sim.units import ms


def run_scheme(scheme: str) -> None:
    config = ClusterConfig(
        scheme=scheme,
        rate_rps=1.4e6,
        warmup_ns=ms(5),
        measure_ns=ms(25),
        drain_ns=ms(5),
        seed=7,
    )
    cluster = Cluster(config)
    cluster.start()
    cluster.run()
    point = cluster.load_point()

    print(f"--- {scheme} ---")
    print(f"  offered load : {point.offered_rps / 1e6:6.2f} MRPS")
    print(f"  throughput   : {point.throughput_mrps:6.2f} MRPS")
    print(f"  median       : {point.p50_us:6.1f} us")
    print(f"  99th pct     : {point.p99_us:6.1f} us")
    print(f"  99.9th pct   : {point.p999_us:6.1f} us")
    if scheme == "netclone":
        telemetry = cluster.telemetry()
        print(f"  clones issued by the switch   : {telemetry['nc_cloned']}")
        print(f"  slower responses filtered     : {telemetry['nc_filtered']}")
        print(f"  stale clones dropped at hosts : {telemetry['clones_dropped']}")
        print(
            f"  redundant responses at client : {telemetry['redundant']} "
            "(filtering works)"
        )
    print()


def main() -> None:
    print(__doc__)
    run_scheme("baseline")
    run_scheme("netclone")
    print("NetClone trades a few percent of cloning work for a lower tail;")
    print("try scheme='cclone' or 'laedge' in this file to see why static")
    print("and coordinator-based cloning fall short (Figures 7 and 8).")


if __name__ == "__main__":
    main()
