"""The four packet-path workloads of the end-to-end benchmark.

Each entry is the ``ClusterConfig`` keyword set of one operating point;
``COMMON`` holds what all four share.  Windows are sized so that one
timed repetition runs a few seconds on a 2-core machine.  This module
imports nothing from ``repro`` so the parent process can read the
workload names without loading the simulator.
"""

from __future__ import annotations

from typing import Any, Dict

MS = 1_000_000

COMMON: Dict[str, Any] = {
    "warmup_ns": 10 * MS,
    "drain_ns": 5 * MS,
    "metrics": "exact",
}

WORKLOADS: Dict[str, Dict[str, Any]] = {
    # ~98% of requests are cloned: the recirculate/copy/filter path of
    # core.program, switchsim and net.packet runs on nearly every one.
    "star-clone": {
        "scheme": "netclone",
        "topology": "star",
        "num_servers": 6,
        "workers_per_server": 15,
        "num_clients": 2,
        "rate_rps": 1.0e6,
        "measure_ns": 100 * MS,
    },
    # No switch program and the highest request rate: client, server,
    # net.host and the scheduler dominate; a core.program change should
    # leave this one unchanged.
    "star-baseline-hi": {
        "scheme": "baseline",
        "topology": "star",
        "num_servers": 6,
        "workers_per_server": 15,
        "num_clients": 2,
        "rate_rps": 2.5e6,
        "measure_ns": 80 * MS,
    },
    # Requests cross the ECMP trunks through four ToR program instances:
    # switch egress, routing and link booking.  (rack-local placement
    # would keep the trunks silent and stress nothing star does not.)
    "spine-global": {
        "scheme": "netclone",
        "topology": "spine_leaf:racks=4,spines=2",
        "placement": "global",
        "num_servers": 8,
        "workers_per_server": 15,
        "num_clients": 4,
        "rate_rps": 1.8e6,
        "measure_ns": 40 * MS,
    },
    # The same program mostly takes its no-clone path; the only workload
    # running apps.service/kvstore and a Zipf draw per request, and the
    # one with the largest set-up (the 1M-key CDF) and memory.
    "kv-netclone": {
        "scheme": "netclone",
        "topology": "star",
        "workload": "kv-redis",
        "num_servers": 6,
        "workers_per_server": 8,
        "num_clients": 2,
        "rate_rps": 0.45e6,
        "measure_ns": 250 * MS,
    },
}
