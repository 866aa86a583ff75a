"""C-Clone with d > 2: the deeper static-cloning plugin schemes.

``cclone-d3`` / ``cclone-d4`` register from
:mod:`repro.baselines.cclone` through the scheme registry alone (zero
cluster-assembly edits) — the third zero-core-edit plugin after
``jsq-d3`` and ``bounded-random``.  The paper's ``cclone`` (d = 2)
must keep its exact seed behaviour: the generalised client makes the
same single ``rng.sample`` call.
"""

import pytest
from helpers import tiny_config

from repro.baselines.cclone import CCloneClient
from repro.errors import ExperimentError
from repro.experiments.common import run_point
from repro.experiments.schemes import SCHEMES


def test_cclone_d_variants_registered_as_plugins():
    assert {"cclone-d3", "cclone-d4"} <= set(SCHEMES.names())
    assert SCHEMES.get("cclone-d3").module == "repro.baselines.cclone"


def test_cclone_d_validation():
    cfg = tiny_config()  # only for workload plumbing below
    with pytest.raises(ExperimentError, match="d >= 2"):
        _make_client(cfg, d=1)
    with pytest.raises(ExperimentError, match="at least 5 servers"):
        _make_client(cfg, d=5, num_servers=3)


def _make_client(cfg, d, num_servers=3):
    import random

    from repro.metrics.latency import LatencyRecorder
    from repro.sim.core import Simulator

    sim = Simulator()
    return CCloneClient(
        sim,
        name="c",
        ip=1,
        client_id=0,
        workload=cfg.workload.make_workload(random.Random(1)),
        rate_rps=1e5,
        recorder=LatencyRecorder(warmup_ns=0, end_ns=1),
        rng=random.Random(2),
        server_ips=list(range(10, 10 + num_servers)),
        d=d,
    )


def test_cclone_d3_sends_three_distinct_copies():
    client = _make_client(tiny_config(), d=3, num_servers=5)
    request = client.workload.make_request(0, 1)
    packets = client.build_packets(request)
    assert len(packets) == 3
    assert len({p.dst for p in packets}) == 3


def test_deeper_cloning_pays_at_the_tail():
    # Same offered load near d=2's saturation: every extra duplicate
    # adds load-agnostic work, so the tail degrades monotonically in d
    # (and by d=4 the pool is overloaded outright).
    base = dict(num_servers=4, workers_per_server=3, rate_rps=0.15e6)
    d2 = run_point(tiny_config(scheme="cclone", **base))
    d3 = run_point(tiny_config(scheme="cclone-d3", **base))
    d4 = run_point(tiny_config(scheme="cclone-d4", **base))
    assert d2.p99_us < d3.p99_us < d4.p99_us
    assert d4.throughput_rps < d2.throughput_rps
