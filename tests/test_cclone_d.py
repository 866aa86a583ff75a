"""C-Clone's duplication degree: the paper's d = 2, fixed.

The client must spend exactly one ``rng.sample(server_ips, 2)`` per
request, so ``cclone`` keeps its seed behaviour draw for draw.
"""

import random

import pytest
from helpers import tiny_config

from repro.baselines.cclone import CCloneClient
from repro.errors import ExperimentError


def _make_client(num_servers=3, seed=2):
    from repro.metrics.latency import LatencyRecorder
    from repro.sim.core import Simulator

    return CCloneClient(
        Simulator(),
        name="c",
        ip=1,
        client_id=0,
        workload=tiny_config().workload.make_workload(random.Random(1)),
        rate_rps=1e5,
        recorder=LatencyRecorder(warmup_ns=0, end_ns=1),
        rng=random.Random(seed),
        server_ips=list(range(10, 10 + num_servers)),
    )


def test_cclone_d_validation():
    message = r"C-Clone\(d=2\) needs at least 2 servers, got 1"
    with pytest.raises(ExperimentError, match=message):
        _make_client(num_servers=1)
    assert _make_client(num_servers=2).d == 2


def test_cclone_sends_two_distinct_copies():
    client = _make_client(num_servers=5, seed=2)
    request = client.workload.make_request(0, 1)
    packets = client.build_packets(request)
    assert len(packets) == 2
    # One sample(server_ips, 2) draw, nothing else from the client RNG.
    reference = random.Random(2)
    assert [p.dst for p in packets] == reference.sample(client.server_ips, 2)
    assert client.rng.getstate() == reference.getstate()
