"""Switch packet accounting under the verdict contract.

A program's pass returns ``True`` (drop) or ``None`` (forward by
route) and recirculates clones itself; the switch books each packet
to exactly one outcome.  These tests run tiny drained clusters and
check that every packet a switch saw is accounted for, and that every
program drop is one of the NetClone reasons.
"""

import pytest

from helpers import tiny_config
from repro.experiments.common import Cluster

TOPOLOGIES = {
    "star": dict(topology="star"),
    "spine_leaf": dict(
        topology="spine_leaf",
        topology_params={"racks": 2, "spines": 2},
        num_servers=4,
        placement="global",
    ),
}


def drained_cluster(**overrides):
    cluster = Cluster(tiny_config(**overrides))
    cluster.start()
    cluster.run()
    cluster.sim.run()
    return cluster


@pytest.mark.parametrize("name", sorted(TOPOLOGIES))
def test_every_switch_conserves_packets(name):
    cluster = drained_cluster(**TOPOLOGIES[name])
    assert sum(tor.counters.get("nc_cloned") for tor in cluster.tors) > 0
    for switch in cluster.switches:
        count = switch.counters.get
        assert count("rx") > 0, switch.name
        assert count("rx") + count("recirculated") == (
            count("tx")
            + count("dropped_by_program")
            + count("no_route")
            + count("dropped_down")
        ), switch.name
    filtered = 0
    for tor in cluster.tors:
        count = tor.counters.get
        assert count("dropped_by_program") == (
            count("nc_filtered")
            + count("nc_unknown_server")
            + count("nc_unknown_group")
        ), tor.name
        filtered += count("nc_filtered")
    assert filtered > 0


def test_every_pass_returns_a_verdict():
    cluster = Cluster(tiny_config(topology="star"))
    cluster.start()
    verdicts = []
    (tor,) = cluster.tors
    program_pass = tor._fast_apply

    def recorded(packet, switch):
        verdict = program_pass(packet, switch)
        verdicts.append(verdict)
        return verdict

    tor._fast_apply = recorded
    cluster.run()
    cluster.sim.run()
    assert set(verdicts) == {None, True}
    assert verdicts.count(True) == tor.counters.get("dropped_by_program")
    assert len(verdicts) == tor.counters.get("rx") + tor.counters.get("recirculated")
