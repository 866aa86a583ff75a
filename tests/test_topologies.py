"""Topology plugin registry, multi-rack fabrics, and their composition
with the scheme registry / parallel sweep engine.

Covers the registry round-trip, fabric wiring and placement, per-ToR
program installation with SWID gating, multi-rack determinism
(serial vs parallel, star vs one-rack spine-leaf), the fig17 harness,
and the CLI surface (``topologies`` subcommand, ``--topology``).
"""

import pytest
from helpers import assert_points_identical, tiny_config

from repro.cli import main
from repro.errors import ExperimentError, NetworkError
from repro.experiments.common import Cluster, ClusterConfig, run_point
from repro.experiments.topologies import TOPOLOGIES, TopologySpec
from repro.net.host import Host
from repro.net.topology import SingleRackFabric, SpineLeafFabric, TwoRackFabric
from repro.sim.core import Simulator
from repro.switchsim.switch import ProgrammableSwitch


# ----------------------------------------------------------------------
# Registry round-trip
# ----------------------------------------------------------------------
def test_builtin_topologies_registered():
    names = TOPOLOGIES.names()
    for expected in ("star", "two_rack", "spine_leaf"):
        assert expected in names
    assert any("spine_leaf" in line for line in TOPOLOGIES.describe())


def test_aliases_resolve_and_normalise_in_config():
    assert TOPOLOGIES.get("spine-leaf").name == "spine_leaf"
    assert TOPOLOGIES.get("2rack").name == "two_rack"
    assert ClusterConfig(topology="clos").topology == "spine_leaf"


def test_unknown_topology_raises_with_known_names():
    with pytest.raises(ExperimentError, match="star"):
        TOPOLOGIES.get("nope")
    with pytest.raises(ExperimentError):
        ClusterConfig(topology="nope")


def test_register_lookup_unregister_round_trip():
    @TOPOLOGIES.register
    def _tmp_topology() -> TopologySpec:
        return TopologySpec(
            name="tmp-test-fabric",
            description="temporary",
            aliases=("tmp-fabric-alias",),
            make_fabric=lambda ctx: SingleRackFabric(ctx.sim, ctx.make_switch),
        )

    try:
        assert TOPOLOGIES.get("tmp-fabric-alias").name == "tmp-test-fabric"
        # End-to-end through the generic Cluster with zero common.py edits.
        point = run_point(tiny_config(topology="tmp-test-fabric"))
        assert point.samples > 0
        with pytest.raises(ExperimentError, match="already registered"):
            TOPOLOGIES.register(
                TopologySpec(
                    name="tmp-test-fabric",
                    description="dup",
                    make_fabric=lambda ctx: None,
                )
            )
    finally:
        TOPOLOGIES.unregister("tmp-test-fabric")
    with pytest.raises(ExperimentError):
        TOPOLOGIES.get("tmp-test-fabric")
    with pytest.raises(ExperimentError):
        TOPOLOGIES.unregister("tmp-test-fabric")


# ----------------------------------------------------------------------
# Fabric wiring
# ----------------------------------------------------------------------
def make_switch_factory(sim):
    return lambda name: ProgrammableSwitch(sim, name=name)


def test_two_rack_fabric_places_roles_and_routes():
    sim = Simulator()
    fabric = TwoRackFabric(sim, make_switch_factory(sim))
    assert [tor.name for tor in fabric.tors] == ["tor1", "tor2"]
    server = Host(sim, "s1", fabric.allocate_ip("server", 0))
    client = Host(sim, "c1", fabric.allocate_ip("client", 0))
    fabric.attach(server, "server", 0)
    fabric.attach(client, "client", 0)
    # Server lives on rack 1's subnet, client on rack 0's.
    assert (server.ip >> 8) & 0xFF == 2
    assert (client.ip >> 8) & 0xFF == 1
    # Cross-rack routes point at the trunk ports.
    assert fabric.tors[0].routes[server.ip] == fabric.uplink_ports[0]
    assert fabric.tors[1].routes[client.ip] == fabric.uplink_ports[1]
    assert fabric.link_of(server) is fabric.stars[1].link_of(server)


def test_two_rack_fabric_rejects_bad_placement():
    # Placement is fixed (clients and coordinator in rack 0, servers in
    # rack 1): any inline parameter is unknown, whatever its value.
    for params in ("server_rack=2", "client_rack=0", "rack=x"):
        with pytest.raises(ExperimentError, match="unknown two_rack topology parameter"):
            run_point(tiny_config(topology=f"two_rack:{params}"))


def test_rack_full_raises_clear_error_not_port_collision():
    sim = Simulator()
    make_switch = lambda name: ProgrammableSwitch(sim, name=name, num_ports=3)
    fabric = TwoRackFabric(sim, make_switch)  # trunk takes port 2 of each ToR
    for index in range(2):
        host = Host(sim, f"c{index}", fabric.allocate_ip("client", index))
        fabric.attach(host, "client", index)
    overflow = Host(sim, "c2", fabric.allocate_ip("client", 2))
    with pytest.raises(NetworkError, match="rack full"):
        fabric.attach(overflow, "client", 2)


def test_config_topology_none_means_star():
    assert ClusterConfig(topology=None).topology == "star"


def test_spine_leaf_fabric_round_robin_and_ecmp_routes():
    sim = Simulator()
    fabric = SpineLeafFabric(sim, make_switch_factory(sim), racks=3, spines=2)
    assert fabric.num_racks == 3 and len(fabric.spines) == 2
    assert fabric.rack_of("server", 0) == 0
    assert fabric.rack_of("server", 4) == 1
    assert fabric.rack_of("coordinator", 5) == 0
    host = Host(sim, "h", fabric.allocate_ip("server", 1))
    fabric.attach(host, "server", 1)
    # Every spine knows the way down; remote ToRs steer through the
    # spine policy, which defaults to ECMP pinning one spine by ip,
    # compiled into a static route.
    for spine in fabric.spines:
        assert spine.routes[host.ip] == 1
    chosen = host.ip % 2
    for t in (0, 2):
        assert fabric.tors[t].routes[host.ip] == fabric._uplink_port[t][chosen]
    # The local ToR routes directly, not via a spine.
    assert fabric.tors[1].routes[host.ip] < fabric.tors[1].num_ports - 2


def test_spine_leaf_fabric_validation():
    sim = Simulator()
    with pytest.raises(NetworkError):
        SpineLeafFabric(sim, make_switch_factory(sim), racks=0)
    with pytest.raises(NetworkError):
        SpineLeafFabric(sim, make_switch_factory(sim), spines=0)


# ----------------------------------------------------------------------
# Cluster composition: per-ToR programs + SWID gating
# ----------------------------------------------------------------------
def test_cluster_installs_one_program_per_tor_with_rack_swid():
    cluster = Cluster(tiny_config(topology="spine_leaf",
                                  topology_params={"racks": 2, "spines": 1}))
    assert len(cluster.tors) == 2
    assert len(cluster.programs) == 2
    assert [p.switch_id for p in cluster.programs] == [1, 2]
    assert cluster.program is cluster.programs[0]
    assert cluster.switch is cluster.tors[0]
    # Spines carry no program: plain L3.
    spines = [s for s in cluster.switches if s not in cluster.tors]
    assert spines and all(s.program is None for s in spines)


def test_two_rack_only_client_tor_does_netclone_work():
    cluster = Cluster(tiny_config(topology="two_rack"))
    cluster.start()
    cluster.run()
    client_program, server_program = cluster.programs
    # The client-side ToR assigned sequence numbers; the server-side
    # ToR never did, because the SWID gate excluded stamped packets.
    assert client_program.seq.peek(0) > 0
    assert server_program.seq.peek(0) == 0
    assert cluster.tors[0].counters.get("nc_cloned") > 0
    assert cluster.tors[1].counters.get("nc_cloned") == 0
    point = cluster.load_point()
    assert point.extra["redundant_responses"] == 0
    assert point.extra["nc_filtered"] > 0


def test_multirack_clients_see_no_redundant_responses_on_spine_leaf():
    point = run_point(
        tiny_config(topology="spine_leaf",
                    topology_params={"racks": 3, "spines": 2})
    )
    assert point.samples > 0
    assert point.extra["nc_cloned"] > 0
    assert point.extra["redundant_responses"] == 0


def test_laedge_coordinator_composes_with_two_rack():
    point = run_point(tiny_config(scheme="laedge", topology="two_rack"))
    assert point.samples > 0
    assert "coordinator_queue" in point.extra


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------
def test_star_matches_single_rack_spine_leaf():
    star = run_point(tiny_config())
    one_rack = run_point(
        tiny_config(topology="spine_leaf",
                    topology_params={"racks": 1, "spines": 1})
    )
    assert_points_identical(star, one_rack)


# ----------------------------------------------------------------------
# fig17 harness + CLI surface
# ----------------------------------------------------------------------
@pytest.mark.slow
def test_cli_run_fig17_spine_leaf_parallel(capsys):
    # The acceptance path: `repro run fig17 --topology spine_leaf --jobs 4`.
    assert main(
        ["run", "fig17", "--topology", "spine_leaf", "--jobs", "4",
         "--scale", "0.05"]
    ) == 0
    out = capsys.readouterr().out
    assert "Figure 17 (spine_leaf)" in out
    assert "netclone" in out


def test_cli_topologies_subcommand(capsys):
    assert main(["topologies"]) == 0
    out = capsys.readouterr().out
    assert "star" in out and "two_rack" in out and "spine_leaf" in out


def test_cli_list_mentions_topologies_and_fig17(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "topologies" in out
    assert "fig17" in out


def test_cli_rejects_unknown_topology(capsys):
    assert main(["fig17", "--topology", "moebius-strip"]) == 2
    assert "unknown topology" in capsys.readouterr().out
