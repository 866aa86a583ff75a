"""Spine policies, dynamic route updates, failure drills, and fig18.

Covers the new congestion-aware spine selection axis end to end: the
policy classes in isolation, the CLI/topology-param plumbing that
selects them, equivalence of the dynamic ``ecmp`` path with the
pre-PR static routes, live withdraw/restore drills on a running
cluster, and determinism of the fig18 trunk-saturation grid.
"""

import pytest
from helpers import assert_points_identical, make_packet, tiny_config

from repro.errors import ExperimentError, NetworkError
from repro.experiments.common import Cluster, ClusterConfig, run_point
from repro.experiments.plugin_registry import format_plugin_params
from repro.experiments.topologies import (
    SPINE_POLICIES,
    TOPOLOGIES,
    SpinePolicySpec,
    TopologySpec,
)
from repro.net.host import Host
from repro.net.topology import (
    FLOWLET_GAP_NS,
    TRUNK_BANDWIDTH_BPS,
    LeastLoadedSpinePolicy,
    SpineLeafFabric,
)
from repro.sim.core import Simulator
from repro.sim.units import ms, us
from repro.switchsim.switch import ProgrammableSwitch


def make_fabric(spine_policy="ecmp", **kwargs):
    """A bare spine-leaf fabric; *spine_policy* resolves by registry name."""
    make_policy = SPINE_POLICIES.get(spine_policy).make_policy
    sim = Simulator()
    fabric = SpineLeafFabric(
        sim,
        lambda name: ProgrammableSwitch(sim, name=name),
        make_policy=make_policy,
        **kwargs,
    )
    return sim, fabric


def probe(dst, src=1):
    return make_packet(src=src, dst=dst, sport=1, dport=1, size=64)


# ----------------------------------------------------------------------
# Policy units
# ----------------------------------------------------------------------
def test_unknown_spine_policy_raises_with_known_names():
    with pytest.raises(ExperimentError, match="unknown spine policy") as excinfo:
        make_fabric(racks=2, spines=2, spine_policy="hottest-first")
    for name in ("ecmp", "least-loaded", "flowlet"):
        assert repr(name) in str(excinfo.value)


def test_least_loaded_avoids_a_backlogged_uplink():
    sim, fabric = make_fabric(racks=2, spines=2, spine_policy="least-loaded")
    server = Host(sim, "s0", fabric.allocate_ip("server", 0))
    fabric.attach(server, "server", 0)
    selector = fabric.tors[1].routes[server.ip]
    assert callable(selector)  # congestion-aware: chosen per packet
    anchor = server.ip % 2
    assert selector(probe(server.ip)) == fabric._uplink_port[1][anchor]
    # Pile bytes onto the anchor uplink: the policy must swerve.
    big = make_packet(src=1, dst=server.ip, sport=1, dport=1, size=500_000)
    fabric.uplinks[1][anchor].send(big, fabric.tors[1])
    assert fabric.uplink_backlog_ns(1, anchor) > 0
    assert selector(probe(server.ip)) == fabric._uplink_port[1][1 - anchor]


def test_flowlet_sticks_within_gap_and_repicks_after_idle():
    sim, fabric = make_fabric(racks=2, spines=2, spine_policy="flowlet")
    server = Host(sim, "s0", fabric.allocate_ip("server", 0))
    fabric.attach(server, "server", 0)
    selector = fabric.tors[1].routes[server.ip]
    assert callable(selector)  # flow state: chosen per packet
    anchor = server.ip % 2
    first = selector(probe(server.ip))
    assert first == fabric._uplink_port[1][anchor]
    # Backlog the anchor (~300 us at 400 Gb/s, outlasting the 100 us
    # gap): a packet inside the gap still sticks ...
    big = make_packet(src=1, dst=server.ip, sport=1, dport=1, size=15_000_000)
    fabric.uplinks[1][anchor].send(big, fabric.tors[1])
    assert selector(probe(server.ip)) == first
    # ... but after an idle gap the flowlet re-picks off the hot trunk.
    sim.run(until=FLOWLET_GAP_NS + us(100))
    assert fabric.uplink_backlog_ns(1, anchor) > 0
    assert selector(probe(server.ip)) == fabric._uplink_port[1][1 - anchor]


def test_withdraw_and_restore_update_routes_dynamically():
    sim, fabric = make_fabric(racks=2, spines=2)
    server = Host(sim, "s0", fabric.allocate_ip("server", 0))
    fabric.attach(server, "server", 0)
    routes = fabric.tors[1].routes
    pinned = server.ip % 2
    assert routes[server.ip] == fabric._uplink_port[1][pinned]
    fabric.withdraw_spine(pinned)
    assert fabric.active_spines() == [1 - pinned]
    assert routes[server.ip] == fabric._uplink_port[1][1 - pinned]
    with pytest.raises(NetworkError, match="last active spine"):
        fabric.withdraw_spine(1 - pinned)
    fabric.restore_spine(pinned)
    assert routes[server.ip] == fabric._uplink_port[1][pinned]
    with pytest.raises(NetworkError, match="no spine"):
        fabric.withdraw_spine(7)


def ecmp_port(fabric, tor, ip):
    """The uplink port ``ip % active`` picks on ToR *tor*."""
    active = fabric.active_spines()
    return fabric._uplink_port[tor][active[ip % len(active)]]


def test_host_attached_after_withdrawal_routes_over_survivors():
    sim, fabric = make_fabric(racks=2, spines=3)
    fabric.withdraw_spine(1)
    hosts = []
    for index in range(0, 8, 2):  # every even index lands in rack 0
        host = Host(sim, f"s{index}", fabric.allocate_ip("server", index))
        fabric.attach(host, "server", index)
        hosts.append(host)
    routes = fabric.tors[1].routes
    for host in hosts:
        assert routes[host.ip] == ecmp_port(fabric, 1, host.ip)
        assert routes[host.ip] != fabric._uplink_port[1][1]
    fabric.restore_spine(1)
    for host in hosts:
        assert routes[host.ip] == fabric._uplink_port[1][host.ip % 3]


def test_stale_delayed_restore_does_not_re_resolve_ecmp_routes():
    sim, fabric = make_fabric(racks=2, spines=2)
    server = Host(sim, "s0", fabric.allocate_ip("server", 0))
    fabric.attach(server, "server", 0)
    pinned = server.ip % 2
    routes = fabric.tors[1].routes
    fabric.withdraw_spine(pinned)
    fabric.restore_spine(pinned, reinit_delay_ns=us(10))
    # Nothing moves until the delayed restore fires ...
    assert routes[server.ip] == fabric._uplink_port[1][1 - pinned]
    fabric.withdraw_spine(pinned)
    sim.run(until=us(50))
    # ... and the stale (older epoch) one never re-resolves the route.
    assert fabric.active_spines() == [1 - pinned]
    assert routes[server.ip] == fabric._uplink_port[1][1 - pinned]
    fabric.restore_spine(pinned, reinit_delay_ns=us(10))
    sim.run(until=us(100))
    assert routes[server.ip] == fabric._uplink_port[1][pinned]


def test_flap_during_delayed_restore_stays_withdrawn():
    # withdraw -> delayed restore -> withdraw again before the delay
    # elapses: the stale restore callback must not re-activate the
    # spine behind the second withdrawal's back.
    sim, fabric = make_fabric(racks=2, spines=2)
    fabric.withdraw_spine(0)
    fabric.restore_spine(0, reinit_delay_ns=us(10))
    fabric.withdraw_spine(0)
    sim.run(until=us(50))
    assert fabric.active_spines() == [1]
    fabric.restore_spine(0)
    assert fabric.active_spines() == [0, 1]


# ----------------------------------------------------------------------
# Topology-param plumbing (CLI form)
# ----------------------------------------------------------------------
def test_parse_topology_round_trip_and_coercion():
    # parse() splits the text; resolve() types it through the declared table.
    name, params = TOPOLOGIES.parse("spine_leaf:spines=4,spine_policy=least-loaded")
    assert name == "spine_leaf"
    assert params == {"spines": "4", "spine_policy": "least-loaded"}
    assert TOPOLOGIES.parse("clos") == ("spine_leaf", {})
    assert format_plugin_params(name, params) == (
        "spine_leaf:spine_policy=least-loaded,spines=4"
    )
    assert TOPOLOGIES.resolve("spine_leaf:trunk_bandwidth_bps=2.5e9")[1] == {
        "racks": 2,
        "spines": 2,
        "spine_policy": "ecmp",
        "trunk_bandwidth_bps": 2.5e9,
    }
    with pytest.raises(ExperimentError, match="key=value"):
        TOPOLOGIES.parse("spine_leaf:spines")
    with pytest.raises(ExperimentError):
        TOPOLOGIES.parse("moebius:spines=4")


def test_config_merges_inline_params_inline_wins():
    config = ClusterConfig(
        topology="spine_leaf:spines=4,spine_policy=flowlet",
        topology_params={"spines": 2, "racks": 3},
    )
    assert config.topology == "spine_leaf"
    assert config.topology_params == {
        "racks": 3,
        "spines": 4,
        "spine_policy": "flowlet",
        "trunk_bandwidth_bps": TRUNK_BANDWIDTH_BPS,
    }


def test_cluster_builds_policy_from_inline_params():
    cluster = Cluster(
        tiny_config(topology="spine_leaf:racks=2,spines=2,spine_policy=least-loaded")
    )
    assert type(cluster.topology.policy) is LeastLoadedSpinePolicy
    assert len(cluster.topology.spines) == 2


def test_cli_rejects_malformed_topology_params(capsys):
    from repro.cli import main

    assert main(["fig17", "--topology", "spine_leaf:spines"]) == 2
    assert "key=value" in capsys.readouterr().out


def test_typoed_topology_param_raises_instead_of_silently_defaulting():
    with pytest.raises(ExperimentError, match="unknown spine_leaf topology parameter"):
        run_point(tiny_config(topology="spine_leaf:spine=4"))
    with pytest.raises(ExperimentError, match="trunk_bandwidth_bps"):
        run_point(tiny_config(topology="spine_leaf:trunk_bandwidth_gbps=0.5"))
    with pytest.raises(ExperimentError, match="unknown star topology parameter"):
        run_point(tiny_config(topology="star:racks=2"))
    with pytest.raises(ExperimentError, match="spines='two' is not an int"):
        run_point(tiny_config(topology="spine_leaf:spines=two"))
    with pytest.raises(ExperimentError, match="key=value"):
        TOPOLOGIES.parse("spine_leaf:spines=")


def test_plugin_spine_policy_reachable_from_topology_params():
    from repro.experiments.executor import SweepExecutor
    from repro.net.topology import SpinePolicy

    class _AlwaysLast(SpinePolicy):
        def select(self, tor, packet):
            return self.fabric.active_spines()[-1]

    @SPINE_POLICIES.register
    def _always_last():
        return SpinePolicySpec(
            name="always-last",
            description="every packet to the last active spine",
            make_policy=_AlwaysLast,
        )

    try:
        with pytest.raises(ExperimentError, match="already registered"):
            SPINE_POLICIES.register(_always_last)
        point = run_point(
            tiny_config(topology="spine_leaf:racks=2,spines=2,spine_policy=always-last")
        )
        assert point.samples > 0
        # The registering module ships to sweep workers, like the
        # scheme/topology registries.
        assert __name__ in SPINE_POLICIES.registered_modules()
        assert __name__ in SweepExecutor._registered_plugin_modules()
    finally:
        SPINE_POLICIES.unregister("always-last")
    # Unregistered, its module no longer ships: a worker importing it
    # would register the policy again.
    assert __name__ not in SPINE_POLICIES.registered_modules()
    assert __name__ not in SweepExecutor._registered_plugin_modules()
    with pytest.raises(ExperimentError):
        SPINE_POLICIES.unregister("always-last")


def test_telemetry_trunk_keys_count_bytes_and_utilization():
    cluster = Cluster(tiny_config(topology="spine_leaf:racks=2,spines=1"))
    fabric = cluster.topology
    trunk = fabric.uplinks[1][0]
    # Two probes up one trunk to an address the spine has no route for:
    # the trunk clocks them out and the spine drops them.
    unrouted = 1 << 30
    trunk.send(probe(unrouted), fabric.tors[1])
    trunk.send(probe(unrouted), fabric.tors[1])
    cluster.sim.run(until=ms(1))
    telemetry = cluster.telemetry()
    assert trunk.tx_count == 2
    assert telemetry["trunk_tx_bytes"] == 128
    assert telemetry["trunk_drops"] == 0
    utilization = 128 * 8 / (trunk.bandwidth_bps * 1e-3)
    assert telemetry["trunk_util_max"] == pytest.approx(utilization)
    assert telemetry["trunk_util_mean"] == pytest.approx(
        utilization / len(fabric.trunks)
    )


# ----------------------------------------------------------------------
# Dynamic ECMP == pre-PR static routes
# ----------------------------------------------------------------------
class _StaticEcmpSpineLeaf(SpineLeafFabric):
    """The pre-PR fabric: spine pinned by ip at announce time."""

    def _announce(self, host, rack):
        spine = host.ip % len(self.spines)
        for s in self.spines:
            s.install_route(host.ip, rack)
        for t, tor in enumerate(self.tors):
            if t != rack:
                tor.install_route(host.ip, self._uplink_port[t][spine])


def test_dynamic_ecmp_matches_pre_pr_static_routing_bitwise():
    TOPOLOGIES.register(
        TopologySpec(
            name="static-ecmp-spine-leaf",
            description="pre-PR static ECMP replica (test only)",
            make_fabric=lambda ctx: _StaticEcmpSpineLeaf(
                ctx.sim,
                ctx.make_switch,
                racks=ctx.params["racks"],
                spines=ctx.params["spines"],
            ),
            params=TOPOLOGIES.get("spine_leaf").params,
        )
    )
    try:
        params = {"racks": 2, "spines": 2}
        dynamic = run_point(
            tiny_config(topology="spine_leaf", topology_params=params)
        )
        static = run_point(
            tiny_config(topology="static-ecmp-spine-leaf", topology_params=params)
        )
        assert_points_identical(dynamic, static)
    finally:
        TOPOLOGIES.unregister("static-ecmp-spine-leaf")


# ----------------------------------------------------------------------
# Failure drills on a live cluster
# ----------------------------------------------------------------------
def spine_ingress_bytes(fabric, spine):
    """Bytes sent *toward* one spine across every ToR uplink."""
    return sum(
        fabric.uplinks[t][spine].bytes_from(fabric.tors[t])
        for t in range(fabric.num_racks)
    )


def test_hitless_withdraw_reroutes_without_losing_requests():
    config = tiny_config(
        topology="spine_leaf", topology_params={"racks": 2, "spines": 2}
    )
    cluster = Cluster(config)
    fabric = cluster.topology
    pinned_loads = {}

    def snapshot(key):
        pinned_loads[key] = spine_ingress_bytes(fabric, 0)

    # Restore well before the clients stop (end of measure window) so
    # live traffic exercises the restored routes.
    t_withdraw, t_restore = ms(2), ms(3)
    cluster.sim.call_at(t_withdraw, fabric.withdraw_spine, 0)
    cluster.sim.call_at(t_withdraw + 1, snapshot, "after_withdraw")
    cluster.sim.call_at(t_restore, snapshot, "before_restore")
    cluster.sim.call_at(t_restore, fabric.restore_spine, 0)
    cluster.start()
    cluster.run()
    point = cluster.load_point()

    # Traffic re-routed: not one byte entered spine 0 while withdrawn.
    assert pinned_loads["after_withdraw"] == pinned_loads["before_restore"]
    # Recovery: the restored spine carries traffic again.
    assert spine_ingress_bytes(fabric, 0) > pinned_loads["before_restore"]
    # Hitless: nothing anywhere dropped a packet, no request went dark.
    for star in fabric.stars:
        assert all(link.drop_count == 0 for link in star.links)
    assert all(trunk.drop_count == 0 for trunk in fabric.trunks)
    for switch in fabric.switches:
        assert switch.counters.get("no_route") == 0
        assert switch.counters.get("rx_dropped_down") == 0
    assert point.extra["redundant_responses"] == 0
    assert point.samples > 0


def test_failed_spine_drill_drops_only_the_window_and_recovers():
    def long_trunk_cluster():
        # A long trunk keeps packets in flight when the spine powers
        # off, so the drill has a real (bounded) drop window to measure.
        cluster = Cluster(
            tiny_config(
                topology="spine_leaf", topology_params={"racks": 2, "spines": 2}
            )
        )
        for trunk in cluster.topology.trunks:
            trunk.propagation_ns = us(50)
        return cluster

    reference = long_trunk_cluster()
    reference.start()
    reference.run()
    baseline = reference.load_point()

    cluster = long_trunk_cluster()
    fabric = cluster.topology
    cluster.sim.call_at(ms(2), fabric.withdraw_spine, 0, True)
    cluster.sim.call_at(ms(3), fabric.restore_spine, 0, us(100))
    cluster.start()
    cluster.run()
    point = cluster.load_point()

    failed = fabric.spines[0]
    # The drop window existed (in-flight packets died at the dark spine)
    # but stayed a window: cloning masks single-copy losses, so nearly
    # every request still completed and none were double-delivered.
    assert failed.counters.get("rx_dropped_down") > 0
    assert point.extra["redundant_responses"] == 0
    assert point.samples >= 0.95 * baseline.samples
    # Counters stay fabric-consistent on every spine: what came in
    # either went out, died with the power, or had no route.
    for spine in fabric.spines:
        rx = spine.counters.get("rx")
        accounted = (
            spine.counters.get("tx")
            + spine.counters.get("dropped_down")
            + spine.counters.get("no_route")
        )
        assert rx == accounted
    # Recovery: the failed spine forwards again after restore.
    assert failed.counters.get("recoveries") == 1


# ----------------------------------------------------------------------
# fig18 determinism
# ----------------------------------------------------------------------
@pytest.mark.slow
def test_fig18_grid_parallel_matches_serial():
    from repro.experiments import fig18_trunk_saturation as fig18

    serial = fig18.collect(scale=0.05, seed=3, jobs=1)
    parallel = fig18.collect(scale=0.05, seed=3, jobs=4)
    assert serial.keys() == parallel.keys()
    for key in serial:
        cells_a, cells_b = serial[key], parallel[key]
        assert [gbps for gbps, _ in cells_a] == [gbps for gbps, _ in cells_b]
        for (_, a), (_, b) in zip(cells_a, cells_b):
            assert_points_identical(a, b)


def test_fig18_rejects_trunkless_topologies():
    from repro.experiments import fig18_trunk_saturation as fig18

    with pytest.raises(ExperimentError, match="spine_leaf"):
        fig18.collect(topology="star")


def test_fig18_pinned_policy_and_bandwidth_shape_the_grid():
    from repro.experiments.fig18_trunk_saturation import TRUNK_GBPS, _policies

    # Pinned ecmp runs only ecmp; a congestion-aware pin races ecmp.
    assert _policies(None) == ("ecmp", "least-loaded", "flowlet")
    assert _policies("ecmp") == ("ecmp",)
    assert _policies("flowlet") == ("ecmp", "flowlet")
    assert len(TRUNK_GBPS) == 4


def test_fractional_int_param_raises_instead_of_truncating():
    with pytest.raises(ExperimentError, match="racks=2.5"):
        run_point(tiny_config(topology="spine_leaf:racks=2.5"))


def test_typoed_spine_policy_raises_experiment_error_with_choices():
    with pytest.raises(ExperimentError, match="least-loaded"):
        run_point(tiny_config(topology="spine_leaf:spine_policy=least-loded"))


def test_refailed_switch_stays_down_through_stale_recovery():
    # fail -> recover(delay) -> fail again before the delay elapses:
    # the pending recovery callback must not power the switch back on.
    sim = Simulator()
    switch = ProgrammableSwitch(sim, name="spine")
    switch.fail()
    switch.recover(reinit_delay_ns=us(10))
    switch.fail()
    sim.run(until=us(50))
    assert switch.down
    assert switch.counters.get("recoveries") == 0
    switch.recover()
    assert not switch.down
