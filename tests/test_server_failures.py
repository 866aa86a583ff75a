"""Tests for §3.6 server-failure handling via the control plane.

Covers the single-rack flow (golden-pinned against values recorded
from the seed's count-only rebuild), the placement-aware multi-ToR
flow (per-rack tables re-derived from the cluster's policy on removal
and restoration), the epoch-stamped table push to clients, the
fabric-wide (not per-rack) minimum-pair guard, and the client-shape
validation that replaced the seed's silent ``hasattr`` skip.
"""

import pytest

from repro.core.failures import ServerFailureHandler
from repro.core.groups import ordered_pairs
from repro.core.placement import GlobalPlacement, GroupTable, PlacementContext
from repro.errors import ExperimentError
from repro.experiments.common import Cluster, ClusterConfig
from repro.sim.units import ms
from repro.switchsim import ControlPlane


def build(num_servers=4, rate=0.3e6, **overrides):
    config = ClusterConfig(
        scheme="netclone",
        num_servers=num_servers,
        rate_rps=rate,
        warmup_ns=0,
        measure_ns=ms(30),
        drain_ns=ms(5),
        seed=6,
        **overrides,
    )
    cluster = Cluster(config)
    return cluster, cluster.failure_handler(op_latency_ns=ms(1))


def build_spine(num_servers=8, racks=4, placement="rack-local", rate=0.05e6, seed=3):
    config = ClusterConfig(
        scheme="netclone",
        topology="spine_leaf",
        topology_params={"racks": racks, "spines": 2},
        placement=placement,
        num_servers=num_servers,
        num_clients=4,
        rate_rps=rate,
        warmup_ns=0,
        measure_ns=ms(30),
        drain_ns=ms(5),
        seed=seed,
    )
    cluster = Cluster(config)
    return cluster, cluster.failure_handler(op_latency_ns=ms(1))


def test_removal_rebuilds_tables_and_groups():
    cluster, handler = build(num_servers=4)
    program = cluster.program
    assert program.num_groups == 12  # 4*3
    handler.remove_server(2)
    cluster.sim.run(until=ms(2))
    assert program.num_groups == 6  # 3*2 survivors
    assert handler.active_server_ids == [0, 1, 3]
    # Every group now maps to surviving IDs only.
    for pair in program.grp_table.entries().values():
        assert 2 not in pair
    # Clients learned the new group count.
    for client in cluster.clients:
        assert client.num_groups == 6
    # The dead server's address is gone.
    assert 2 not in program.addr_table


def test_traffic_continues_after_removal():
    cluster, handler = build(num_servers=4)
    dead = cluster.servers[1]
    # Kill the server brutally: its uplink swallows everything.
    cluster.sim.at(ms(5), lambda: setattr(cluster.topology.link_of(dead), "down", True))
    cluster.sim.at(ms(5), handler.remove_server, 1)
    cluster.start()
    cluster.run()
    point = cluster.load_point()
    # Some requests were lost in the window between failure and the
    # control-plane update, but the system kept serving afterwards.
    sent = cluster.recorder.sent_in_window
    assert point.samples > 0.9 * sent * (ms(30) - ms(6)) / ms(30)
    # The dead server stopped receiving after the update applied.
    accepted_before = dead.counters.get("requests_accepted")
    assert accepted_before < sent


def test_cannot_remove_unknown_or_below_pair():
    cluster, handler = build(num_servers=3)
    with pytest.raises(ExperimentError):
        handler.remove_server(9)
    handler.remove_server(0)
    cluster.sim.run(until=ms(2))
    with pytest.raises(ExperimentError):
        handler.remove_server(1)  # would leave a single server


def test_removal_applies_after_control_plane_latency():
    cluster, handler = build(num_servers=4)
    apply_at = handler.remove_server(3)
    assert apply_at >= ms(1)  # the slow path is really slow
    # Before the op lands the data plane still has the old tables.
    assert cluster.program.num_groups == 12
    cluster.sim.run(until=apply_at + 1)
    assert cluster.program.num_groups == 6


# ----------------------------------------------------------------------
# Golden: the explicit-global rebuild is bit-identical to the seed's
# ----------------------------------------------------------------------
# Recorded from the seed's rebuild (global pair table over the
# survivors, count-only client update) on the run below: server 1 dies
# at 5 ms and the control plane removes it 1 ms later.
SEED_REBUILD_POINT = dict(
    offered_rps=300200.0,
    throughput_rps=299966.6666666667,
    p50_us=21.509,
    p99_us=115.427,
    p999_us=174.669,
    mean_us=29.21140139906729,
    samples=9006,
)
SEED_REBUILD_EXTRA = {
    "redundant_responses": 0.0,
    "clones_dropped": 1.0,
    "empty_queue_fraction": 0.9999560632688929,
    "state_samples_zero": 17854.0,
    "state_samples_total": 17855.0,
    "nc_cloned": 9006.0,
    "nc_filtered": 8844.0,
    "nc_fingerprint_overwrite": 0.0,
    "trunk_util_max": 0.0,
    "trunk_util_mean": 0.0,
    "trunk_tx_bytes": 0.0,
    "trunk_drops": 0.0,
}
SEED_REBUILD_GRP = {0: (0, 2), 1: (0, 3), 2: (2, 0), 3: (2, 3), 4: (3, 0), 5: (3, 2)}
SEED_REBUILD_ADDR = {0: 167772517, 2: 167772519, 3: 167772520}


def test_explicit_global_failure_rebuild_matches_seed_replica():
    config = ClusterConfig(
        scheme="netclone",
        placement="global",
        num_servers=4,
        rate_rps=0.3e6,
        warmup_ns=0,
        measure_ns=ms(30),
        drain_ns=ms(5),
        seed=6,
    )
    cluster = Cluster(config)
    handler = cluster.failure_handler(op_latency_ns=ms(1))
    dead = cluster.servers[1]
    cluster.sim.at(ms(5), lambda: setattr(cluster.topology.link_of(dead), "down", True))
    cluster.sim.at(ms(5), handler.remove_server, 1)
    cluster.start()
    cluster.run()
    point = cluster.load_point()
    for name, value in SEED_REBUILD_POINT.items():
        assert getattr(point, name) == value, name
    assert point.extra == SEED_REBUILD_EXTRA
    # Same rebuilt data plane, entry for entry.
    assert cluster.program.grp_table.entries() == SEED_REBUILD_GRP
    assert cluster.program.addr_table.entries() == SEED_REBUILD_ADDR


# ----------------------------------------------------------------------
# restore_server: the symmetric recovery operation
# ----------------------------------------------------------------------
def test_restore_server_round_trips_tables_and_addresses():
    cluster, handler = build(num_servers=4)
    original_pairs = dict(cluster.program.grp_table.entries())
    handler.remove_server(2)
    cluster.sim.run(until=ms(2))
    assert handler.removed_server_ids == [2]
    restore_at = handler.restore_server(2)
    assert restore_at > ms(2)  # the control plane is still slow
    cluster.sim.run(until=restore_at + 1)
    assert handler.active_server_ids == [0, 1, 2, 3]
    assert handler.removed_server_ids == []
    assert 2 in cluster.program.addr_table
    assert cluster.program.grp_table.entries() == original_pairs
    assert cluster.program.num_groups == 12
    for client in cluster.clients:
        assert client.num_groups == 12


def test_restore_rejects_unknown_and_still_active_servers():
    cluster, handler = build(num_servers=4)
    with pytest.raises(ExperimentError, match="already in rotation"):
        handler.restore_server(1)
    with pytest.raises(ExperimentError, match="never removed"):
        handler.restore_server(9)


def test_traffic_returns_to_restored_server():
    cluster, handler = build(num_servers=4)
    victim = cluster.servers[2]
    fabric = cluster.topology
    cluster.sim.at(ms(5), fabric.fail_host, victim)
    cluster.sim.at(ms(5), handler.remove_server, 2)
    cluster.sim.at(ms(15), fabric.restore_host, victim)
    cluster.sim.at(ms(15), handler.restore_server, 2)
    accepted_mid = {}
    cluster.sim.at(ms(17), lambda: accepted_mid.update(
        at_restore=victim.counters.get("requests_accepted")
    ))
    cluster.start()
    cluster.run()
    # The victim served again after restoration.
    assert victim.counters.get("requests_accepted") > accepted_mid["at_restore"]


# ----------------------------------------------------------------------
# Placement-aware multi-ToR flow
# ----------------------------------------------------------------------
def test_removal_updates_every_tor_not_just_the_primary():
    cluster, handler = build_spine(num_servers=8, racks=4)
    handler.remove_server(1)  # rack 1's first server
    cluster.sim.run(until=ms(2))
    for program in cluster.programs:
        assert 1 not in program.addr_table
        for pair in program.grp_table.entries().values():
            assert 1 not in pair
    restore_at = handler.restore_server(1)
    cluster.sim.run(until=restore_at + 1)
    for program in cluster.programs:
        assert 1 in program.addr_table


def test_rack_below_two_live_servers_is_legal_fabric_below_two_is_not():
    # racks=2, 4 servers round-robin: rack 0 holds {0, 2}, rack 1 {1, 3}.
    cluster, handler = build_spine(num_servers=4, racks=2)
    handler.remove_server(0)
    cluster.sim.run(until=ms(2))
    # Rack 0 now has a single live server: legal, its ToR fell back to
    # the global pair set over the survivors.
    assert list(cluster.programs[0].grp_table.entries().values()) == ordered_pairs(
        [1, 2, 3]
    )
    # Rack 1 still has its two live members: it stays rack-local.
    assert list(cluster.programs[1].grp_table.entries().values()) == ordered_pairs(
        [1, 3]
    )
    handler.remove_server(2)
    cluster.sim.run(until=ms(4))
    # Rack 0 is now empty — still legal; the fabric keeps a pair.
    assert handler.active_server_ids == [1, 3]
    with pytest.raises(ExperimentError, match="fabric-wide"):
        handler.remove_server(1)


def _handler(cluster, clients, context):
    """A handler over a single-rack cluster with explicit arguments."""
    return ServerFailureHandler(
        ControlPlane(cluster.sim, op_latency_ns=ms(1)),
        clients=clients,
        programs=cluster.programs,
        placement=GlobalPlacement(),
        context=context,
        client_racks=[0] * len(clients),
    )


def test_guard_counts_live_servers_not_address_entries():
    # A context whose live mask already marks a server dead: the guard
    # must fail at schedule time, not crash inside the deferred rebuild.
    cluster, _ = build(num_servers=3)
    context = PlacementContext(server_racks=(0, 0, 0), num_racks=1).mark_dead(2)
    handler = _handler(cluster, clients=cluster.clients, context=context)
    with pytest.raises(ExperimentError, match="fabric-wide"):
        handler.remove_server(0)  # only server 1 would stay live


def test_rebuild_stamps_a_fresh_epoch_everywhere():
    cluster, handler = build_spine(num_servers=8, racks=4)
    assert all(program.table_epoch == 0 for program in cluster.programs)
    assert all(client.group_table.epoch == 0 for client in cluster.clients)
    handler.remove_server(0)
    cluster.sim.run(until=ms(2))
    assert handler.epoch == 1
    assert all(program.table_epoch == 1 for program in cluster.programs)
    assert all(client.group_table.epoch == 1 for client in cluster.clients)
    assert [table.epoch for table in handler.tables] == [1, 1, 1, 1]
    restore_at = handler.restore_server(0)
    cluster.sim.run(until=restore_at + 1)
    assert handler.epoch == 2
    assert all(program.table_epoch == 2 for program in cluster.programs)
    assert all(client.group_table.epoch == 2 for client in cluster.clients)


def test_clients_get_their_own_racks_table_after_a_rebuild():
    cluster, handler = build_spine(num_servers=8, racks=4)
    handler.remove_server(0)
    cluster.sim.run(until=ms(2))
    for client, rack in zip(cluster.clients, cluster.client_racks):
        assert client.group_table is handler.tables[rack]
        assert client.num_groups == handler.tables[rack].num_groups


# ----------------------------------------------------------------------
# Client-shape validation (the seed silently skipped unknown shapes)
# ----------------------------------------------------------------------
def test_unknown_client_shapes_are_rejected_at_construction():
    cluster, _ = build(num_servers=3)
    context = PlacementContext(server_racks=(0, 0, 0), num_racks=1)
    with pytest.raises(ExperimentError, match="install_group_table"):
        _handler(cluster, clients=[object()], context=context)


# ----------------------------------------------------------------------
# Client table swaps
# ----------------------------------------------------------------------
class _ScriptedRng:
    """Replays scripted random()/randrange() values."""

    def __init__(self, randoms=(), randranges=()):
        self.randoms = list(randoms)
        self.randranges = list(randranges)

    def random(self):
        return self.randoms.pop(0)

    def randrange(self, n):
        return self.randranges.pop(0)


def _scripted_client(table, rng):
    """A cluster-built NetClone client re-armed with a scripted RNG."""
    from helpers import tiny_config

    cluster = Cluster(tiny_config())
    client = cluster.clients[0]
    client.install_group_table(table)
    client.rng = rng
    return client


def test_install_group_table_swaps_table_count_and_epoch_atomically():
    old = GroupTable(pairs=((0, 1), (1, 0)), split=2)
    client = _scripted_client(old, _ScriptedRng(randoms=[0.3], randranges=[0]))
    new = GroupTable(
        pairs=((2, 3), (3, 2), (2, 4), (4, 2)), split=2, p_local=0.5, epoch=1
    )
    client.install_group_table(new)
    assert client.group_table is new
    assert client.num_groups == 4
    assert client._pick_group() == 0  # sampled from the *new* table
    with pytest.raises(ExperimentError, match="GroupTable"):
        client.install_group_table([(0, 1)])
