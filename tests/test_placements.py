"""The placement layer: policies, registry, per-ToR tables, fig19.

Covers the placement axis end to end:

* policy units — rack-local pairs never cross racks, the <2-live-server
  fallback engages, the weighted knob interpolates, and sampling is
  section-correct;
* registry plumbing — aliases, inline params, and diagnosable errors
  for typos (a bad name or knob must never silently run ``global``);
* cluster integration — per-ToR group tables, clients drawing from
  their local ToR's table, and rack-local placement zeroing trunk
  traffic on spine-leaf at equal load;
* seed bit-identity — explicit ``placement="global"`` reproduces the
  pre-PR golden values on every golden topology;
* fig19 — grid shape and jobs=1 vs jobs=4 determinism.
"""

import pytest
from helpers import assert_points_identical, tiny_config
from test_fabric_invariants import GOLDEN_CONFIGS, GOLDEN_CORE, GOLDEN_EXTRA

from repro.core.placement import (
    GlobalPlacement,
    GroupTable,
    PlacementContext,
    RackLocalPlacement,
    RackWeightedPlacement,
)
from repro.errors import ExperimentError
from repro.experiments.common import Cluster, ClusterConfig, run_point
from repro.experiments.placements import PLACEMENTS, PlacementSpec


# ----------------------------------------------------------------------
# Policy units
# ----------------------------------------------------------------------
#: (server_racks, num_racks) grids the invariants sweep.
CONTEXTS = [
    ((0, 0, 0), 1),
    ((0, 1, 0, 1), 2),
    ((0, 1, 2, 0, 1, 2), 3),
    ((0, 1, 2, 3, 0, 1, 2, 3), 4),
    ((0, 0, 0, 1), 2),  # lopsided: rack 1 has a single server
]


@pytest.mark.parametrize("server_racks,num_racks", CONTEXTS)
def test_rack_local_pairs_never_cross_racks(server_racks, num_racks):
    ctx = PlacementContext(server_racks=server_racks, num_racks=num_racks)
    policy = RackLocalPlacement()
    for rack in range(num_racks):
        table = policy.group_table(ctx, rack)
        members = ctx.rack_members(rack)
        if len(members) < 2:
            continue  # fallback case, asserted separately below
        for first, second in table.pairs:
            assert server_racks[first] == rack
            assert server_racks[second] == rack
            assert first != second


def test_rack_local_falls_back_to_global_when_rack_is_too_small():
    ctx = PlacementContext(server_racks=(0, 0, 0, 1), num_racks=2)
    local = RackLocalPlacement().group_table(ctx, 1)
    assert local.pairs == GlobalPlacement().group_table(ctx, 0).pairs
    assert local.is_uniform


def test_fallback_respects_liveness_not_just_placement():
    # Rack 1 has two servers but only one alive: still the fallback.
    ctx = PlacementContext(
        server_racks=(0, 0, 1, 1), num_racks=2, live=(True, True, True, False)
    )
    table = RackLocalPlacement().group_table(ctx, 1)
    assert table.pairs == tuple(
        (a, b) for a in (0, 1, 2) for b in (0, 1, 2) if a != b
    )


def test_global_placement_matches_seed_construction():
    from repro.core.groups import ordered_pairs

    ctx = PlacementContext(server_racks=(0, 1, 0, 1), num_racks=2)
    for rack in range(2):
        table = GlobalPlacement().group_table(ctx, rack)
        assert list(table.pairs) == ordered_pairs(range(4))
        assert table.is_uniform


def test_rack_weighted_extremes_collapse_to_the_pure_policies():
    ctx = PlacementContext(server_racks=(0, 1, 0, 1), num_racks=2)
    p0 = RackWeightedPlacement(p=0.0).group_table(ctx, 0)
    assert p0.pairs == GlobalPlacement().group_table(ctx, 0).pairs
    p1 = RackWeightedPlacement(p=1.0).group_table(ctx, 0)
    assert p1.pairs == RackLocalPlacement().group_table(ctx, 0).pairs
    mid = RackWeightedPlacement(p=0.5).group_table(ctx, 0)
    # Local section first, then the full global set.
    assert mid.split == 2
    assert mid.pairs[: mid.split] == ((0, 2), (2, 0))
    assert mid.pairs[mid.split :] == GlobalPlacement().group_table(ctx, 0).pairs
    assert not mid.is_uniform


class _ScriptedRng:
    """Replays scripted random()/randrange() values and counts calls."""

    def __init__(self, randoms=(), randranges=()):
        self.randoms = list(randoms)
        self.randranges = list(randranges)
        self.randrange_args = []

    def random(self):
        return self.randoms.pop(0)

    def randrange(self, n):
        self.randrange_args.append(n)
        return self.randranges.pop(0)


def test_uniform_tables_spend_exactly_one_randrange():
    table = GroupTable(pairs=((0, 1), (1, 0)), split=2)
    rng = _ScriptedRng(randranges=[1])
    assert table.sample(rng) == 1
    assert rng.randrange_args == [2]  # and no random() call was made


def test_sectioned_tables_mix_between_sections():
    table = GroupTable(pairs=((0, 1), (1, 0), (0, 2), (2, 0)), split=2, p_local=0.5)
    local = table.sample(_ScriptedRng(randoms=[0.4], randranges=[1]))
    assert local == 1  # below p: drawn from the local section
    rest = table.sample(_ScriptedRng(randoms=[0.9], randranges=[1]))
    assert rest == 3  # above p: offset into the fallback section


def test_group_table_validation():
    with pytest.raises(ExperimentError):
        GroupTable(pairs=((0, 1),), split=1)  # one group is not a pair space
    with pytest.raises(ExperimentError):
        GroupTable(pairs=((0, 1), (1, 0)), split=3)
    with pytest.raises(ExperimentError):
        GroupTable(pairs=((0, 1), (1, 0)), split=2, p_local=1.5)
    with pytest.raises(ExperimentError):
        RackWeightedPlacement(p=-0.1)


# ----------------------------------------------------------------------
# Registry plumbing and diagnosable errors
# ----------------------------------------------------------------------
def test_builtin_placements_registered():
    assert ("global", "rack-local", "rack-weighted") == PLACEMENTS.names()[:3]
    assert PLACEMENTS.get("uniform").name == "global"
    assert PLACEMENTS.get("local").name == "rack-local"
    assert any("rack-local" in line for line in PLACEMENTS.describe())


def test_parse_and_canonical_placement():
    assert PLACEMENTS.parse("rack-weighted:p=0.7") == ("rack-weighted", {"p": 0.7})
    assert PLACEMENTS.canonical("weighted:p=0.7") == "rack-weighted:p=0.7"
    assert PLACEMENTS.canonical("local") == "rack-local"
    with pytest.raises(ExperimentError, match="malformed placement parameter"):
        PLACEMENTS.parse("rack-weighted:p")


def test_typoed_names_and_params_raise_instead_of_running_global():
    with pytest.raises(ExperimentError, match="unknown placement"):
        ClusterConfig(placement="rack-locall")
    with pytest.raises(ExperimentError, match="unknown rack-weighted placement"):
        ClusterConfig(placement="rack-weighted:prob=0.7")
    with pytest.raises(ExperimentError, match="must be a probability"):
        ClusterConfig(placement="rack-weighted:p=2")
    with pytest.raises(ExperimentError, match="unknown global placement"):
        PLACEMENTS.get("global").make_policy({"p": 0.5})


def test_config_normalises_placement_and_merges_inline_params():
    config = tiny_config(placement="weighted:p=0.25")
    assert config.placement == "rack-weighted"
    assert config.placement_params == {"p": 0.25}
    assert tiny_config().placement == "global"


def test_placement_registry_is_open():
    spec = PlacementSpec(
        name="test-everything-rack0",
        description="test-only",
        make_policy=lambda params: RackLocalPlacement(),
    )
    PLACEMENTS.register(spec)
    try:
        assert PLACEMENTS.get("test-everything-rack0") is spec
        with pytest.raises(ExperimentError, match="already registered"):
            PLACEMENTS.register(spec)
    finally:
        PLACEMENTS.unregister("test-everything-rack0")


def test_cli_lists_every_builtin_placement_and_alias(capsys):
    from repro.cli import main

    assert main(["placements"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "registered placements:"
    for name, alias in (
        ("global", "uniform"),
        ("rack-local", "local"),
        ("rack-weighted", "weighted"),
    ):
        assert any(
            line.startswith(f"  {name} (aka {alias}) — ") for line in lines
        ), name


def test_sweep_workers_reimport_placement_plugin_modules():
    from repro.experiments.executor import SweepExecutor

    assert "repro.experiments.placements" in SweepExecutor._registered_plugin_modules()


# ----------------------------------------------------------------------
# Cluster integration
# ----------------------------------------------------------------------
def spine_leaf_config(placement, racks=2, **overrides):
    return tiny_config(
        placement=placement,
        topology="spine_leaf",
        topology_params={"racks": racks, "spines": 2},
        num_servers=4,
        **overrides,
    )


def test_cluster_installs_per_tor_rack_local_tables():
    cluster = Cluster(spine_leaf_config("rack-local"))
    assert len(cluster.group_tables) == 2
    racks = cluster.topology.racks_of("server", 4)
    for rack, (table, program) in enumerate(
        zip(cluster.group_tables, cluster.programs)
    ):
        assert program.num_groups == table.num_groups == 2
        for first, second in table.pairs:
            assert racks[first] == racks[second] == rack
        # The switch's installed table is the placement-built one.
        assert program.grp_table.entries() == dict(enumerate(table.pairs))


def test_clients_draw_from_their_local_tors_table():
    cluster = Cluster(spine_leaf_config("rack-local", num_clients=2))
    client_racks = cluster.topology.racks_of("client", 2)
    for client, rack in zip(cluster.clients, client_racks):
        assert client.group_table is cluster.group_tables[rack]
        assert client.num_groups == cluster.group_tables[rack].num_groups


def test_rack_local_zeroes_trunk_bytes_at_equal_load():
    # The fig19 acceptance shape, pinned as a fast invariant: same
    # config, same seed, same offered load — only the placement moves.
    global_point = run_point(spine_leaf_config("global"))
    local_point = run_point(spine_leaf_config("rack-local"))
    weighted_point = run_point(spine_leaf_config("rack-weighted:p=0.5"))
    assert global_point.extra["trunk_tx_bytes"] > 0
    assert local_point.extra["trunk_tx_bytes"] == 0.0
    assert (
        local_point.extra["trunk_tx_bytes"]
        < weighted_point.extra["trunk_tx_bytes"]
        < global_point.extra["trunk_tx_bytes"]
    )
    # Locality costs nothing in completed work.
    assert local_point.samples >= 0.95 * global_point.samples


def test_rack_local_on_one_rack_matches_global_bitwise():
    # With a single rack, "the client's rack" is the whole cluster:
    # the policies must be indistinguishable, RNG stream included.
    star_global = run_point(tiny_config(placement="global"))
    star_local = run_point(tiny_config(placement="rack-local"))
    assert_points_identical(star_global, star_local)


# ----------------------------------------------------------------------
# Failure-aware placement: rebuilds stay placement-consistent
# ----------------------------------------------------------------------
def _failure_cluster(num_servers, racks=4, placement="rack-local", seed=3):
    from repro.sim.units import ms

    config = tiny_config(
        placement=placement,
        topology="spine_leaf",
        topology_params={"racks": racks, "spines": 2},
        num_servers=num_servers,
        num_clients=4,
        seed=seed,
    )
    cluster = Cluster(config)
    return cluster, cluster.failure_handler()


def test_rack_local_never_crosses_racks_after_a_failure():
    from repro.sim.units import ms

    # Three servers per rack: one death leaves every rack pair-capable.
    cluster, handler = _failure_cluster(num_servers=12)
    handler.remove_server(0)
    cluster.sim.run(until=ms(2))
    racks = cluster.server_racks
    for rack, program in enumerate(cluster.programs):
        pairs = program.grp_table.entries().values()
        assert pairs  # the rack kept >= 2 live servers
        for first, second in pairs:
            assert racks[first] == racks[second] == rack
            assert 0 not in (first, second)


def test_fallback_rack_returns_to_local_after_restore():
    from repro.sim.units import ms

    # Two servers per rack: killing one drops rack 0 below a pair.
    cluster, handler = _failure_cluster(num_servers=8)
    local_pairs = dict(cluster.programs[0].grp_table.entries())
    handler.remove_server(0)
    cluster.sim.run(until=ms(2))
    # Rack 0 fell back to the global pair set over the survivors...
    fallback = list(cluster.programs[0].grp_table.entries().values())
    racks = cluster.server_racks
    assert any(racks[a] != racks[b] for a, b in fallback)
    assert all(0 not in pair for pair in fallback)
    # ...while every pair-capable rack stayed rack-local.
    for rack in (1, 2, 3):
        for first, second in cluster.programs[rack].grp_table.entries().values():
            assert racks[first] == racks[second] == rack
    restore_at = handler.restore_server(0)
    cluster.sim.run(until=restore_at + 1)
    # Recovery returns rack 0 to its assembly-time rack-local pairs.
    assert cluster.programs[0].grp_table.entries() == local_pairs


def test_rack_local_keeps_trunks_silent_across_kill_and_restore():
    # The fig16(b)/acceptance shape pinned as a fast invariant: with
    # every rack keeping >= 2 live servers, a kill -> rebuild ->
    # restore cycle under rack-local placement never touches a trunk.
    from repro.sim.units import ms

    cluster, handler = _failure_cluster(num_servers=12)
    fabric = cluster.topology
    victim = cluster.servers[0]
    cluster.sim.call_at(ms(1), fabric.fail_host, victim)
    cluster.sim.call_at(ms(1), handler.remove_server, 0)
    cluster.sim.call_at(ms(3), fabric.restore_host, victim)
    cluster.sim.call_at(ms(3), handler.restore_server, 0)
    cluster.start()
    cluster.run()
    point = cluster.load_point()
    assert point.extra["trunk_tx_bytes"] == 0.0
    assert point.samples > 0
    assert handler.epoch == 2


def test_failure_handler_rejects_programless_schemes():
    baseline = Cluster(tiny_config(scheme="baseline"))
    with pytest.raises(ExperimentError, match="no switch program"):
        baseline.failure_handler()


# ----------------------------------------------------------------------
# Seed bit-identity: explicit global placement reproduces the goldens
# ----------------------------------------------------------------------
@pytest.mark.parametrize("label", sorted(GOLDEN_CONFIGS))
def test_explicit_global_placement_matches_seed_goldens(label):
    point = run_point(
        tiny_config(placement="global", **GOLDEN_CONFIGS[label])
    )
    got = (
        point.offered_rps, point.throughput_rps, point.p50_us, point.p99_us,
        point.p999_us, point.mean_us, point.samples,
    )
    assert got == GOLDEN_CORE[label]
    for key, value in GOLDEN_EXTRA[label].items():
        assert point.extra[key] == value, key


# ----------------------------------------------------------------------
# fig19 locality grid
# ----------------------------------------------------------------------
def test_fig19_rejects_rackless_topologies():
    from repro.experiments import fig19_locality as fig19

    with pytest.raises(ExperimentError, match="spine_leaf"):
        fig19.collect(topology="star")


def test_fig19_pinned_placement_and_racks_shape_the_grid():
    from repro.experiments.fig19_locality import PLACEMENTS, _placements

    assert _placements(None) == PLACEMENTS
    assert _placements("global") == ("global",)
    assert _placements("local") == ("global", "rack-local")
    assert _placements("rack-weighted:p=0.7") == ("global", "rack-weighted:p=0.7")


@pytest.mark.slow
def test_fig19_grid_parallel_matches_serial():
    from repro.experiments import fig19_locality as fig19

    serial = fig19.collect(scale=0.05, seed=3, jobs=1)
    parallel = fig19.collect(scale=0.05, seed=3, jobs=4)
    assert serial.keys() == parallel.keys()
    for key in serial:
        cells_a, cells_b = serial[key], parallel[key]
        assert [racks for racks, _ in cells_a] == [racks for racks, _ in cells_b]
        for (_, a), (_, b) in zip(cells_a, cells_b):
            assert_points_identical(a, b)


@pytest.mark.slow
def test_fig19_report_runs_and_shows_the_locality_win():
    from repro.experiments.fig19_locality import run

    report = run(scale=0.1, seed=2, jobs=4)
    assert "Figure 19" in report
    assert "rack-local" in report
    assert "rack-aware placement" in report


# ----------------------------------------------------------------------
# fig16 panel (b): server failure × placement sweep
# ----------------------------------------------------------------------
def test_fig16_server_failure_panel_rejects_rackless_topologies():
    from repro.experiments import fig16_switch_failure as fig16

    with pytest.raises(ExperimentError, match="spine_leaf"):
        fig16.collect_server_failure(topology="star")


def test_fig16_pinned_placement_shapes_the_server_failure_sweep():
    from repro.experiments.fig16_switch_failure import SF_PLACEMENTS, _sf_placements

    assert _sf_placements(None) == SF_PLACEMENTS
    assert _sf_placements("global") == ("global",)
    assert _sf_placements("local") == ("global", "rack-local")


def _assert_cells_identical(a, b):
    assert a.keys() == b.keys()
    for key in a:
        if key == "point":
            assert_points_identical(a[key], b[key])
        else:
            assert a[key] == b[key], key


@pytest.mark.slow
def test_fig16_server_failure_sweep_parallel_matches_serial():
    from repro.experiments import fig16_switch_failure as fig16

    serial = fig16.collect_server_failure(scale=0.05, seed=3, jobs=1)
    parallel = fig16.collect_server_failure(scale=0.05, seed=3, jobs=4)
    assert len(serial) == len(parallel) == len(fig16.SF_PLACEMENTS)
    for cell_a, cell_b in zip(serial, parallel):
        _assert_cells_identical(cell_a, cell_b)
    local = next(c for c in serial if c["placement"] == "rack-local")
    assert local["other_rack_tx_bytes"] == 0.0
    assert sum(local["trunk_kb"]) == 0.0
    assert local["table_epoch"] == 2
