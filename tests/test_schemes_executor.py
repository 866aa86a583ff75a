"""Scheme plugin registry and parallel sweep engine tests.

Covers the registry round-trip (register/lookup/alias/unregister and
the error paths), a test-local plugin scheme, determinism of the
parallel executor against the serial path, and the CLI surface that
exposes both (``schemes`` subcommand, ``--jobs``).
"""

import functools
import logging

import pytest
from helpers import assert_points_identical, tiny_config, tiny_scenario

from repro.cli import main
from repro.errors import ExperimentError
from repro.experiments.common import ClusterConfig, run_point, run_sweep
from repro.experiments.executor import SweepExecutor
from repro.experiments.harness import format_series, sweep_panels
from repro.experiments.schemes import SCHEMES, SchemeSpec
from repro.experiments.specs import SyntheticSpec, make_synthetic_spec
from repro.metrics.sweep import SweepResult
from repro.scenarios import run_scenarios
from repro.sim.units import ms
from repro.workloads.distributions import ExponentialDistribution


# ----------------------------------------------------------------------
# A test-local plugin scheme.  It registers at import, like any plugin
# module, so a spawned sweep worker sees it by re-importing this module
# (``module=__name__``); forked workers inherit it.
# ----------------------------------------------------------------------
PLUGIN = "local-random"
PLUGIN_ALIAS = "local-alias"


def _local_random_client(ctx, common):
    from repro.baselines.random_lb import BaselineClient

    return BaselineClient(server_ips=ctx.server_ips, **common)


SCHEMES.register(
    SchemeSpec(
        name=PLUGIN,
        description="test-local plugin: random server, no cloning",
        aliases=(PLUGIN_ALIAS,),
        make_client=_local_random_client,
        module=__name__,
    )
)


# ----------------------------------------------------------------------
# Registry round-trip
# ----------------------------------------------------------------------
def test_builtin_schemes_registered():
    names = SCHEMES.names()
    for expected in (
        "baseline",
        "cclone",
        "laedge",
        "netclone",
        "netclone-nofilter",
        "netclone-noclonedrop",
        "racksched",
        "netclone-racksched",
    ):
        assert expected in names


def test_plugin_scheme_visible_without_common_edits():
    assert PLUGIN in SCHEMES.names()
    assert SCHEMES.get(PLUGIN_ALIAS).name == PLUGIN  # alias resolves
    assert any(line.startswith(PLUGIN) for line in SCHEMES.describe())
    point = run_point(tiny_config(scheme=PLUGIN))
    assert point.samples > 0


def test_unknown_scheme_raises_with_known_names():
    with pytest.raises(ExperimentError, match="baseline"):
        SCHEMES.get("nope")
    with pytest.raises(ExperimentError):
        ClusterConfig(scheme="nope")


def test_alias_normalises_in_config():
    assert ClusterConfig(scheme=PLUGIN_ALIAS).scheme == PLUGIN


def test_register_lookup_unregister_round_trip():
    from repro.baselines.random_lb import BaselineClient

    @SCHEMES.register
    def _tmp_spec() -> SchemeSpec:
        return SchemeSpec(
            name="tmp-test-scheme",
            description="temporary",
            aliases=("tmp-alias",),
            make_client=lambda ctx, common: BaselineClient(
                server_ips=ctx.server_ips, **common
            ),
        )

    try:
        assert SCHEMES.get("tmp-alias").name == "tmp-test-scheme"
        # End-to-end through the generic Cluster with zero common.py edits.
        point = run_point(tiny_config(scheme="tmp-test-scheme"))
        assert point.samples > 0
        with pytest.raises(ExperimentError, match="already registered"):
            SCHEMES.register(
                SchemeSpec(
                    name="tmp-test-scheme",
                    description="dup",
                    make_client=lambda ctx, common: None,
                )
            )
    finally:
        SCHEMES.unregister("tmp-test-scheme")
    with pytest.raises(ExperimentError):
        SCHEMES.get("tmp-test-scheme")
    with pytest.raises(ExperimentError):
        SCHEMES.unregister("tmp-test-scheme")


def test_plugin_modules_accepts_late_additions(tmp_path, monkeypatch):
    # The lint-rule registry is the one axis that still loads its
    # plugin modules lazily, from the shared RULE_MODULES list.
    from repro.analysis import core

    assert "param-guard" in core.RULES.names()  # registry already warm
    plugin = tmp_path / "late_plugin_mod.py"
    plugin.write_text(
        "from repro.analysis.core import RULES, RuleSpec\n"
        "RULES.register(RuleSpec(\n"
        "    name='late-plugin', description='registered after first lookup',\n"
        "    make_checker=object,\n"
        "))\n"
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    core.RULE_MODULES.append("late_plugin_mod")
    try:
        assert core.RULES.get("late-plugin").name == "late-plugin"
    finally:
        core.RULE_MODULES.remove("late_plugin_mod")
        core.RULES._loaded_plugins.discard("late_plugin_mod")
        core.RULES.unregister("late-plugin")


# ----------------------------------------------------------------------
# Parallel executor determinism
# ----------------------------------------------------------------------
def _run_sweep_batch(jobs, topology="star"):
    config = tiny_config(topology=topology)
    return run_sweep(config, [0.1e6, 0.15e6, 0.2e6], jobs=jobs).points


def _sweep_panels_batch(jobs):
    # Two panels with distinct specs and int keys: one flattened batch
    # ships both specs to the workers and folds each panel's points back.
    schemes = ("baseline", PLUGIN)
    panels = {
        4: tiny_config(),
        3: tiny_config(
            workers_per_server=3, workload=make_synthetic_spec("bimodal")
        ),
    }
    results = sweep_panels(panels, schemes, scale=0.05, jobs=jobs)
    assert list(results) == [4, 3]
    points = []
    for curves in results.values():
        assert list(curves) == list(schemes)
        for curve in curves.values():
            assert len(curve.points) == 4
            points.extend(curve.points)
    return points


def _scenario_batch(jobs):
    # run_tasks: each cell is a whole kill/restore timeline.
    events = [
        {"at_ns": ms(1.5), "action": "kill_server", "server": 0},
        {"at_ns": ms(3.0), "action": "restore_server", "server": 0},
    ]
    scenarios = [
        tiny_scenario("det-a", events=events),
        tiny_scenario("det-b", events=events, cluster={"seed": 9}),
    ]
    return run_scenarios(scenarios, jobs=jobs)


@pytest.mark.parametrize(
    "batch",
    [
        pytest.param(_run_sweep_batch, id="run_sweep"),
        pytest.param(_sweep_panels_batch, id="sweep_panels"),
        pytest.param(_scenario_batch, id="run_scenarios", marks=pytest.mark.slow),
        *(
            pytest.param(
                functools.partial(_run_sweep_batch, topology=topology),
                id=f"multirack-{topology}",
                marks=pytest.mark.slow,
            )
            for topology in ("two_rack", "spine_leaf")
        ),
    ],
)
def test_parallel_batch_matches_serial(batch):
    serial = batch(1)
    parallel = batch(2)
    assert len(serial) == len(parallel) > 0
    for a, b in zip(serial, parallel):
        if isinstance(a, dict):  # a ScenarioReport.to_dict()
            assert a == b
        else:
            assert_points_identical(a, b)


def test_executor_falls_back_serially_on_unpicklable_config(caplog):
    # A lambda distribution factory makes the workload spec unpicklable.
    workload = SyntheticSpec(lambda: ExponentialDistribution(25.0))
    config = tiny_config(workload=workload)
    with caplog.at_level(logging.WARNING, logger="repro.experiments.executor"):
        points = SweepExecutor(jobs=2).run_points([config, config])
    assert len(points) == 2 and all(p.samples > 0 for p in points)
    assert any("not picklable" in record.message for record in caplog.records)


@pytest.mark.skipif(
    __import__("multiprocessing").get_start_method() != "fork",
    reason="workers inherit the in-test scheme registration only under fork",
)
def test_worker_raised_errors_propagate_not_retried_serially():
    from repro.baselines.random_lb import BaselineClient
    from repro.experiments.schemes import SCHEMES, SchemeSpec

    def _failing_client(ctx, common):
        if common["client_id"] == 0:
            raise FileNotFoundError("missing model file")
        return BaselineClient(server_ips=ctx.server_ips, **common)

    SCHEMES.register(
        SchemeSpec(
            name="tmp-failing-scheme",
            description="raises inside the worker",
            make_client=_failing_client,
            module="tests.test_schemes_executor",
        )
    )
    try:
        # An OSError raised *inside* run_point must surface to the
        # caller, not be misread as pool failure and re-run serially.
        with pytest.raises(FileNotFoundError, match="missing model file"):
            SweepExecutor(jobs=2).run_points(
                [tiny_config(scheme="tmp-failing-scheme")] * 2
            )
    finally:
        SCHEMES.unregister("tmp-failing-scheme")


def test_workload_spec_ships_once_per_pool_not_per_point():
    import pickle

    from repro.experiments.executor import _SpecRef, _strip_specs
    from repro.experiments.specs import KvSpec

    spec = KvSpec(num_keys=200_000)  # the Zipf CDF alone is ~1.6 MB here
    loads = [0.05e6, 0.1e6, 0.15e6, 0.2e6]
    configs = [tiny_config(workload=spec, rate_rps=rate) for rate in loads]
    stripped, table = _strip_specs(configs)
    # The per-point payload no longer carries the CDF...
    per_point = max(len(pickle.dumps(config)) for config in stripped)
    assert per_point < 10_000, f"per-point payload is {per_point} bytes"
    # ...which lives in the once-per-worker initializer table instead.
    assert list(table.values()) == [spec]
    assert len(pickle.dumps(table)) > 1_000_000
    assert all(isinstance(c.workload, _SpecRef) for c in stripped)
    # And the worker-side resolution round-trips: parallel == serial.
    serial = SweepExecutor().run_points(configs[:2])
    parallel = SweepExecutor(jobs=2).run_points(configs[:2])
    for a, b in zip(serial, parallel):
        assert_points_identical(a, b)


def test_mixed_workload_batches_keep_distinct_specs():
    from repro.experiments.executor import _strip_specs
    from repro.experiments.specs import make_synthetic_spec

    spec_a = make_synthetic_spec("exp", mean_us=25.0)
    spec_b = make_synthetic_spec("bimodal")
    configs = [
        tiny_config(workload=spec_a),
        tiny_config(workload=spec_b),
        tiny_config(workload=spec_a),
    ]
    stripped, table = _strip_specs(configs)
    assert len(table) == 2
    assert stripped[0].workload == stripped[2].workload
    assert stripped[0].workload != stripped[1].workload


def test_submission_order_is_longest_first_but_results_ordered():
    from repro.experiments.executor import point_cost, submission_order

    rates = [0.05e6, 0.2e6, 0.1e6, 0.2e6]
    configs = [tiny_config(rate_rps=rate) for rate in rates]
    order = submission_order(configs)
    # Costliest first; equal costs keep submission order (stable sort).
    assert order == [1, 3, 2, 0]
    costs = [point_cost(configs[i]) for i in order]
    assert costs == sorted(costs, reverse=True)
    # Collection still restores the caller's order.
    points = SweepExecutor(jobs=2).run_points(configs)
    assert [p.offered_rps for p in points] == [
        pytest.approx(r, rel=0.2) for r in rates
    ]


def test_jobs_below_one_means_all_cores():
    assert SweepExecutor(jobs=0).jobs >= 1


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
def test_cli_schemes_subcommand(capsys):
    assert main(["schemes"]) == 0
    out = capsys.readouterr().out
    assert "netclone" in out and PLUGIN in out and "coordinator" in out


def test_cli_list_mentions_schemes(capsys):
    assert main(["--list"]) == 0
    assert "schemes" in capsys.readouterr().out


def test_cli_accepts_jobs(capsys):
    assert main(["resources", "--jobs", "2"]) == 0
    assert "stages" in capsys.readouterr().out


# ----------------------------------------------------------------------
# format_series error handling
# ----------------------------------------------------------------------
def test_format_series_swallows_no_sample_panels():
    # Empty series -> render raises ExperimentError -> chart omitted.
    series = {"baseline": SweepResult(scheme="baseline", workload="w")}
    text = format_series("Panel", series)
    assert "Panel" in text


def test_format_series_logs_unexpected_chart_failures(caplog, monkeypatch):
    import repro.metrics.charts as charts

    def boom(sweeps, **kwargs):
        raise RuntimeError("chart bug")

    monkeypatch.setattr(charts, "render_sweeps", boom)
    series = {"baseline": SweepResult(scheme="baseline", workload="w")}
    with caplog.at_level(logging.ERROR, logger="repro.experiments.harness"):
        text = format_series("Panel", series)
    assert "Panel" in text  # report still produced
    assert any("chart rendering failed" in r.message for r in caplog.records)


def test_sweep_panels_keeps_caller_keys_for_aliases():
    results = sweep_panels({"p": tiny_config()}, [PLUGIN_ALIAS], scale=0.05)
    assert set(results["p"]) == {PLUGIN_ALIAS}  # caller's key preserved
    assert results["p"][PLUGIN_ALIAS].scheme == PLUGIN  # curve label canonical
