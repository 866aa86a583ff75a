"""Scheme plugin registry and parallel sweep engine tests.

Covers the registry round-trip (register/lookup/alias/unregister and
the error paths), the demonstration plugin scheme, determinism of the
parallel executor against the serial path, and the CLI surface that
exposes both (``schemes`` subcommand, ``--jobs``).
"""

import logging

import pytest
from helpers import assert_points_identical, tiny_config

from repro.cli import main
from repro.errors import ExperimentError
from repro.experiments.common import ClusterConfig, run_point, run_sweep
from repro.experiments.executor import SweepExecutor, point_seed, resolve_executor
from repro.experiments.harness import format_series, sweep_panels, sweep_schemes
from repro.experiments.schemes import SCHEMES, SchemeSpec
from repro.experiments.specs import SyntheticSpec, make_synthetic_spec
from repro.metrics.sweep import SweepResult
from repro.sim.core import Simulator
from repro.sim.units import ms
from repro.workloads.distributions import ExponentialDistribution


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
    assert "jsq-d3" in SCHEMES.names()
    assert SCHEMES.get("p3c").name == "jsq-d3"  # alias resolves
    assert any("jsq-d3" in line for line in SCHEMES.describe())


def test_unknown_scheme_raises_with_known_names():
    with pytest.raises(ExperimentError, match="baseline"):
        SCHEMES.get("nope")
    with pytest.raises(ExperimentError):
        ClusterConfig(scheme="nope")


def test_alias_normalises_in_config():
    assert ClusterConfig(scheme="p3c").scheme == "jsq-d3"


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


# ----------------------------------------------------------------------
# Demonstration plugin end-to-end
# ----------------------------------------------------------------------
def test_jsq_d3_runs_end_to_end():
    result = run_sweep(tiny_config(scheme="jsq-d3"), [0.1e6, 0.2e6])
    assert result.scheme == "jsq-d3"
    assert len(result.points) == 2
    assert all(point.samples > 0 for point in result.points)


def test_jsq_d3_needs_enough_servers():
    with pytest.raises(ExperimentError, match="at least 3 servers"):
        run_point(tiny_config(scheme="jsq-d3", num_servers=2))


def test_jsq_d_expires_stale_outstanding_marks():
    import random
    from types import SimpleNamespace

    from repro.baselines.jsq_d import JsqDClient
    from repro.metrics.latency import LatencyRecorder

    class FakeWorkload:
        def make_request(self, client_id, seq):
            return SimpleNamespace(client_id=client_id, client_seq=seq)

        def request_size(self, request):
            return 100

    sim = Simulator()
    workload = FakeWorkload()
    client = JsqDClient(
        sim,
        "c1",
        1,
        client_id=0,
        workload=workload,
        rate_rps=1e6,
        recorder=LatencyRecorder(warmup_ns=0, end_ns=10**9),
        rng=random.Random(1),
        server_ips=[10, 11, 12],
        d=3,
        stale_after_ns=1_000,
    )
    client._seq = 1
    dest = client.build_packets(workload.make_request(0, 1))[0].dst
    assert client._outstanding_at[dest] == 1
    # The response was dropped; past the staleness window the mark must
    # expire instead of biasing routing away from `dest` forever.
    sim.now = 5_000
    client._seq = 2
    client.build_packets(workload.make_request(0, 2))
    assert 1 not in client._inflight_server
    assert sum(client._outstanding_at.values()) == 1  # only the live request


def test_plugin_modules_accepts_late_additions(tmp_path, monkeypatch):
    from repro.experiments import schemes

    assert "baseline" in schemes.SCHEMES.names()  # registry already warm
    plugin = tmp_path / "late_plugin_mod.py"
    plugin.write_text(
        "from repro.baselines.random_lb import BaselineClient\n"
        "from repro.experiments.schemes import SCHEMES, SchemeSpec\n"
        "SCHEMES.register(SchemeSpec(\n"
        "    name='late-plugin', description='registered after first lookup',\n"
        "    make_client=lambda ctx, common: BaselineClient(\n"
        "        server_ips=ctx.server_ips, **common),\n"
        "))\n"
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    schemes.PLUGIN_MODULES.append("late_plugin_mod")
    try:
        assert schemes.SCHEMES.get("late-plugin").name == "late-plugin"
    finally:
        schemes.PLUGIN_MODULES.remove("late_plugin_mod")
        schemes.SCHEMES._loaded_plugins.discard("late_plugin_mod")
        schemes.SCHEMES.unregister("late-plugin")


# ----------------------------------------------------------------------
# Parallel executor determinism
# ----------------------------------------------------------------------
def test_parallel_run_sweep_matches_serial():
    loads = [0.1e6, 0.15e6, 0.2e6]
    serial = run_sweep(tiny_config(), loads)
    parallel = run_sweep(tiny_config(), loads, jobs=2)
    assert len(serial.points) == len(parallel.points)
    for a, b in zip(serial.points, parallel.points):
        assert_points_identical(a, b)


def test_parallel_sweep_schemes_matches_serial():
    loads = [0.1e6, 0.2e6]
    schemes = ("baseline", "jsq-d3")
    serial = {0: sweep_schemes(tiny_config(), schemes, loads)}
    parallel = {0: sweep_schemes(tiny_config(), schemes, loads, jobs=2)}
    # Two panels with distinct specs and int keys: one flattened batch
    # ships both specs to the workers and folds each panel's points back.
    panels = {
        4: tiny_config(),
        3: tiny_config(
            workers_per_server=3, workload=make_synthetic_spec("bimodal")
        ),
    }
    serial.update(sweep_panels(panels, schemes, scale=0.05))
    parallel.update(sweep_panels(panels, schemes, scale=0.05, jobs=2))
    assert list(serial) == list(parallel) == [0, 4, 3]
    for panel in serial:
        assert list(serial[panel]) == list(parallel[panel]) == list(schemes)
        for scheme in schemes:
            a_points = serial[panel][scheme].points
            b_points = parallel[panel][scheme].points
            assert len(a_points) == len(b_points) == (2 if panel == 0 else 4)
            for a, b in zip(a_points, b_points):
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


def test_resolve_executor_and_point_seed():
    executor = SweepExecutor(jobs=3)
    assert resolve_executor(executor, None) is executor
    assert resolve_executor(None, None).jobs == 1
    assert resolve_executor(None, 4).jobs == 4
    assert SweepExecutor(jobs=0).jobs >= 1  # 0 = all cores
    assert point_seed(1, "a") == point_seed(1, "a")
    assert point_seed(1, "a") != point_seed(1, "b")
    assert point_seed(1, "a") != point_seed(2, "a")


def test_executor_reseed_derives_distinct_deterministic_seeds():
    configs = [tiny_config(rate_rps=0.05e6)] * 2
    once = SweepExecutor().run_points(configs, reseed=True)
    again = SweepExecutor().run_points(configs, reseed=True)
    for a, b in zip(once, again):
        assert_points_identical(a, b)
    # Distinct derived seeds give distinct arrival processes.
    assert once[0].p50_us != once[1].p50_us


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
def test_cli_schemes_subcommand(capsys):
    assert main(["schemes"]) == 0
    out = capsys.readouterr().out
    assert "netclone" in out and "jsq-d3" in out and "coordinator" in out


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


# ----------------------------------------------------------------------
# Simulator cancelled-entry handling
# ----------------------------------------------------------------------
def _noop():
    pass


def test_simulator_compacts_dominating_cancelled_entries():
    sim = Simulator()
    handles = [sim.at(i + 1, _noop) for i in range(200)]
    assert sim.pending == 200
    for handle in handles[:150]:
        handle.cancel()
    # Cancelled entries dominate -> the heap was compacted in place
    # (at least once; later cancels may sit below the threshold).
    assert sim.pending <= 100
    assert sim.run() == 50
    assert sim.event_count == 50


def test_simulator_step_run_peek_skip_cancelled():
    sim = Simulator()
    first = sim.at(10, _noop)
    sim.at(20, _noop)
    first.cancel()
    assert sim.peek() == 20
    assert sim.step()
    assert sim.now == 20
    assert not sim.step()


def test_simulator_cancel_idempotent_after_run():
    sim = Simulator()
    handle = sim.at(5, _noop)
    sim.run()
    # Cancelling an already-fired handle must not corrupt bookkeeping:
    # it is no longer in the heap, so it must not count towards the
    # compaction trigger either.
    handle.cancel()
    handle.cancel()
    assert sim.pending == 0
    assert sim._cancelled == 0
    assert sim.peek() is None


def test_sweep_schemes_keeps_caller_keys_for_aliases():
    results = sweep_schemes(tiny_config(), ["p3c"], [0.1e6])
    assert set(results) == {"p3c"}  # caller's key preserved
    assert results["p3c"].scheme == "jsq-d3"  # curve label canonical
