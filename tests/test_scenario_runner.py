"""Runner + scenario batches: report shape, determinism, pinned golden.

The golden report (``tests/data/scenario_golden_tiny.json``) pins a
full ``ScenarioReport.to_dict()`` for a tiny kill/restore scenario,
the same way the fig18 goldens pin LoadPoints: any engine change that
shifts a single counter, checkpoint, or violation shows up as a diff
against the checked-in JSON.  Regenerate (deliberately!) with::

    PYTHONPATH=src python tests/data/regen_scenario_golden.py
"""

import json
import os

import pytest

from helpers import tiny_scenario

from repro.errors import ExperimentError
from repro.experiments.common import Cluster
from repro.scenarios import (
    INVARIANTS,
    ScenarioReport,
    catalog,
    catalog_names,
    get_scenario,
    run_scenario,
    run_scenarios,
)
from repro.scenarios.runner import _ScenarioExecution
from repro.sim.units import ms

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def _kill_restore(name="runner-tiny", **fields):
    return tiny_scenario(
        name=name,
        events=[
            {"at_ns": ms(1.5), "action": "kill_server", "server": 0},
            {"at_ns": ms(3.0), "action": "restore_server", "server": 0},
        ],
        **fields,
    )


# ----------------------------------------------------------------------
# Report shape
# ----------------------------------------------------------------------
def test_report_shape_and_checkpoints():
    run = run_scenario(_kill_restore())
    report = run.report
    assert report.scenario == "runner-tiny"
    assert report.seed == 7 and report.scheme == "netclone"
    # Default schedule: one checkpoint per distinct event time + "end".
    labels = [snap["label"] for snap in report.checkpoints]
    assert labels == ["after kill_server", "after restore_server", "end"]
    assert [snap["time_ns"] for snap in report.checkpoints[:2]] == [
        ms(1.5), ms(3),
    ]
    # Same-time checkpoints see the event's effect: server 0 is gone.
    assert 0 not in report.checkpoints[0]["active_servers"]
    assert 0 in report.checkpoints[1]["active_servers"]
    # Events come back in applied order with resolved times.
    assert [e["action"] for e in report.events] == [
        "kill_server", "restore_server",
    ]
    assert run.end is report.checkpoints[-1]
    # The "end" checkpoint is the drill-facing one: taken when the
    # configured timeline (horizon + drain window) finishes.
    assert run.end["time_ns"] == run.cluster.config.total_ns


def test_final_snapshot_drained_and_leak_free():
    report = run_scenario(_kill_restore()).report
    final = report.final
    assert final["label"] == "settled"
    assert report.meta["drained"]
    # Post-drain: queues empty, workers idle...
    assert set(final["server_queue"]) == {0}
    assert set(final["server_busy"]) == {0}
    # ...anything still outstanding is explained by real packet drops
    # (requests in flight to the killed server's dead access link)...
    drops = (
        final["switch_drops_down"] + final["link_drops"]
        + final["host_rx_drops"]
    )
    assert final["outstanding"] == 0 or drops > 0
    # ...every pooled packet is back on the free list...
    assert final["pool_free"] == final["pool_allocated"]
    # ...and the structural reachability walk found no holes.
    assert final["unreachable"] == []
    assert report.passed, report.summary()


def test_lossless_run_leaves_nothing_outstanding():
    report = run_scenario(
        tiny_scenario(
            name="lossless",
            events=[{"at_ns": ms(2), "action": "push_tables"}],
        )
    ).report
    final = report.final
    assert final["outstanding"] == 0
    assert final["switch_drops_down"] + final["link_drops"] == 0
    assert final["pool_free"] == final["pool_allocated"]
    assert report.passed, report.summary()


def test_zero_delay_switch_wipe_counts_its_recovery():
    report = run_scenario(
        tiny_scenario(
            name="instant-wipe",
            events=[
                {"at_ns": ms(1.5), "action": "wipe_switch", "down_ns": ms(0.5),
                 "reinit_ns": 0},
            ],
        )
    ).report
    final = report.final
    assert final["switch_failures"] == 1
    assert final["switch_recoveries"] == final["switch_failures"]


def test_snapshot_counts_a_recirculated_copy_dropped_at_a_down_tor():
    # The first clone a ToR recirculates finds the ToR powered off when
    # it comes back around: that loss must reach the loss budget too.
    scenario = tiny_scenario(name="recirc-drop")
    cluster = Cluster(scenario.config())
    execution = _ScenarioExecution(scenario, cluster)
    tor = cluster.tors[0]
    recirculate = tor.recirculate

    def recirculate_then_fail(packet):
        recirculate(packet)
        if not tor.down:
            cluster.sim.call_after(0, tor.fail)

    tor.recirculate = recirculate_then_fail
    cluster.start()
    cluster.run()
    assert tor.counters.get("dropped_down") == 1
    snapshot = execution.snapshot("end")
    assert snapshot["switch_drops_down"] == (
        tor.counters.get("rx_dropped_down") + 1
    )


def test_meta_records_liveness_floor():
    report = run_scenario(_kill_restore()).report
    meta = report.meta
    assert meta["num_servers"] == 3 and meta["num_racks"] == 1
    # One of three servers died mid-run on the single rack.
    assert meta["min_rack_live"] == 2
    assert meta["has_handler"]


def test_bounded_drain_reports_instead_of_hanging():
    # A surge whose end-callback lands past the configured timeline
    # leaves one event in the queue at the horizon.  An unbounded drain
    # runs it; drain_limit=0 must instead surface a clean stuck-request
    # violation — not a hang, not a crash.
    scenario = tiny_scenario(
        name="surge-tail",
        events=[{"at_ns": ms(4.5), "action": "load_surge", "factor": 2.0,
                 "duration_ns": ms(2)}],
    )
    assert run_scenario(scenario).report.meta["drained"]
    report = run_scenario(scenario, drain_limit=0).report
    assert not report.meta["drained"]
    stuck = report.invariant("no-stuck-requests")
    assert not stuck.passed
    assert any("never drained" in v for v in stuck.violations)
    # Even the truncated run releases every pooled packet.
    assert report.final["pool_free"] == report.final["pool_allocated"]


# ----------------------------------------------------------------------
# Determinism + golden
# ----------------------------------------------------------------------
def test_same_spec_same_seed_bit_identical():
    first = run_scenario(_kill_restore()).report.to_dict()
    second = run_scenario(_kill_restore()).report.to_dict()
    assert first == second


def test_seed_override_reaches_the_cluster():
    report = run_scenario(_kill_restore(), seed=99).report
    assert report.seed == 99
    base = run_scenario(_kill_restore()).report
    assert base.seed == 7
    assert report.final["client_sent"] != base.final["client_sent"]


def test_golden_report_pinned():
    with open(os.path.join(DATA_DIR, "scenario_golden_tiny.json")) as fh:
        golden = json.load(fh)
    got = run_scenario(_kill_restore(name="golden-tiny")).report.to_dict()
    # json round-trip normalises tuples to lists before comparing.
    assert json.loads(json.dumps(got, sort_keys=True)) == golden


def test_report_dict_round_trip():
    report = run_scenario(_kill_restore()).report
    data = report.to_dict()
    clone = ScenarioReport.from_dict(data)
    assert clone.to_dict() == data
    assert clone.passed == report.passed
    assert [r.name for r in clone.invariants] == list(INVARIANTS)


# ----------------------------------------------------------------------
# Scenario batches on the sweep engine
# ----------------------------------------------------------------------
def test_grid_serial_runs_and_keeps_order():
    results = run_scenarios(
        [_kill_restore("grid-a"), _kill_restore("grid-b")], jobs=1
    )
    assert [r["scenario"] for r in results] == ["grid-a", "grid-b"]
    assert all(r["passed"] for r in results)


# ----------------------------------------------------------------------
# Catalog
# ----------------------------------------------------------------------
def test_catalog_is_substantial_and_valid():
    names = catalog_names()
    assert len(names) >= 6
    # The three rewritten drills lead the catalog...
    assert names[:3] == (
        "tor-power-cycle", "spine-flap", "server-fail-restore",
    )
    # ...and the compound kill-during-rebuild race is present.
    assert "kill-during-rebuild" in names
    race = get_scenario("kill-during-rebuild")
    kills = [e for e in race.events if e.action == "kill_server"]
    assert len(kills) >= 2
    # Both kills land inside one control-plane latency (1 ms).
    assert kills[1].time_ns - kills[0].time_ns < 1_000_000
    # Every entry builds and validates.
    assert [s.name for s in catalog()] == list(names)


def test_catalog_unknown_name():
    with pytest.raises(ExperimentError, match="unknown scenario"):
        get_scenario("does-not-exist")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["nosuch"], "unknown scenario 'nosuch'"),
        (
            ["all", "--topology", "star"],
            "scenario 'spine-flap': withdraw_spine needs a spine_leaf fabric",
        ),
        (["nosuch.toml"], "cannot read scenario file nosuch.toml"),
        (
            ["load-surge", "--workload", "nosuch", "--metrics", "sketch"],
            "run-scenario has no --workload axis",
        ),
        (["load-surge", "--metrics", "sketch"], "run-scenario has no --metrics axis"),
    ],
    ids=[
        "unknown-name",
        "override-the-scenario-cannot-run-on",
        "missing-toml",
        "workload-flag",
        "metrics-flag",
    ],
)
def test_cli_run_scenario_user_error_exits_2_without_traceback(
    capsys, argv, message
):
    from repro.cli import main

    # Rejected in the parent before any scenario runs: exit 2 and the
    # one-line message, like every other subcommand's user errors.
    assert main(["run-scenario", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out.startswith(message)
    assert captured.out.count("\n") == 1
    assert "Traceback" not in captured.out + captured.err


def test_cli_run_scenario_bad_report_window_exits_2(capsys, tmp_path):
    from repro.cli import main

    path = tmp_path / "bad-window.toml"
    path.write_text('name = "bad-window"\nreport_window_ns = "25ms"\n')
    assert main(["run-scenario", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == (
        "scenario 'bad-window': report_window_ns='25ms' is not an int\n"
    )
    assert "Traceback" not in captured.err
