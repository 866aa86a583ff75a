"""Invariant library: a positive and a seeded-violation case per check.

The positive side runs one real scenario (kill + restore on the tiny
cluster) and asserts every applicable invariant passes.  The negative
side *tampers one number* in a deep copy of that run's report — a
seeded duplicate delivery, a backwards epoch, a cross-rack byte — and
asserts the exact violation message fires.  Tampering works because
invariants are pure functions over report data, never live objects.
"""

import copy

import pytest

from helpers import tiny_scenario

from repro.scenarios import (
    INVARIANTS,
    ReportView,
    evaluate_invariants,
    run_scenario,
)
from repro.sim.units import ms


@pytest.fixture(scope="module")
def report():
    scenario = tiny_scenario(
        name="invariant-base",
        events=[
            {"at_ns": ms(1.5), "action": "kill_server", "server": 0},
            {"at_ns": ms(3.0), "action": "restore_server", "server": 0},
        ],
    )
    return run_scenario(scenario).report


def _view(data):
    return ReportView(
        scheme=data["scheme"],
        placement=data["placement"],
        checkpoints=data["checkpoints"],
        final=data["final"],
        meta=data["meta"],
    )


def _result(data, name):
    for result in evaluate_invariants(_view(data)):
        if result.name == name:
            return result
    raise AssertionError(f"no result for {name}")


# ----------------------------------------------------------------------
# Positive: the real run satisfies the whole library
# ----------------------------------------------------------------------
def test_clean_run_passes_every_invariant(report):
    assert report.passed
    names = [result.name for result in report.invariants]
    assert names == list(INVARIANTS)
    for name in (
        "no-duplicate-deliveries",
        "no-stuck-requests",
        "epoch-monotone",
        "fabric-reachability",
        "conservation-of-completions",
    ):
        assert report.invariant(name).applicable, name
        assert report.invariant(name).passed, name
    # Single-rack star: the rack-local check is inapplicable, not failed.
    rack = report.invariant("rack-local-trunks-silent")
    assert not rack.applicable and rack.passed


def test_reevaluation_of_untampered_report_is_clean(report):
    results = evaluate_invariants(_view(report.to_dict()))
    assert all(result.passed for result in results)


# ----------------------------------------------------------------------
# Negative: one seeded violation per invariant, exact message asserted
# ----------------------------------------------------------------------
def test_seeded_duplicate_delivery(report):
    data = copy.deepcopy(report.to_dict())
    data["checkpoints"][0]["redundant"] = 3
    result = _result(data, "no-duplicate-deliveries")
    assert not result.passed
    assert "3 duplicate deliveries" in result.violations[0]
    assert "despite in-network" in result.violations[0]


def test_seeded_stuck_queue(report):
    data = copy.deepcopy(report.to_dict())
    data["final"]["server_queue"][1] = 2
    result = _result(data, "no-stuck-requests")
    assert not result.passed
    assert "srv2 still holds 2 queued request(s)" in result.violations[0]


def test_seeded_busy_worker(report):
    data = copy.deepcopy(report.to_dict())
    data["final"]["server_busy"][2] = 1
    result = _result(data, "no-stuck-requests")
    assert "srv3 still reports 1 busy worker(s)" in result.violations[0]


def test_seeded_undrained_queue(report):
    data = copy.deepcopy(report.to_dict())
    data["meta"]["drained"] = False
    result = _result(data, "no-stuck-requests")
    assert "never drained" in result.violations[0]


def test_seeded_lossless_outstanding(report):
    data = copy.deepcopy(report.to_dict())
    final = data["final"]
    final["switch_drops_down"] = 0
    final["link_drops"] = 0
    final["host_rx_drops"] = 0
    final["switch_program_drops"] = 0
    final["clones_dropped"] = 0
    final["outstanding"] = 4
    result = _result(data, "no-stuck-requests")
    assert "4 request(s) never completed" in result.violations[0]
    assert "no clone was shed" in result.violations[0]
    assert "stuck, not lost" in result.violations[0]


def test_seeded_stale_epoch(report):
    data = copy.deepcopy(report.to_dict())
    # The ToR's table epoch moves backwards between two snapshots.
    data["checkpoints"][0]["program_epochs"][0] = 5
    result = _result(data, "epoch-monotone")
    assert not result.passed
    assert any("went backwards" in v for v in result.violations)


def test_seeded_client_ahead_of_control_plane(report):
    data = copy.deepcopy(report.to_dict())
    final = data["final"]
    final["client_epochs"][0] = final["handler_epoch"] + 1
    result = _result(data, "epoch-monotone")
    assert any("ahead of the control plane" in v for v in result.violations)


def test_seeded_client_left_stale(report):
    data = copy.deepcopy(report.to_dict())
    final = data["final"]
    assert final["handler_epoch"] > 0
    final["client_epochs"][1] = final["program_epochs"][0] - 1
    result = _result(data, "epoch-monotone")
    assert any(
        "stale table survived the last rebuild" in v
        for v in result.violations
    )


def test_seeded_cross_rack_byte(report):
    data = copy.deepcopy(report.to_dict())
    # Recast the run as a healthy two-rack rack-local deployment, then
    # plant a single cross-rack byte count.
    data["placement"] = "rack-local"
    data["meta"]["num_racks"] = 2
    data["meta"]["min_rack_live"] = 2
    data["checkpoints"][1]["trunk_tx_bytes"] = 512
    result = _result(data, "rack-local-trunks-silent")
    assert result.applicable and not result.passed
    assert "512 bytes crossed the inter-rack trunks" in result.violations[0]
    # A rack legally below two live servers makes the check inapplicable.
    data["meta"]["min_rack_live"] = 1
    relaxed = _result(data, "rack-local-trunks-silent")
    assert not relaxed.applicable and relaxed.passed


def test_seeded_unreachable_pair(report):
    data = copy.deepcopy(report.to_dict())
    data["final"]["unreachable"] = [
        ["client1", "srv2", "ToR 0 is powered off"],
    ]
    result = _result(data, "fabric-reachability")
    assert not result.passed
    assert result.violations == [
        "no path from client1 to live server srv2: ToR 0 is powered off"
    ]


def test_seeded_conservation_breaks(report):
    data = copy.deepcopy(report.to_dict())
    final = data["final"]
    final["client_sent"][0] += 1
    result = _result(data, "conservation-of-completions")
    assert any("conservation broken" in v for v in result.violations)

    data = copy.deepcopy(report.to_dict())
    data["final"]["server_accepted"][0] += 2
    result = _result(data, "conservation-of-completions")
    assert any("but answered" in v for v in result.violations)

    data = copy.deepcopy(report.to_dict())
    data["final"]["redundant"] = sum(data["final"]["server_responses"]) + 1
    result = _result(data, "conservation-of-completions")
    assert any("but servers only sent" in v for v in result.violations)


# ----------------------------------------------------------------------
# Library plumbing
# ----------------------------------------------------------------------
def test_skip_makes_invariant_inapplicable(report):
    # Applicability is derived from the report, never switched off by
    # name: a client-side dedup scheme skips the duplicate check, so it
    # reports inapplicable and passes vacuously even with duplicates.
    data = copy.deepcopy(report.to_dict())
    data["scheme"] = "cclone"
    data["final"]["redundant"] = 5
    results = evaluate_invariants(_view(data))
    skipped = [r for r in results if r.name == "no-duplicate-deliveries"][0]
    assert not skipped.applicable and skipped.passed
    # One result per library entry, always, in library order.
    assert [r.name for r in results] == list(INVARIANTS)


def test_every_invariant_documented():
    for invariant in INVARIANTS.values():
        assert invariant.description
        assert callable(invariant.applies)
        assert callable(invariant.check)
