"""Smoke and shape tests for the experiment harnesses and CLI.

Full-scale reproduction runs take minutes per figure; these tests run
the same code paths at tiny scale and assert structure plus the
cheapest shape invariants.
"""

import pytest

from repro.cli import main
from repro.errors import ExperimentError
from repro.experiments import get_experiment, list_experiments
from repro.experiments import fig16_switch_failure, table_resources
from repro.experiments.common import ClusterConfig
from repro.experiments.harness import (
    capacity_rps,
    format_series,
    load_grid,
    scaled_config,
)
from repro.experiments.specs import KvSpec, SyntheticSpec, make_synthetic_spec
from repro.metrics.sweep import SweepResult
from repro.sim.units import ms


# ----------------------------------------------------------------------
# Registry and CLI
# ----------------------------------------------------------------------
def test_registry_lists_all_experiments():
    listed = "\n".join(list_experiments())
    for experiment_id in (
        "fig7",
        "fig8",
        "fig9",
        "fig10",
        "fig11",
        "fig12",
        "fig13",
        "fig14",
        "fig15",
        "fig16",
        "table1",
        "resources",
    ):
        assert experiment_id in listed


def test_registry_unknown_experiment():
    with pytest.raises(ExperimentError):
        get_experiment("fig99")


def test_cli_list(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "fig16" in out


def test_cli_no_args_lists(capsys):
    assert main([]) == 0
    assert "available experiments" in capsys.readouterr().out


def test_cli_runs_resources(capsys):
    assert main(["resources"]) == 0
    out = capsys.readouterr().out
    assert "stages" in out


# ----------------------------------------------------------------------
# Harness utilities
# ----------------------------------------------------------------------
def test_capacity_rps():
    assert capacity_rps(90, 25_000) == pytest.approx(3.6e6)
    with pytest.raises(ExperimentError):
        capacity_rps(0, 25_000)


def test_load_grid_thins_at_small_scale():
    full = load_grid(1e6, scale=1.0)
    quick = load_grid(1e6, scale=0.2)
    assert len(quick) < len(full)
    assert max(quick) == max(full)  # always include the top point


def test_scaled_config_shrinks_windows():
    config = ClusterConfig()
    quick = scaled_config(config, 0.1)
    assert quick.measure_ns < config.measure_ns
    assert quick.measure_ns >= ms(5)
    assert scaled_config(config, 1.0) is config
    with pytest.raises(ExperimentError):
        scaled_config(config, 0)


def test_format_series_includes_notes():
    series = {"baseline": SweepResult(scheme="baseline", workload="w")}
    text = format_series("Panel", series, notes=["hello"])
    assert "Panel" in text and "hello" in text


# ----------------------------------------------------------------------
# Specs
# ----------------------------------------------------------------------
def test_synthetic_spec_names_and_mean():
    exp = make_synthetic_spec("exp", mean_us=25.0)
    assert "Exp" in exp.name
    assert exp.mean_service_ns == pytest.approx(25_000)
    bimodal = make_synthetic_spec("bimodal")
    assert bimodal.mean_service_ns == pytest.approx(0.9 * 25_000 + 0.1 * 250_000)
    with pytest.raises(ExperimentError):
        make_synthetic_spec("weibull")


def test_kv_spec_factories_independent_stores():
    spec = KvSpec(cost_model="redis", scan_fraction=0.1, num_keys=1000)
    service_a = spec.make_service(0)
    service_b = spec.make_service(1)
    assert service_a.store is not service_b.store
    with pytest.raises(ExperimentError):
        KvSpec(cost_model="cassandra")


def test_spec_mean_matches_cost_model():
    spec = KvSpec(cost_model="redis", scan_fraction=0.01, num_keys=100)
    # 0.99 * 50us + 0.01 * (150 + 2400)us = 75 us.
    assert spec.mean_service_ns == pytest.approx(75_000, rel=0.01)


# ----------------------------------------------------------------------
# Harness smoke runs (tiny scale)
# ----------------------------------------------------------------------
def test_resources_harness_matches_paper_arithmetic():
    report = table_resources.report()
    assert report.stages_used == 7
    assert report.register_cells >= 1 << 18
    assert 0.04 < report.sram_fraction < 0.06
    assert report.supported_throughput_rps == pytest.approx(5.24e9, rel=0.01)


def test_fig16_collect_shows_outage_and_recovery():
    starts, rates, stats = fig16_switch_failure.collect(scale=0.45, seed=2)
    assert len(rates) >= 10
    # Before the failure: healthy throughput.
    pre = rates[fig16_switch_failure.FAIL_AT_S - 1]
    # During the outage: (near) zero.
    during = rates[fig16_switch_failure.FAIL_AT_S + 1]
    post = rates[-1]
    assert pre > 10.0
    assert during < pre * 0.1
    assert post > pre * 0.5  # recovered
    assert stats["redundant_responses"] == 0  # no misbehaviour after wipe


def test_fig16_raises_on_a_violated_invariant(monkeypatch):
    # Both panels gate on the scenario invariant library: a violation
    # surfaces as an error carrying the report summary, not a figure.
    from repro.scenarios.invariants import INVARIANTS, Invariant

    monkeypatch.setitem(
        INVARIANTS,
        "always-fails",
        Invariant(
            "always-fails",
            "a planted violation",
            applies=lambda view: True,
            check=lambda view: ["planted violation"],
        ),
    )
    with pytest.raises(ExperimentError, match="planted violation"):
        fig16_switch_failure.collect(scale=0.05)
