"""Smoke and shape tests for the experiment harnesses and CLI.

Full-scale reproduction runs take minutes per figure; these tests run
the same code paths at tiny scale and assert structure plus the
cheapest shape invariants.
"""

import os

import pytest

from repro.cli import main
from repro.errors import ExperimentError
from repro.experiments import EXPERIMENTS
from repro.experiments import common, fig16_switch_failure, table_resources
from repro.experiments.common import Cluster, ClusterConfig
from repro.experiments.executor import SweepExecutor
from repro.experiments.harness import (
    capacity_rps,
    format_series,
    load_grid,
    scaled_config,
)
from repro.experiments.specs import KvSpec, SyntheticSpec, make_synthetic_spec
from repro.metrics.sweep import SweepResult
from repro.sim.units import ms

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


# ----------------------------------------------------------------------
# Registry and CLI
# ----------------------------------------------------------------------
def test_registry_lists_all_experiments():
    assert set(EXPERIMENTS.names()) == {
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
        "fig17",
        "fig18",
        "fig19",
        "table1",
        "resources",
        "ablation-groups",
        "ablation-clone-drop",
        "ablation-filters",
    }


def test_registry_unknown_experiment():
    with pytest.raises(ExperimentError):
        EXPERIMENTS.get("fig99")


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
    assert "4.7" in out or "4.5" in out


@pytest.mark.parametrize("axis", ["topology", "placement"])
def test_cli_rejects_axis_the_harness_does_not_declare(capsys, axis):
    value = {"topology": "spine_leaf", "placement": "rack-local"}[axis]
    assert main(["resources", f"--{axis}", value]) == 2
    out = capsys.readouterr().out
    assert f"has no --{axis} axis" in out
    assert "stages" not in out


# ----------------------------------------------------------------------
# Figure reports pinned to checked-in goldens
# ----------------------------------------------------------------------
def _golden(name):
    with open(os.path.join(DATA_DIR, name), encoding="utf-8") as fh:
        return fh.read()


def test_fig15_report_matches_golden():
    report = EXPERIMENTS.get("fig15").report(scale=0.05, seed=1)
    assert report == _golden("fig15_scale0.05_seed1.txt")


def test_fig11_report_matches_golden():
    report = EXPERIMENTS.get("fig11").report(scale=0.05, seed=1)
    assert report == _golden("fig11_scale0.05_seed1.txt")


@pytest.mark.slow
def test_fig11_parallel_report_matches_golden():
    # Two KV panels with distinct specs: one flattened batch ships both.
    report = EXPERIMENTS.get("fig11").report(scale=0.05, seed=1, jobs=2)
    assert report == _golden("fig11_scale0.05_seed1.txt")


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
    report = table_resources.collect()
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


# ----------------------------------------------------------------------
# Design ablations (§3.3, §3.5): the shape each one exists to show
# ----------------------------------------------------------------------
def _imbalance(report, label):
    """The max/mean column of the row whose label starts with *label*."""
    row = next(line for line in report.splitlines() if line.startswith(label))
    return float(row.split()[-2])


def test_unordered_groups_skew_load_more_than_ordered():
    # §3.3: without the reversed pairs, non-cloned requests herd onto
    # the low-numbered first candidates.
    report = EXPERIMENTS.get("ablation-groups").report(scale=0.25, seed=1)
    assert _imbalance(report, "unordered") > _imbalance(report, "ordered")


def test_paper_filter_sizing_filters_every_redundant_response():
    report = EXPERIMENTS.get("ablation-filters").report(scale=0.25, seed=1)
    assert "miss rate" in report
    # The last row is the paper's 2 x 2^17 configuration.
    assert "0.000%" in report.splitlines()[-1]


# ----------------------------------------------------------------------
# Every registered harness: collect once at tiny scale, render purely
# ----------------------------------------------------------------------
#: Substrings each harness's report must contain: its title plus the
#: scheme, series or verdict names it exists to show.
REPORT_TITLES = {
    "fig7": ("Figure 7", "baseline", "netclone"),
    "fig8": ("Figure 8", "laedge"),
    "fig9": ("Figure 9", "scalability"),
    "fig10": ("Figure 10", "netclone-racksched"),
    "fig11": ("Figure 11", "GET"),
    "fig12": ("Figure 12",),
    "fig13": ("Figure 13", "empty-queue"),
    "fig14": ("Figure 14",),
    "fig15": ("Figure 15", "netclone-nofilter"),
    "fig16": ("Figure 16", "recovered", "rack-local", "clones stayed in-rack"),
    "fig17": ("Figure 17",),
    "fig18": ("Figure 18", "least-loaded"),
    "fig19": ("Figure 19", "rack-local"),
    "table1": ("Table 1", "Switch"),
    "resources": ("stages",),
    "ablation-groups": ("group construction",),
    "ablation-clone-drop": ("with drop",),
    "ablation-filters": ("miss rate",),
}


@pytest.mark.slow
@pytest.mark.parametrize("experiment_id", sorted(EXPERIMENTS.names()))
def test_every_render_is_pure_and_names_itself(experiment_id, monkeypatch, capsys):
    spec = EXPERIMENTS.get(experiment_id)
    data = spec.collect(scale=0.05, seed=1)
    capsys.readouterr()

    def simulate(*args, **kwargs):
        raise AssertionError(f"{experiment_id}'s render ran a simulation")

    monkeypatch.setattr(common, "run_point", simulate)
    monkeypatch.setattr(SweepExecutor, "__init__", simulate)
    monkeypatch.setattr(Cluster, "__init__", simulate)
    report = spec.render(data)
    assert spec.render(data) == report
    assert capsys.readouterr() == ("", "")
    for substring in REPORT_TITLES[experiment_id]:
        assert substring in report
