"""Tests for the workload registry and the open-loop arrival processes
(MMPP bursts, diurnal multi-tenant waves, drifting-Zipf key churn)."""

import math
import random
import statistics

import pytest

from repro.errors import ExperimentError, WorkloadError
from repro.experiments.common import ClusterConfig, run_point
from repro.experiments.specs import DiurnalSpec, KvSpec, MmppSpec
from repro.experiments.workloads_registry import WORKLOADS, make_workload_spec
from repro.sim.units import ms
from repro.workloads.mmpp import DiurnalArrivals, MmppArrivals
from repro.workloads.zipf import DriftingZipfGenerator, ZipfGenerator


# ----------------------------------------------------------------------
# Registry surface
# ----------------------------------------------------------------------
def test_registry_lists_builtins():
    names = WORKLOADS.names()
    for name in ("exp", "bimodal", "mmpp", "diurnal", "kv-drift", "kv-redis"):
        assert name in names
    listing = "\n".join(WORKLOADS.describe())
    assert "mmpp" in listing and "diurnal" in listing


def test_registry_aliases_and_canonical_form():
    assert WORKLOADS.get("bursty") is WORKLOADS.get("mmpp")
    assert WORKLOADS.canonical("bursty:burst=4") == "mmpp:burst=4"
    assert WORKLOADS.canonical("exponential") == "exp"
    with pytest.raises(ExperimentError):
        WORKLOADS.canonical("no-such-workload")


def test_registry_rejects_unknown_params():
    with pytest.raises(ExperimentError, match="brust"):
        make_workload_spec("mmpp:brust=4")
    with pytest.raises(ExperimentError):
        make_workload_spec("diurnal:amplitude=2.0")  # out of range


def test_registry_register_unregister_round_trip():
    from repro.experiments.workloads_registry import WorkloadDef

    definition = WorkloadDef(
        name="test-only",
        description="registered by the test suite",
        make_spec=lambda params: make_workload_spec("exp", params),
    )
    WORKLOADS.register(definition)
    try:
        assert "test-only" in WORKLOADS.names()
        assert make_workload_spec("test-only").name == "Exp(25)"
    finally:
        WORKLOADS.unregister("test-only")
    assert "test-only" not in WORKLOADS.names()


def test_make_workload_spec_names():
    assert make_workload_spec("mmpp:burst=6,period_ms=0.5").name == (
        "mmpp(6x,0.1)-Exp(25)"
    )
    assert make_workload_spec("diurnal").name == "diurnal(0.5,2ms)-Exp(25)"
    assert make_workload_spec("kv-drift").name.endswith("-drift10000")
    assert make_workload_spec("exp", {"mean_us": 10}).name == "Exp(10)"


# ----------------------------------------------------------------------
# MMPP arrival process
# ----------------------------------------------------------------------
def test_mmpp_validation():
    rng = random.Random(1)
    for kwargs in (
        {"rate_rps": 0.0},
        {"burst": 1.0},
        {"high_fraction": 0.0},
        {"high_fraction": 1.0},
        {"period_s": 0.0},
    ):
        with pytest.raises(WorkloadError):
            MmppArrivals(rng, **{"rate_rps": 50_000.0, **kwargs})


def test_mmpp_long_run_rate_matches_nominal():
    process = MmppArrivals(random.Random(7), rate_rps=50_000.0, burst=8.0)
    n = 200_000
    total_ns = sum(process.next_gap() for _ in range(n))
    realized = n / (total_ns * 1e-9)
    assert realized == pytest.approx(50_000.0, rel=0.03)


def test_mmpp_is_deterministic_and_burstier_than_poisson():
    gaps_a = [
        MmppArrivals(random.Random(3), rate_rps=50_000.0).next_gap()
        for _ in range(1)
    ]
    process_a = MmppArrivals(random.Random(3), rate_rps=50_000.0)
    process_b = MmppArrivals(random.Random(3), rate_rps=50_000.0)
    gaps_a = [process_a.next_gap() for _ in range(5000)]
    gaps_b = [process_b.next_gap() for _ in range(5000)]
    assert gaps_a == gaps_b
    mean = statistics.fmean(gaps_a)
    cv2 = statistics.pvariance(gaps_a) / mean**2
    assert cv2 > 1.3  # Poisson would sit at ~1.0


def test_mmpp_set_rate_scales_gaps():
    process = MmppArrivals(random.Random(5), rate_rps=10_000.0)
    process.set_rate(100_000.0)
    n = 50_000
    total_ns = sum(process.next_gap() for _ in range(n))
    assert n / (total_ns * 1e-9) == pytest.approx(100_000.0, rel=0.05)


# ----------------------------------------------------------------------
# Diurnal arrival process
# ----------------------------------------------------------------------
def test_diurnal_rate_oscillates_around_base():
    process = DiurnalArrivals(
        random.Random(2), rate_rps=50_000.0, amplitude=0.5, period_s=2e-3
    )
    assert process.rate_at(0.0) == pytest.approx(50_000.0)
    assert process.rate_at(0.5e-3) == pytest.approx(75_000.0)  # peak
    assert process.rate_at(1.5e-3) == pytest.approx(25_000.0)  # trough
    n = 200_000
    total_ns = sum(process.next_gap() for _ in range(n))
    assert n / (total_ns * 1e-9) == pytest.approx(50_000.0, rel=0.05)


def test_diurnal_phase_staggers_tenants():
    base = DiurnalArrivals(random.Random(1), 50_000.0, phase=0.0)
    shifted = DiurnalArrivals(random.Random(1), 50_000.0, phase=0.5)
    # Half a period apart: one tenant peaks while the other troughs.
    assert base.rate_at(0.5e-3) > 50_000.0 > shifted.rate_at(0.5e-3)


def test_diurnal_spec_assigns_golden_ratio_phases():
    spec = DiurnalSpec()
    rng = random.Random(1)
    phases = {
        spec.make_arrival_process(rng, 50_000.0, client_index=i).phase
        for i in range(8)
    }
    assert len(phases) == 8  # no two tenants share a phase


# ----------------------------------------------------------------------
# Drifting Zipf
# ----------------------------------------------------------------------
def test_drifting_zipf_rotates_keyspace():
    rng_a = random.Random(4)
    rng_b = random.Random(4)
    static = ZipfGenerator(num_keys=1000, skew=0.99)
    drifting = DriftingZipfGenerator(num_keys=1000, skew=0.99, drift_period=100)
    before = [drifting.sample_at(rng_a, step) for step in range(100)]
    base = [static.sample(rng_b) for _ in range(100)]
    assert before == base  # first epoch: no rotation yet
    rng_a = random.Random(4)
    rng_b = random.Random(4)
    after = [drifting.sample_at(rng_a, 250) for _ in range(100)]
    shifted = [(static.sample(rng_b) + 2) % 1000 for _ in range(100)]
    assert after == shifted  # epoch 2: hot set rotated by 2


def test_drifting_zipf_validates_period():
    with pytest.raises(WorkloadError):
        DriftingZipfGenerator(num_keys=10, drift_period=0)


def test_kv_spec_drift_period_opts_into_drifting_generator():
    plain = KvSpec()
    drifting = KvSpec(drift_period=500)
    assert not hasattr(plain._zipf, "sample_at")
    assert not plain.name.endswith("-drift500")
    assert hasattr(drifting._zipf, "sample_at")
    assert drifting.name.endswith("-drift500")


# ----------------------------------------------------------------------
# End to end: workload strings through ClusterConfig and the CLI
# ----------------------------------------------------------------------
def _tiny_config(**overrides) -> ClusterConfig:
    base = dict(
        scheme="netclone",
        num_servers=4,
        num_clients=2,
        rate_rps=30_000,
        warmup_ns=ms(1),
        measure_ns=ms(3),
        drain_ns=ms(1),
        seed=21,
    )
    base.update(overrides)
    return ClusterConfig(**base)


def test_cluster_config_resolves_workload_strings():
    config = _tiny_config(workload="mmpp:burst=6,period_ms=0.5")
    assert config.workload.name == "mmpp(6x,0.1)-Exp(25)"
    point = run_point(config)
    assert point.samples > 0
    # Same string, same seed: bit-identical trajectories.
    again = run_point(_tiny_config(workload="mmpp:burst=6,period_ms=0.5"))
    assert again.p99_us == point.p99_us
    # A different workload string is a genuinely different trajectory
    # (burstiness itself is asserted at the process level above).
    poisson = run_point(_tiny_config(workload="exp"))
    assert poisson.offered_rps != point.offered_rps


def test_cluster_config_rejects_unknown_workload_string():
    with pytest.raises(ExperimentError):
        _tiny_config(workload="definitely-not-registered")


def test_cli_lists_workloads(capsys):
    from repro.cli import main

    assert main(["workloads"]) == 0
    out = capsys.readouterr().out
    assert "registered workloads:" in out
    for name in ("mmpp", "diurnal", "kv-drift"):
        assert name in out


def test_cli_rejects_workload_flag_on_unaware_harness(capsys):
    from repro.cli import main

    assert main(["fig13", "--workload", "mmpp"]) == 2
    out = capsys.readouterr().out
    assert "no --workload axis" in out
