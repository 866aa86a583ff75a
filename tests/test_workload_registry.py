"""Tests for the workload registry and the MMPP open-loop arrival process."""

import random
import statistics

import pytest

from repro.errors import ExperimentError, WorkloadError
from repro.experiments.common import ClusterConfig, run_point
from repro.experiments.workloads_registry import WORKLOADS, make_workload_spec
from repro.sim.units import ms
from repro.workloads.mmpp import MmppArrivals


# ----------------------------------------------------------------------
# Registry surface
# ----------------------------------------------------------------------
def test_registry_lists_builtins():
    # The exact set: each workload is run by a figure, a tool or the
    # benchmark, so adding or dropping one is a reviewed change here.
    assert WORKLOADS.names() == ("exp", "bimodal", "kv-redis", "kv-memcached", "mmpp")
    aliases = {
        alias: spec.name for spec in WORKLOADS.specs() for alias in spec.aliases
    }
    assert aliases == {
        "exponential": "exp",
        "redis": "kv-redis",
        "kv": "kv-redis",
        "memcached": "kv-memcached",
        "bursty": "mmpp",
    }
    listing = "\n".join(WORKLOADS.describe())
    assert "mmpp" in listing and "kv-memcached" in listing


def test_registry_aliases_and_canonical_form():
    assert WORKLOADS.get("bursty") is WORKLOADS.get("mmpp")
    assert WORKLOADS.canonical("bursty:burst=4") == "mmpp:burst=4"
    assert WORKLOADS.canonical("exponential") == "exp"
    with pytest.raises(ExperimentError):
        WORKLOADS.canonical("no-such-workload")


def test_registry_rejects_unknown_params():
    with pytest.raises(ExperimentError, match="brust"):
        make_workload_spec("mmpp:brust=4")
    with pytest.raises(ExperimentError, match="mean_us"):
        make_workload_spec("bimodal:mean_us=25")


@pytest.mark.parametrize(
    "value",
    [
        "mmpp:burst=inf",
        "mmpp:period_ms=nan",
        "exp:mean_us=nan",
        "exp:mean_us=0",
        "kv-redis:scan_fraction=1.5",
        # The SCAN pacing realises 1/period: 0.2, 0.5 and 1.0 would run
        # 0.167, 0.333 and 0.5 under a name and a capacity that assume
        # the nominal share, so nothing above the paper's 10% passes.
        "kv-redis:scan_fraction=0.2",
        "kv-redis:scan_fraction=0.5",
        "kv-redis:scan_fraction=1.0",
        "kv-redis:scan_fraction=-0.5",
        "kv-redis:scan_fraction=nan",
        "kv-memcached:scan_fraction=2",
        "kv-redis:num_keys=0",
    ],
)
def test_registry_rejects_bad_param_values(value):
    # Out-of-range and non-finite values fail when the spec is resolved,
    # as the registry's own error type: not later at cluster build, and
    # not as a bare ValueError or WorkloadError.
    with pytest.raises(ExperimentError):
        make_workload_spec(value)


def test_registry_register_unregister_round_trip():
    from repro.experiments.workloads_registry import WorkloadDef

    definition = WorkloadDef(
        name="test-only",
        description="registered by the test suite",
        make_spec=lambda: make_workload_spec("exp"),
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
    for name in WORKLOADS.names():
        assert name in out


def test_cli_rejects_workload_flag_on_unaware_harness(capsys):
    from repro.cli import main

    assert main(["fig13", "--workload", "mmpp"]) == 2
    out = capsys.readouterr().out
    assert "no --workload axis" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["fig7", "--workload", "nosuch"],
        ["fig7", "--workload", "mmpp:brust=4"],
        ["fig17", "--topology", "spine_leaf:bogus=1"],
        ["fig19", "--placement", "rack-weighted:p=7"],
    ],
)
def test_cli_bad_axis_value_exits_2_with_one_line(argv, capsys):
    from repro.cli import main

    assert main(argv) == 2
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 1
