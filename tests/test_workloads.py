"""Tests for distributions, jitter, Zipf and workload factories."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.service import SyntheticService
from repro.errors import WorkloadError
from repro.workloads import (
    BimodalDistribution,
    ExponentialDistribution,
    JitterModel,
    KvOp,
    KvWorkload,
    RpcRequest,
    SyntheticWorkload,
    ZipfGenerator,
)


def rng():
    return random.Random(42)


# ----------------------------------------------------------------------
# Distributions
# ----------------------------------------------------------------------
def test_exponential_distribution_mean():
    dist = ExponentialDistribution(25.0)
    r = rng()
    samples = [dist.sample(r) for _ in range(20_000)]
    mean = sum(samples) / len(samples)
    assert mean == pytest.approx(25_000, rel=0.05)
    assert all(s >= 1 for s in samples)


def test_exponential_tail_heavier_than_mean():
    dist = ExponentialDistribution(25.0)
    r = rng()
    samples = sorted(dist.sample(r) for _ in range(20_000))
    p99 = samples[int(0.99 * len(samples))]
    # Exponential p99 = mean * ln(100) ~= 4.6x mean.
    assert p99 == pytest.approx(25_000 * 4.6, rel=0.15)


def test_bimodal_distribution_mean_and_modes():
    dist = BimodalDistribution(((0.9, 25.0), (0.1, 250.0)))
    assert dist.mean_ns == pytest.approx(0.9 * 25_000 + 0.1 * 250_000)
    r = rng()
    samples = [dist.sample(r) for _ in range(20_000)]
    mean = sum(samples) / len(samples)
    assert mean == pytest.approx(dist.mean_ns, rel=0.1)


def test_bimodal_weights_must_sum_to_one():
    with pytest.raises(WorkloadError):
        BimodalDistribution(((0.5, 25.0), (0.1, 250.0)))
    with pytest.raises(WorkloadError):
        BimodalDistribution(())
    with pytest.raises(WorkloadError):
        BimodalDistribution(((1.0, -5.0),))


def test_distribution_validation():
    with pytest.raises(WorkloadError):
        ExponentialDistribution(0)


# ----------------------------------------------------------------------
# Jitter
# ----------------------------------------------------------------------
def test_jitter_probability_zero_never_fires():
    jitter = JitterModel(0.0, 15.0)
    r = rng()
    assert all(jitter.apply(1000, r) == 1000 for _ in range(100))


def test_jitter_probability_one_always_fires():
    jitter = JitterModel(1.0, 15.0)
    r = rng()
    assert jitter.apply(1000, r) == 15_000


def test_jitter_rate_close_to_p():
    jitter = JitterModel(0.01, 15.0)
    r = rng()
    fired = sum(1 for _ in range(100_000) if jitter.apply(1000, r) > 1000)
    assert fired == pytest.approx(1000, rel=0.2)


def test_jitter_validation():
    with pytest.raises(WorkloadError):
        JitterModel(-0.1, 15.0)
    with pytest.raises(WorkloadError):
        JitterModel(0.01, 0.5)


@given(
    p=st.floats(min_value=0.0, max_value=1.0),
    factor=st.floats(min_value=1.0, max_value=100.0),
    base=st.integers(min_value=1, max_value=10**9),
)
@settings(max_examples=100, deadline=None)
def test_property_jitter_never_shortens(p, factor, base):
    jitter = JitterModel(p, factor)
    assert jitter.apply(base, random.Random(0)) >= base


# ----------------------------------------------------------------------
# Zipf
# ----------------------------------------------------------------------
def test_zipf_skews_toward_low_ranks():
    zipf = ZipfGenerator(1000, 0.99)
    r = rng()
    samples = [zipf.sample(r) for _ in range(20_000)]
    top_10 = sum(1 for s in samples if s < 10) / len(samples)
    assert top_10 > 0.3  # heavily skewed
    assert all(0 <= s < 1000 for s in samples)


def test_zipf_zero_skew_is_uniform():
    zipf = ZipfGenerator(100, 0.0)
    r = rng()
    samples = [zipf.sample(r) for _ in range(50_000)]
    top_10 = sum(1 for s in samples if s < 10) / len(samples)
    assert top_10 == pytest.approx(0.1, rel=0.15)


def test_zipf_popularity_sums_to_one():
    zipf = ZipfGenerator(50, 0.99)
    total = sum(zipf.popularity(k) for k in range(50))
    assert total == pytest.approx(1.0)
    assert zipf.popularity(0) > zipf.popularity(49)


def test_zipf_validation():
    with pytest.raises(WorkloadError):
        ZipfGenerator(0)
    with pytest.raises(WorkloadError):
        ZipfGenerator(10, -1)
    with pytest.raises(WorkloadError):
        ZipfGenerator(10).popularity(10)


# ----------------------------------------------------------------------
# Workload factories
# ----------------------------------------------------------------------
def test_synthetic_workload_draws_service_times():
    workload = SyntheticWorkload(ExponentialDistribution(25.0), rng())
    request = workload.make_request(client_id=1, client_seq=7)
    assert isinstance(request, RpcRequest)
    assert request.client_id == 1
    assert request.client_seq == 7
    assert request.service_ns >= 1
    assert not request.write
    assert workload.request_size(request) == 128
    assert SyntheticService().response_size(request) == 128


def test_kv_workload_deterministic_mix_paced_under_boundary():
    workload = KvWorkload(rng(), num_keys=1000, scan_fraction=0.01)
    ops = [workload.make_request(0, i).op for i in range(1090)]
    # SCANs are paced with an ~8 % margin under the nominal fraction so
    # the realised share stays strictly below the p99 boundary.
    assert ops.count(KvOp.SCAN) == 10
    assert 0.008 < ops.count(KvOp.SCAN) / len(ops) < 0.01


def test_kv_workload_get_only_mix_spends_only_key_draws():
    workload = KvWorkload(rng(), num_keys=100, scan_fraction=0.0)
    keys = rng()
    for seq in range(50):
        request = workload.make_request(0, seq)
        assert request.op is KvOp.GET
        assert request.key == workload.zipf.sample(keys)


def test_kv_workload_sizes_and_validation():
    workload = KvWorkload(rng(), num_keys=100, scan_fraction=0.1)
    requests = [workload.make_request(0, i) for i in range(100)]
    scan = next(r for r in requests if r.op is KvOp.SCAN)
    assert scan.count == KvWorkload.SCAN_COUNT == 100
    for bad in (1.5, 0.2, -0.1):
        with pytest.raises(WorkloadError):
            KvWorkload(rng(), scan_fraction=bad)


def test_kv_workload_name_reflects_mix():
    workload = KvWorkload(rng(), num_keys=10, scan_fraction=0.1)
    assert "90" in workload.name and "10" in workload.name
