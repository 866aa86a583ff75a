"""Tests for the streaming metrics plane: sketches, recorder modes,
and sketch-mode sweep points."""

import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExperimentError
from repro.experiments.common import ClusterConfig, run_point
from repro.experiments.executor import SweepExecutor
from repro.metrics.latency import LatencyRecorder, percentile
from repro.metrics.sketch import RELATIVE_ERROR, LatencySketch
from repro.metrics.sweep import LoadPoint, SweepResult
from repro.sim.units import ms


# ----------------------------------------------------------------------
# Sample-set strategies: the shapes the sketch meets in practice.
# ----------------------------------------------------------------------
def _exp_samples(rng: random.Random, n: int):
    return [int(rng.expovariate(1.0) * 25_000) + 1 for _ in range(n)]


def _bimodal_samples(rng: random.Random, n: int):
    return [
        int(rng.expovariate(1.0) * (250_000 if rng.random() < 0.1 else 25_000)) + 1
        for _ in range(n)
    ]


def _mmpp_samples(rng: random.Random, n: int):
    from repro.workloads.mmpp import MmppArrivals

    process = MmppArrivals(rng, rate_rps=40_000.0, burst=8.0)
    return [process.next_gap() for _ in range(n)]


_SHAPES = {"exp": _exp_samples, "bimodal": _bimodal_samples, "mmpp": _mmpp_samples}


@given(
    shape=st.sampled_from(sorted(_SHAPES)),
    seed=st.integers(min_value=0, max_value=2**31),
    n=st.integers(min_value=1, max_value=4000),
    q=st.sampled_from([0.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0]),
)
@settings(max_examples=60, deadline=None)
def test_property_sketch_quantile_within_relative_error(shape, seed, n, q):
    samples = _SHAPES[shape](random.Random(seed), n)
    sketch = LatencySketch()
    sketch.add_many(samples)
    exact = percentile(samples, q)
    assert abs(sketch.quantile(q) - exact) <= RELATIVE_ERROR * exact + 1e-9


@given(
    a=st.lists(st.integers(min_value=0, max_value=10**12), max_size=300),
    b=st.lists(st.integers(min_value=0, max_value=10**12), max_size=300),
    c=st.lists(st.integers(min_value=0, max_value=10**12), max_size=300),
)
@settings(max_examples=60, deadline=None)
def test_property_merge_is_associative_and_matches_union(a, b, c):
    def sketch_of(*sample_lists):
        sketch = LatencySketch()
        for samples in sample_lists:
            sketch.add_many(samples)
        return sketch

    left = sketch_of(a)
    left.merge(sketch_of(b))
    left.merge(sketch_of(c))
    bc = sketch_of(b)
    bc.merge(sketch_of(c))
    right = sketch_of(a)
    right.merge(bc)
    union = sketch_of(a, b, c)
    assert left == right == union


@given(st.lists(st.integers(min_value=0, max_value=10**12), max_size=500))
@settings(max_examples=60, deadline=None)
def test_property_serialization_round_trip(samples):
    sketch = LatencySketch()
    sketch.add_many(samples)
    clone = LatencySketch.from_bytes(sketch.to_bytes())
    assert clone == sketch
    if samples:
        assert clone.quantile(99) == sketch.quantile(99)


def test_add_and_add_many_are_bit_identical():
    rng = random.Random(5)
    samples = _bimodal_samples(rng, 3000) + [0, 0, 1]
    one = LatencySketch()
    for value in samples:
        one.add(value)
    many = LatencySketch()
    many.add_many(np.asarray(samples, dtype=np.int64))
    assert one == many
    assert one.to_bytes() == many.to_bytes()


def test_sketch_tracks_exact_min_max_sum():
    sketch = LatencySketch()
    sketch.add_many([7, 300, 12_345])
    assert sketch.min == 7.0
    assert sketch.max == 12_345.0
    assert sketch.sum == 7 + 300 + 12_345
    assert abs(sketch.quantile(0) - 7.0) <= RELATIVE_ERROR * 7.0
    assert abs(sketch.quantile(100) - 12_345.0) <= RELATIVE_ERROR * 12_345.0


def test_sketch_empty_quantile_is_nan_and_bad_inputs_raise():
    sketch = LatencySketch()
    assert math.isnan(sketch.quantile(99))
    with pytest.raises(ExperimentError):
        sketch.quantile(101)
    with pytest.raises(ExperimentError):
        LatencySketch(relative_error=0.0)
    with pytest.raises(ExperimentError):
        LatencySketch.from_bytes(b"nope")
    with pytest.raises(ExperimentError):
        sketch.merge(LatencySketch(relative_error=0.05))
    with pytest.raises(ExperimentError):
        sketch.merge("not a sketch")


def test_sketch_payload_is_compact():
    sketch = LatencySketch()
    sketch.add_many(_exp_samples(random.Random(1), 20_000))
    payload = sketch.to_bytes()
    assert len(payload) * 10 <= 20_000 * 8  # >=10x under the raw array
    assert LatencySketch.from_bytes(payload) == sketch


# ----------------------------------------------------------------------
# Recorder backends
# ----------------------------------------------------------------------
def _fill(recorder: LatencyRecorder, samples) -> None:
    for latency in samples:
        recorder.record(send_time_ns=1000, done_time_ns=1000 + latency)


def test_recorder_modes_agree_within_sketch_error():
    samples = _bimodal_samples(random.Random(9), 5000)
    exact = LatencyRecorder(mode="exact")
    sketch = LatencyRecorder(mode="sketch")
    _fill(exact, samples)
    _fill(sketch, samples)
    assert len(exact) == len(sketch) == len(samples)
    assert sketch.latencies_ns is None  # sketch mode stores no samples
    assert exact.mean_us() == sketch.mean_us()  # mean is exact in both
    for q in (50.0, 99.0, 99.9):
        reference = exact.percentile_ns(q)
        assert abs(sketch.percentile_ns(q) - reference) <= RELATIVE_ERROR * reference
    assert exact.sketch_bytes() is None
    assert sketch.sketch_bytes() == sketch.sketch.to_bytes()
    # Payloads: O(requests) vs O(buckets) — the gap widens with n; the
    # 10x-at-10M contract is policed by tools/bench_baseline.py.
    assert len(sketch.result_payload()) < len(exact.result_payload())


def test_recorder_empty_is_nan_in_both_modes():
    for mode in ("exact", "sketch"):
        recorder = LatencyRecorder(mode=mode)
        assert math.isnan(recorder.p50_us())
        assert math.isnan(recorder.p99_us())
        assert math.isnan(recorder.p999_us())
        assert math.isnan(recorder.mean_us())


def test_recorder_mean_needs_no_numpy_materialisation():
    recorder = LatencyRecorder(mode="exact")
    _fill(recorder, [1000, 2000, 3000])
    assert recorder.mean_us() == pytest.approx(2.0)
    sketch = LatencyRecorder(mode="sketch")
    _fill(sketch, [1000, 2000, 3000])
    assert sketch.mean_us() == pytest.approx(2.0)


# ----------------------------------------------------------------------
# LoadPoint / SweepResult sketch plumbing
# ----------------------------------------------------------------------
def _point_with_sketch(samples) -> LoadPoint:
    sketch = LatencySketch()
    sketch.add_many(samples)
    return LoadPoint(
        offered_rps=1.0,
        throughput_rps=1.0,
        p50_us=0.0,
        p99_us=0.0,
        p999_us=0.0,
        mean_us=0.0,
        samples=len(samples),
        latency_sketch=sketch.to_bytes(),
    )


def test_sweep_result_merges_point_sketches():
    shard_a = _exp_samples(random.Random(3), 800)
    shard_b = _exp_samples(random.Random(4), 900)
    sweep = SweepResult(scheme="netclone", workload="exp")
    sweep.add(_point_with_sketch(shard_a))
    sweep.add(_point_with_sketch(shard_b))
    merged = sweep.merged_sketch()
    union = LatencySketch()
    union.add_many(shard_a + shard_b)
    assert merged == union
    # A mixed exact/sketch series refuses to pretend it merged.
    exact_point = replace(sweep.points[0], latency_sketch=None)
    assert exact_point.sketch() is None
    sweep.add(exact_point)
    assert sweep.merged_sketch() is None


# ----------------------------------------------------------------------
# Sketch-mode sweep points, serial and pooled
# ----------------------------------------------------------------------
def _tiny_config(**overrides) -> ClusterConfig:
    base = dict(
        scheme="netclone",
        num_servers=4,
        num_clients=2,
        rate_rps=30_000,
        warmup_ns=ms(1),
        measure_ns=ms(4),
        drain_ns=ms(1),
        seed=11,
    )
    base.update(overrides)
    return ClusterConfig(**base)


def test_run_point_sketch_mode_attaches_sketch_and_matches_exact():
    exact = run_point(_tiny_config(metrics="exact"))
    sketched = run_point(_tiny_config(metrics="sketch"))
    assert exact.latency_sketch is None
    assert sketched.latency_sketch is not None
    sketch = sketched.sketch()
    assert sketch.count == sketched.samples == exact.samples
    # Same simulated trajectory; only the percentile backend differs.
    assert sketched.mean_us == exact.mean_us
    for attribute in ("p50_us", "p99_us", "p999_us"):
        reference = getattr(exact, attribute)
        assert abs(getattr(sketched, attribute) - reference) <= (
            RELATIVE_ERROR * reference
        )


def test_config_rejects_unknown_metrics_mode():
    with pytest.raises(ExperimentError):
        _tiny_config(metrics="histogram")
    with pytest.raises(ExperimentError):
        LatencyRecorder(mode="histogram")


def test_sketch_points_identical_across_jobs():
    configs = [
        _tiny_config(metrics="sketch", rate_rps=rate) for rate in (20_000, 35_000)
    ]
    serial = SweepExecutor(jobs=1).run_points(configs)
    pooled = SweepExecutor(jobs=2).run_points(configs)
    assert [p.latency_sketch for p in serial] == [p.latency_sketch for p in pooled]
    assert [p.p99_us for p in serial] == [p.p99_us for p in pooled]
