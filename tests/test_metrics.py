"""Tests for latency recording, percentiles, sweeps and tables."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExperimentError
from repro.metrics import LatencyRecorder, LoadPoint, SweepResult, format_table, percentile
from repro.sim.monitor import IntervalMonitor
from repro.sim.units import sec


def test_percentile_lower_interpolation_returns_sample():
    samples = [10, 20, 30, 40, 50]
    assert percentile(samples, 50) in samples
    assert percentile(samples, 0) == 10
    assert percentile(samples, 100) == 50


def test_percentile_empty_is_nan():
    assert percentile([], 99) != percentile([], 99)


def test_percentile_range_checked():
    with pytest.raises(ExperimentError):
        percentile([1], 101)


@given(st.lists(st.integers(min_value=0, max_value=10**9), min_size=1, max_size=500))
@settings(max_examples=100, deadline=None)
def test_property_percentile_bounds(samples):
    p99 = percentile(samples, 99)
    assert min(samples) <= p99 <= max(samples)
    assert p99 in samples


def test_recorder_windows_latency_by_send_time():
    recorder = LatencyRecorder(warmup_ns=100, end_ns=200)
    recorder.record(send_time_ns=50, done_time_ns=120)  # sent in warmup
    recorder.record(send_time_ns=150, done_time_ns=180)  # in window
    recorder.record(send_time_ns=250, done_time_ns=260)  # after end
    assert len(recorder) == 1
    assert recorder.latencies_ns[0] == 30


def test_recorder_throughput_counts_completions_in_window():
    recorder = LatencyRecorder(warmup_ns=0, end_ns=sec(1))
    recorder.note_sent(10)
    recorder.note_sent(20)
    recorder.record(send_time_ns=10, done_time_ns=100)
    recorder.record(send_time_ns=20, done_time_ns=sec(2))  # completes late
    assert recorder.completed_in_window == 1
    assert recorder.sent_in_window == 2
    assert recorder.throughput_rps() == pytest.approx(1.0)
    assert recorder.offered_rps() == pytest.approx(2.0)


def test_recorder_rejects_time_travel():
    recorder = LatencyRecorder()
    with pytest.raises(ExperimentError):
        recorder.record(send_time_ns=100, done_time_ns=50)


def test_recorder_percentile_helpers():
    recorder = LatencyRecorder(warmup_ns=0, end_ns=1000)
    for latency in (1_000, 2_000, 3_000, 100_000):
        recorder.record(send_time_ns=1, done_time_ns=1 + latency)
    assert recorder.p50_us() == pytest.approx(2.0)
    # 'lower' interpolation on 4 samples: index floor(0.99 * 3) = 2.
    assert recorder.p99_us() == pytest.approx(3.0)
    assert recorder.mean_us() == pytest.approx(26.5)


def test_recorder_completion_monitor_feed():
    recorder = LatencyRecorder(warmup_ns=0, end_ns=sec(10))
    monitor = IntervalMonitor(window_ns=sec(1), horizon_ns=sec(10))
    recorder.completion_monitor = monitor
    recorder.record(send_time_ns=0, done_time_ns=sec(3) + 5)
    assert monitor.counts()[3] == 1


def test_recorder_validation():
    with pytest.raises(ExperimentError):
        LatencyRecorder(warmup_ns=-1)
    with pytest.raises(ExperimentError):
        LatencyRecorder(warmup_ns=100, end_ns=100)


def make_point(offered, tput, p99):
    return LoadPoint(
        offered_rps=offered,
        throughput_rps=tput,
        p50_us=10.0,
        p99_us=p99,
        p999_us=2 * p99,
        mean_us=12.0,
        samples=1000,
    )


def test_sweep_result_max_and_lookup():
    sweep = SweepResult(scheme="netclone", workload="Exp(25)")
    sweep.add(make_point(1e6, 0.99e6, 100.0))
    sweep.add(make_point(2e6, 1.8e6, 300.0))
    assert sweep.max_throughput_mrps() == pytest.approx(1.8)
    assert sweep.p99_at_load(1.1e6) == 100.0
    assert sweep.p99_at_load(9e6) != sweep.p99_at_load(9e6)  # too far: NaN
    text = sweep.format()
    assert "netclone" in text and "Exp(25)" in text
    assert len(text.splitlines()) == 4


def test_sweep_empty_is_nan():
    sweep = SweepResult(scheme="x", workload="y")
    assert sweep.max_throughput_mrps() != sweep.max_throughput_mrps()
    assert sweep.p99_at_load(1.0) != sweep.p99_at_load(1.0)


def test_load_point_row_and_mrps():
    point = make_point(1e6, 0.5e6, 99.9)
    assert point.throughput_mrps == pytest.approx(0.5)
    assert "0.500" in point.row()


def test_format_table_aligns_columns():
    text = format_table(["a", "bb"], [["1", "2"], ["333", "4"]])
    lines = text.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("a")
    with pytest.raises(ValueError):
        format_table(["a"], [["1", "2"]])
