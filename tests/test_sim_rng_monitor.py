"""Tests for RNG streams, counters and interval monitors."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Counter, IntervalMonitor, RngRegistry, splitmix64
from repro.sim.rng import stream_seed
from repro.sim.units import MICROS, MILLIS, SECONDS, ms, sec, us


def test_splitmix64_known_range_and_determinism():
    a = splitmix64(0)
    b = splitmix64(0)
    assert a == b
    assert 0 <= a < (1 << 64)
    assert splitmix64(1) != a


def test_stream_seed_differs_by_name():
    assert stream_seed(7, "alpha") != stream_seed(7, "beta")


def test_stream_seed_differs_by_root():
    assert stream_seed(7, "alpha") != stream_seed(8, "alpha")


def test_registry_same_name_same_object():
    reg = RngRegistry(123)
    assert reg.stream("x") is reg.stream("x")
    assert reg.numpy_stream("x") is reg.numpy_stream("x")


def test_registry_reproducible_across_instances():
    values_a = [RngRegistry(9).stream("s").random() for _ in range(1)]
    values_b = [RngRegistry(9).stream("s").random() for _ in range(1)]
    assert values_a == values_b


def test_registry_streams_are_independent():
    reg = RngRegistry(5)
    first = reg.stream("a").random()
    # Drawing from stream b must not change what stream a yields next.
    reg2 = RngRegistry(5)
    _ = reg2.stream("b").random()
    first2 = reg2.stream("a").random()
    assert first == first2


def test_fork_changes_streams():
    reg = RngRegistry(5)
    child = reg.fork("child")
    assert reg.stream("a").random() != child.stream("a").random()


@given(st.integers(min_value=0, max_value=(1 << 64) - 1))
@settings(max_examples=200, deadline=None)
def test_property_splitmix_stays_in_64_bits(state):
    assert 0 <= splitmix64(state) < (1 << 64)


def test_counter_basics():
    counter = Counter()
    counter.incr("drops")
    counter.incr("drops", 2)
    assert counter.get("drops") == 3
    assert counter.get("missing") == 0


def test_interval_monitor_bins_and_rates():
    mon = IntervalMonitor(window_ns=sec(1), horizon_ns=sec(5))
    mon.note(ms(500))
    mon.note(sec(1) + 1)
    mon.note(sec(1) + 2)
    mon.note(sec(100))  # clamped into the final bin
    counts = mon.counts()
    assert counts[0] == 1
    assert counts[1] == 2
    assert counts[-1] == 1
    rates = mon.rates_per_second()
    assert rates[1] == pytest.approx(2.0)
    assert mon.window_starts_sec()[1] == pytest.approx(1.0)


def test_interval_monitor_validation():
    with pytest.raises(ValueError):
        IntervalMonitor(window_ns=0, horizon_ns=10)


def test_unit_conversions_roundtrip():
    assert us(25) == 25_000
    assert ms(1.5) == 1_500_000
    assert sec(2) == 2_000_000_000
    # Fractional inputs round to the nearest nanosecond (the catalog's
    # 150.4 ms kill lands on an exact integer).
    assert ms(150.4) == 150_400_000
    assert us(7) / MICROS == 7.0
    assert ms(3) / MILLIS == 3.0
    assert sec(9) / SECONDS == 9.0
