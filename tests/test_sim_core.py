"""Tests for the discrete-event engine core.

Every test runs its scheduling contract on both engines: the live
``Simulator`` (the C core wherever it builds) and the pure-Python
reference ``PySimulator``.  When the C core is off the two are the same
class and each test runs once.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchedulingError
from repro.sim.core import PySimulator, Simulator

#: The distinct engine classes, live engine first.
ENGINES = tuple(dict.fromkeys((Simulator, PySimulator)))


def test_both_engines_expose_one_scheduling_surface():
    surface = {"now", "call_at", "call_after", "run", "peek", "pending", "event_count"}
    for engine in (Simulator, PySimulator):
        assert {name for name in dir(engine) if not name.startswith("_")} == surface


def test_clock_starts_at_zero():
    for engine in ENGINES:
        sim = engine()
        assert sim.now == 0
        assert sim.pending == 0


def test_schedule_runs_callback_at_time():
    for engine in ENGINES:
        sim = engine()
        fired = []
        sim.call_after(1_000, fired.append, "a")
        sim.run()
        assert fired == ["a"]
        assert sim.now == 1_000


def test_events_fire_in_time_order():
    for engine in ENGINES:
        sim = engine()
        order = []
        sim.call_after(300, order.append, 3)
        sim.call_after(100, order.append, 1)
        sim.call_after(200, order.append, 2)
        sim.run()
        assert order == [1, 2, 3]


def test_same_time_events_fifo():
    for engine in ENGINES:
        sim = engine()
        order = []
        for i in range(10):
            sim.call_after(50, order.append, i)
        sim.run()
        assert order == list(range(10))


def test_zero_delay_runs_after_current_instant_fifo():
    for engine in ENGINES:
        sim = engine()
        order = []

        def first():
            order.append("first")
            sim.call_after(0, order.append, "nested")

        sim.call_after(10, first)
        sim.call_after(10, order.append, "second")
        sim.run()
        assert order == ["first", "second", "nested"]


def test_negative_delay_rejected():
    for engine in ENGINES:
        sim = engine()
        with pytest.raises(SchedulingError):
            sim.call_after(-1, lambda: None)


def test_at_in_past_rejected():
    for engine in ENGINES:
        sim = engine()
        sim.call_after(100, lambda: None)
        sim.run()
        with pytest.raises(SchedulingError):
            sim.call_at(50, lambda: None)


def test_run_until_stops_and_advances_clock():
    for engine in ENGINES:
        sim = engine()
        fired = []
        sim.call_after(100, fired.append, 1)
        sim.call_after(900, fired.append, 2)
        sim.run(until=500)
        assert fired == [1]
        assert sim.now == 500
        sim.run()
        assert fired == [1, 2]
        assert sim.now == 900


def test_run_until_advances_clock_when_queue_drains():
    for engine in ENGINES:
        sim = engine()
        sim.call_after(10, lambda: None)
        sim.run(until=1_000)
        assert sim.now == 1_000


def test_run_max_events():
    for engine in ENGINES:
        sim = engine()
        fired = []
        for i in range(5):
            sim.call_after(i + 1, fired.append, i)
        executed = sim.run(max_events=3)
        assert executed == 3
        assert fired == [0, 1, 2]


def test_step_runs_exactly_one_event():
    for engine in ENGINES:
        sim = engine()
        fired = []
        sim.call_after(10, fired.append, "a")
        sim.call_after(20, fired.append, "b")
        assert sim.run(max_events=1) == 1
        assert fired == ["a"]
        assert sim.now == 10
        assert sim.run(max_events=1) == 1
        assert sim.run(max_events=1) == 0
        assert sim.now == 20


def test_peek_returns_earlier_lane_head():
    for engine in ENGINES:
        sim = engine()
        sim.call_at(30, lambda: None)
        assert sim.peek() == 30  # tail head only
        sim.call_at(10, lambda: None)  # out of order: heap lane
        assert sim.peek() == 10  # heap head beats the tail head
        sim.run(max_events=1)
        assert sim.peek() == 30
        assert sim.pending == 1


def test_peek_empty_returns_none():
    for engine in ENGINES:
        sim = engine()
        assert sim.peek() is None


def test_event_count_accumulates():
    for engine in ENGINES:
        sim = engine()
        for i in range(7):
            sim.call_after(i, lambda: None)
        sim.run()
        assert sim.event_count == 7


def test_callbacks_can_schedule_more_work():
    for engine in ENGINES:
        sim = engine()
        seen = []

        def chain(n):
            seen.append(n)
            if n < 5:
                sim.call_after(10, chain, n + 1)

        sim.call_after(0, chain, 0)
        sim.run()
        assert seen == [0, 1, 2, 3, 4, 5]
        assert sim.now == 50


@given(delays=st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=200))
@settings(max_examples=50, deadline=None)
def test_property_events_fire_in_nondecreasing_time(delays):
    for engine in ENGINES:
        sim = engine()
        fire_times = []
        for delay in delays:
            sim.call_after(delay, lambda: fire_times.append(sim.now))
        sim.run()
        assert fire_times == sorted(fire_times)
        assert len(fire_times) == len(delays)


@given(
    delays=st.lists(
        st.tuples(st.integers(min_value=0, max_value=100), st.integers()),
        min_size=1,
        max_size=100,
    )
)
@settings(max_examples=50, deadline=None)
def test_property_fifo_within_equal_times(delays):
    for engine in ENGINES:
        sim = engine()
        fired = []
        for delay, tag in delays:
            sim.call_after(delay, fired.append, (delay, tag))
        sim.run()
        # Stable sort by delay must reproduce the firing order exactly.
        assert fired == sorted(fired, key=lambda pair: pair[0])
