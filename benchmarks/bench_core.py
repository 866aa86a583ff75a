"""Benchmark: raw engine throughput, no network model on top.

Two substrates every experiment sits on, measured in isolation: the
event loop's fast lane (``call_at`` pushing bare tuples) and the
packet free-list pool.  ``REPRO_BENCH_SCALE`` scales the cycle counts
(1M schedule/run cycles at the default 0.25).  The event-loop bodies
live in :mod:`microbench`, shared with ``tools/bench_baseline.py``.
"""

from conftest import run_once
from microbench import churn_executed, core_events, schedule_run, schedule_run_churn

from repro.net.packet import PacketPool


def _pool_cycle(n: int) -> PacketPool:
    """Acquire/release *n* packet lives through one pool."""
    pool = PacketPool()
    for _ in range(n):
        pool.acquire(1, 2, 3, 4, 128).release()
    return pool


def bench_core_schedule_run(benchmark, bench_scale):
    n = core_events(bench_scale)
    executed = run_once(benchmark, schedule_run, n=n)
    assert executed == n


def bench_core_schedule_run_churn(benchmark, bench_scale):
    n = core_events(bench_scale)
    executed = run_once(benchmark, schedule_run_churn, n=n)
    assert executed == churn_executed(n)


def bench_core_packet_pool(benchmark, bench_scale):
    n = core_events(bench_scale)
    pool = run_once(benchmark, _pool_cycle, n=n)
    # Steady state: one backing object recycled for every life.
    assert pool.allocated == 1
    assert pool.released == n
