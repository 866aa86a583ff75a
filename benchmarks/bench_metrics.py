"""Benchmark: latency-metrics collection, exact arrays vs sketches.

Models the collection half of a sweep: by the time a point finishes,
each of ``workers`` sweep workers already holds its latency backend —
an ``array("q")``-equivalent sample vector in exact mode, a
:class:`~repro.metrics.sketch.LatencySketch` in sketch mode (both are
filled incrementally *during* the simulation, so ingest is not
collection).  Collection is what happens next, and is what these
benches time: serialize each worker's result payload (what the pool
pipe / shm channel ships), deserialize in the parent, merge the
shards, and read p50/p99/p99.9.  Exact mode ships, copies and
partition-selects O(requests) bytes; sketch mode ships O(buckets) and
merges bucket-wise — the gap is the point of the streaming metrics
plane.

``REPRO_BENCH_SCALE`` scales the sample count (10M at scale 1.0,
2.5M at the default 0.25).  A third bench times sketch ingest
(``add_many``) so the recording side has a pinned rate too.  The
sketch pipeline must agree with exact p50/p99/p99.9 within the
sketch's 1% relative-error contract — checked here, not just in the
unit tests, so the speed claim can never drift from the accuracy
claim.  The collection bodies live in :mod:`microbench`, shared with
``tools/bench_baseline.py``.
"""

from conftest import run_once
from microbench import (
    collect_exact,
    collect_sketch,
    make_shards,
    make_sketches,
    metrics_samples,
)


def _shards(bench_scale):
    return make_shards(metrics_samples(bench_scale))


def bench_metrics_collect_exact(benchmark, bench_scale):
    shards = _shards(bench_scale)
    result = run_once(benchmark, collect_exact, shards=shards)
    assert result["count"] == sum(len(shard) for shard in shards)


def bench_metrics_collect_sketch(benchmark, bench_scale):
    shards = _shards(bench_scale)
    exact = collect_exact(shards)
    sketches = make_sketches(shards)
    result = run_once(benchmark, collect_sketch, sketches=sketches)
    assert result["count"] == exact["count"]
    # Payload and accuracy contracts, enforced alongside the timing.
    assert result["payload_bytes"] * 10 <= exact["payload_bytes"]
    for q in ("p50", "p99", "p999"):
        assert abs(result[q] - exact[q]) <= 0.0101 * exact[q]


def bench_metrics_sketch_ingest(benchmark, bench_scale):
    shards = _shards(bench_scale)
    sketches = run_once(benchmark, make_sketches, shards=shards)
    assert sum(sketch.count for sketch in sketches) == sum(
        len(shard) for shard in shards
    )
