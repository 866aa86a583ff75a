"""Micro-benchmark bodies, defined once.

The baseline gate (``tools/bench_baseline.py``) and the profiler
(``tools/profile_hotpath.py``) both import their workloads from here,
so the gated numbers and the profiled code are the same code.  Plain
module: no pytest imports, so the tools can load it by putting this
directory on ``sys.path``.
"""

import numpy as np

from repro.metrics.latency import percentile
from repro.metrics.sketch import LatencySketch
from repro.sim.core import Simulator

#: Events per schedule/run cycle at scale 1.0.
CORE_EVENTS = 4_000_000

#: Metrics-pipeline latency samples at scale 1.0, split over WORKERS.
METRICS_SAMPLES = 10_000_000
WORKERS = 4


def core_events(scale: float) -> int:
    """Schedule/run cycle length at *scale* (at least one event)."""
    return max(1, int(CORE_EVENTS * scale))


def schedule_run(n: int) -> int:
    """Schedule *n* monotone events, then drain them."""
    sim = Simulator()
    call_at = sim.call_at
    noop = int
    for t in range(n):
        call_at(t, noop)
    return sim.run()


def metrics_samples(scale: float) -> int:
    """Metrics-pipeline sample count at *scale* (at least one per worker)."""
    return max(WORKERS, int(METRICS_SAMPLES * scale))


def make_shards(n: int, workers: int = WORKERS, seed: int = 1):
    """Per-worker int64 latency shards (exponential ns, mean 25 µs)."""
    rng = np.random.default_rng(seed)
    samples = (rng.exponential(25_000.0, n) + 1.0).astype(np.int64)
    return np.array_split(samples, workers)


def make_sketches(shards):
    """The per-worker sketch backends as they exist at point end."""
    sketches = []
    for shard in shards:
        sketch = LatencySketch()
        sketch.add_many(shard)
        sketches.append(sketch)
    return sketches


def collect_exact(shards) -> dict:
    """Exact collection: raw sample arrays shipped, merged, selected."""
    payloads = [shard.tobytes() for shard in shards]  # worker → channel
    merged = np.concatenate(
        [np.frombuffer(payload, dtype=np.int64) for payload in payloads]
    )
    return {
        "payload_bytes": sum(len(payload) for payload in payloads),
        "count": int(merged.size),
        "p50": percentile(merged, 50),
        "p99": percentile(merged, 99),
        "p999": percentile(merged, 99.9),
    }


def collect_sketch(sketches) -> dict:
    """Sketch collection: mergeable sketches shipped and folded."""
    payloads = [sketch.to_bytes() for sketch in sketches]  # worker → channel
    merged = LatencySketch.from_bytes(payloads[0])  # parent side
    for payload in payloads[1:]:
        merged.merge(LatencySketch.from_bytes(payload))
    return {
        "payload_bytes": sum(len(payload) for payload in payloads),
        "count": merged.count,
        "p50": merged.quantile(50),
        "p99": merged.quantile(99),
        "p999": merged.quantile(99.9),
    }
