"""Peak-RSS guard: sketch-mode sweeps must stay O(buckets), not O(requests).

Two stages, one process, one `ru_maxrss` ceiling:

1. **fig18, sketch mode, MMPP arrivals** — a real reduced-scale trunk
   sweep through the actual harness (`--workload mmpp --metrics
   sketch`), checking every point carries a serialized sketch and no
   raw sample arrays ride back through the executor.

2. **A 100M-request MMPP sweep point at the metrics plane** — four
   worker-shaped recorders ingest ``--samples`` latency draws whose
   mean is modulated by the MMPP phase process (chunked numpy
   generation, so no stage ever materializes more than one chunk),
   then collection runs exactly as the executor does it: each worker
   ships its O(buckets) ``result_payload``, the parent merges and
   reads p50/p99/p99.9 off the merged sketch.

The guard then asserts the process-wide peak RSS stayed under
``--ceiling-mb``.  The ceiling is calibrated far above the sketch
plane's real footprint (~200 MB, dominated by one 5M-sample chunk)
and far below what any O(requests) regression costs: exact mode at
100M samples needs ~800 MB for the sample array alone, before the
collection copy.  A regression that re-grows per-request state
anywhere on the sketch path fails this loudly.

CI runs ``make rss-guard`` in the bench job; locally::

    PYTHONPATH=src python tools/rss_guard.py
    PYTHONPATH=src python tools/rss_guard.py --samples 10000000  # quick
"""

import argparse
import math
import resource
import sys
import time

import numpy as np

DEFAULT_CEILING_MB = 600
DEFAULT_SAMPLES = 100_000_000
CHUNK = 5_000_000
WORKERS = 4
MEAN_NS = 25_000.0


def _peak_rss_mb() -> float:
    """Process-wide peak RSS in MB (Linux reports ru_maxrss in KB)."""
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak_kb / 1024.0


def _stage_fig18(scale: float, jobs: int) -> str:
    """A real sketch-mode MMPP trunk sweep through the fig18 harness."""
    from repro.experiments.registry import EXPERIMENTS, gate_harness_axes

    # Same harness-capability gating as the CLI: a harness without the
    # workload/metrics axes makes this error, not silently run exact
    # mode and defeat the whole O(buckets) point of the guard.
    collect = EXPERIMENTS.get("fig18").collect
    axes = dict(scale=scale, jobs=jobs, workload="mmpp", metrics="sketch")
    results = collect(**gate_harness_axes(collect, "fig18", axes))
    cells = [point for series in results.values() for _, point in series]
    missing = [point for point in cells if point.latency_sketch is None]
    if missing:
        raise AssertionError(
            f"{len(missing)} of {len(cells)} fig18 cells came back without "
            "a latency sketch in sketch mode"
        )
    total = sum(point.samples for point in cells)
    return f"{len(cells)} cells, {total} requests, all points sketched"


def _stage_big_point(samples: int) -> str:
    """The metrics plane of a 100M-request MMPP point, chunk-streamed."""
    import random

    from repro.metrics.latency import LatencyRecorder
    from repro.metrics.sketch import LatencySketch
    from repro.metrics.sweep import LoadPoint
    from repro.workloads.mmpp import MmppArrivals

    # The MMPP phase process modulates each chunk's latency mean the
    # same way bursts inflate queueing: chunks drawn while the phase
    # process is "high" see burst-scaled service pressure.
    phases = MmppArrivals(random.Random(7), rate_rps=1.0, burst=8.0)
    rng = np.random.default_rng(7)
    recorders = [LatencyRecorder(mode="sketch") for _ in range(WORKERS)]
    per_worker = samples // WORKERS
    ingested = 0
    for worker, recorder in enumerate(recorders):
        remaining = per_worker
        while remaining:
            n = min(CHUNK, remaining)
            burst = 8.0 if phases.next_gap() < 1_000_000_000 else 1.0
            chunk = (rng.exponential(MEAN_NS * burst, n) + 1.0).astype(
                np.int64
            )
            recorder.sketch.add_many(chunk)
            recorder._sum_ns += int(chunk.sum())
            remaining -= n
            ingested += n
    # Collection, exactly as the executor return path does it: workers
    # ship O(buckets) payloads, the parent merges and reduces.
    payloads = [recorder.result_payload() for recorder in recorders]
    payload_bytes = sum(len(payload) for payload in payloads)
    merged = LatencySketch.from_bytes(payloads[0])
    for payload in payloads[1:]:
        merged.merge(LatencySketch.from_bytes(payload))
    point = LoadPoint(
        offered_rps=0.0,
        throughput_rps=0.0,
        p50_us=merged.quantile(50) / 1000.0,
        p99_us=merged.quantile(99) / 1000.0,
        p999_us=merged.quantile(99.9) / 1000.0,
        mean_us=merged.sum / merged.count / 1000.0,
        samples=merged.count,
        latency_sketch=merged.to_bytes(),
    )
    if point.samples != ingested or ingested != per_worker * WORKERS:
        raise AssertionError(
            f"merged sketch covers {point.samples} of {ingested} samples"
        )
    for value in (point.p50_us, point.p99_us, point.p999_us):
        if not math.isfinite(value) or value <= 0:
            raise AssertionError(f"degenerate quantile {value} from merge")
    return (
        f"{point.samples} requests -> {payload_bytes} payload bytes, "
        f"p50 {point.p50_us:.1f} us, p99 {point.p99_us:.1f} us, "
        f"p99.9 {point.p999_us:.1f} us"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ceiling-mb", type=float, default=DEFAULT_CEILING_MB)
    parser.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    parser.add_argument("--scale", type=float, default=0.1,
                        help="fig18 sweep scale (default: 0.1)")
    parser.add_argument("--jobs", type=int, default=2,
                        help="fig18 sweep workers (default: 2)")
    args = parser.parse_args(argv)

    print(f"rss-guard: ceiling {args.ceiling_mb:.0f} MB "
          f"(baseline {_peak_rss_mb():.0f} MB)")
    for name, stage in (
        ("fig18 sketch sweep", lambda: _stage_fig18(args.scale, args.jobs)),
        (f"{args.samples}-request MMPP point",
         lambda: _stage_big_point(args.samples)),
    ):
        start = time.perf_counter()
        detail = stage()
        print(f"  {name}: {detail} "
              f"[{time.perf_counter() - start:.1f}s, "
              f"peak {_peak_rss_mb():.0f} MB]")

    peak = _peak_rss_mb()
    if peak > args.ceiling_mb:
        print(f"rss-guard: FAIL — peak RSS {peak:.0f} MB exceeds the "
              f"{args.ceiling_mb:.0f} MB ceiling (O(requests) memory is "
              "back on the sketch path)")
        return 1
    print(f"rss-guard: OK — peak RSS {peak:.0f} MB "
          f"<= {args.ceiling_mb:.0f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
