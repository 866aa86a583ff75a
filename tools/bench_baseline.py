#!/usr/bin/env python
"""Measure, record and police the repo's performance baselines.

Two baselines are kept checked in at the repo root:

* ``BENCH_core.json`` — raw engine throughput: schedule/run cycles of
  bare fast-lane events (``Simulator.call_at``), in events/sec, plus
  the cancel-churn variant (every fourth event a cancellable that gets
  cancelled) exercising lazy deletion and compaction under the fast
  lane's feet.
* ``BENCH_metrics.json`` — the metrics-collection pipeline of the
  streaming metrics plane: per-worker result payloads serialized,
  merged and reduced to p50/p99/p99.9, once from exact sample arrays
  and once from mergeable latency sketches, plus the sketch ingest
  rate.  Records the sketch-over-exact wall-time speedup and payload
  shrink factors the streaming plane claims (≥5× / ≥10× at 10M
  samples).

Both time the workload bodies of ``benchmarks/microbench.py``, the
same code the pytest-benchmark harnesses and ``tools/profile_hotpath.py``
run.  End-to-end packet-path numbers come from ``benchmarks/e2e``
(see its README), not from here.

Every ``--update`` also appends one timestamped record per bench to
``BENCH_history.jsonl`` (bench, commit, wall_s_p50, throughput), and
compare mode prints the delta against the last history entry — the
bench trajectory across PRs, not just the latest snapshot.

Modes::

    python tools/bench_baseline.py --update   # re-measure, rewrite both files
    python tools/bench_baseline.py            # re-measure, compare, exit 1 on
                                              # a >30% throughput regression

``REPRO_BENCH_SCALE`` (default 0.25) sets the measurement scale — the
baselines are recorded at 0.25 and compare mode refuses to compare
across scales.  ``REPRO_BENCH_ROUNDS`` (default 3) sets how many times
each measurement repeats; the p50 wall time is what's recorded, which
keeps one background-load spike from failing a run.

Throughput is hardware-bound: after moving to a different CI runner
class or workstation, refresh the files with ``--update`` in the same
change that starts exercising them there.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "benchmarks"))

import microbench  # noqa: E402  (path bootstrap above)

#: Relative throughput drop that fails compare mode.
TOLERANCE = 0.30

#: Append-only bench trajectory (one JSON record per line).
HISTORY = "BENCH_history.jsonl"


def _measure_core(scale: float, seed: int, rounds: int) -> dict:
    n = microbench.core_events(scale)
    churn_executed = microbench.churn_executed(n)
    walls = []
    churn_walls = []
    for _ in range(rounds):
        start = time.perf_counter()
        executed = microbench.schedule_run(n)
        walls.append(time.perf_counter() - start)
        assert executed == n

        start = time.perf_counter()
        executed = microbench.schedule_run_churn(n)
        churn_walls.append(time.perf_counter() - start)
        assert executed == churn_executed
    wall = statistics.median(walls)
    churn_wall = statistics.median(churn_walls)
    return {
        "bench": "core",
        "scale": scale,
        "events": n,
        "rounds": rounds,
        "wall_s_p50": round(wall, 4),
        "events_per_sec": round(n / wall, 1),
        "churn_wall_s_p50": round(churn_wall, 4),
        "churn_events_per_sec": round(churn_executed / churn_wall, 1),
    }


#: Sketch collection finishes in well under a millisecond; running it
#: this many times per round keeps timer noise out of the recorded rate.
_METRICS_SKETCH_ITERS = 20


def _measure_metrics(scale: float, seed: int, rounds: int) -> dict:
    n = microbench.metrics_samples(scale)
    shards = microbench.make_shards(n, seed=seed)
    # Backends as they exist when a point finishes: recording happens
    # during the simulation in both modes, so only collection is timed.
    sketches = []
    ingest_walls = []
    for _ in range(rounds):
        start = time.perf_counter()
        sketches = microbench.make_sketches(shards)
        ingest_walls.append(time.perf_counter() - start)
    exact_walls, sketch_walls = [], []
    exact = sketch = None
    for _ in range(rounds):
        start = time.perf_counter()
        exact = microbench.collect_exact(shards)
        exact_walls.append(time.perf_counter() - start)
        start = time.perf_counter()
        for _ in range(_METRICS_SKETCH_ITERS):
            sketch = microbench.collect_sketch(sketches)
        sketch_walls.append((time.perf_counter() - start) / _METRICS_SKETCH_ITERS)
    exact_wall = statistics.median(exact_walls)
    sketch_wall = statistics.median(sketch_walls)
    ingest_wall = statistics.median(ingest_walls)
    for q in ("p50", "p99", "p999"):
        drift = abs(sketch[q] - exact[q]) / exact[q]
        assert drift <= 0.0101, f"sketch {q} drifted {drift:.2%} from exact"
    return {
        "bench": "metrics",
        "scale": scale,
        "samples": n,
        "workers": microbench.WORKERS,
        "rounds": rounds,
        "wall_s_p50": round(exact_wall, 4),
        "sketch_wall_s_p50": round(sketch_wall, 6),
        "ingest_wall_s_p50": round(ingest_wall, 4),
        "sketch_collects_per_sec": round(1.0 / sketch_wall, 1),
        "exact_samples_per_sec": round(n / exact_wall, 1),
        "ingest_samples_per_sec": round(n / ingest_wall, 1),
        "collect_speedup": round(exact_wall / sketch_wall, 1),
        "exact_payload_bytes": exact["payload_bytes"],
        "sketch_payload_bytes": sketch["payload_bytes"],
        "payload_shrink": round(exact["payload_bytes"] / sketch["payload_bytes"], 1),
    }


BASELINES = (
    ("BENCH_core.json", ("events_per_sec", "churn_events_per_sec"), _measure_core),
    (
        "BENCH_metrics.json",
        ("sketch_collects_per_sec", "exact_samples_per_sec", "ingest_samples_per_sec"),
        _measure_metrics,
    ),
)


def _compare(baseline: dict, measured: dict, rate_keys: tuple) -> list:
    """Error strings where *measured* regresses past tolerance."""
    if baseline.get("scale") != measured["scale"]:
        return [
            f"scale mismatch: baseline recorded at {baseline.get('scale')}, "
            f"measured at {measured['scale']} (set REPRO_BENCH_SCALE to match)"
        ]
    errors = []
    for rate_key in rate_keys:
        if rate_key not in baseline:
            errors.append(f"no checked-in {rate_key} (run --update)")
            continue
        old = float(baseline[rate_key])
        new = float(measured[rate_key])
        floor = old * (1.0 - TOLERANCE)
        if new < floor:
            errors.append(
                f"{rate_key} regressed {1.0 - new / old:.1%}: "
                f"{new:,.1f} vs baseline {old:,.1f} "
                f"(floor {floor:,.1f} at {TOLERANCE:.0%} tolerance)"
            )
    return errors


def _git_commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO, capture_output=True, text=True, check=True,
        )
        return proc.stdout.strip() or "unknown"
    except Exception:
        return "unknown"


def _history_append(measured: dict, rate_keys: tuple) -> None:
    """Append one trajectory record for *measured* to the history file."""
    record = {
        "ts": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "commit": _git_commit(),
        "bench": measured["bench"],
        "scale": measured["scale"],
        "wall_s_p50": measured["wall_s_p50"],
        "throughput": measured[rate_keys[0]],
    }
    for rate_key in rate_keys[1:]:
        record[rate_key] = measured[rate_key]
    with open(REPO / HISTORY, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")


def _history_last(bench: str, scale: float) -> dict | None:
    """The most recent history record for *bench* at *scale*, if any."""
    path = REPO / HISTORY
    if not path.exists():
        return None
    last = None
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if record.get("bench") == bench and record.get("scale") == scale:
            last = record
    return last


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--update", action="store_true",
        help="rewrite the checked-in baselines instead of comparing "
             "(also appends a record per bench to BENCH_history.jsonl)",
    )
    parser.add_argument(
        "--scale", type=float,
        default=float(os.environ.get("REPRO_BENCH_SCALE", "0.25")),
    )
    parser.add_argument(
        "--seed", type=int,
        default=int(os.environ.get("REPRO_BENCH_SEED", "1")),
    )
    parser.add_argument(
        "--rounds", type=int,
        default=int(os.environ.get("REPRO_BENCH_ROUNDS", "3")),
    )
    parser.add_argument(
        "--out", type=Path, default=None, metavar="DIR",
        help="also write the freshly measured JSONs into DIR "
             "(CI uploads these as the run's artifact)",
    )
    args = parser.parse_args(argv)
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)

    failures = []
    for filename, rate_keys, measure in BASELINES:
        path = REPO / filename
        measured = measure(args.scale, args.seed, args.rounds)
        rates = ", ".join(f"{key}={measured[key]:,}" for key in rate_keys)
        print(
            f"{filename}: {rates} "
            f"(p50 wall {measured['wall_s_p50']}s over {args.rounds} rounds)"
        )
        if args.out is not None:
            (args.out / filename).write_text(json.dumps(measured, indent=2) + "\n")
        if args.update:
            path.write_text(json.dumps(measured, indent=2) + "\n")
            _history_append(measured, rate_keys)
            print(f"  wrote {path.relative_to(REPO)} (+ {HISTORY} record)")
            continue
        if not path.exists():
            failures.append(f"{filename}: no checked-in baseline (run --update)")
            continue
        baseline = json.loads(path.read_text())
        errors = _compare(baseline, measured, rate_keys)
        for error in errors:
            failures.append(f"{filename}: {error}")
        if not errors:
            primary = rate_keys[0]
            old = float(baseline[primary])
            print(f"  ok vs baseline {old:,} ({measured[primary] / old:.2f}x)")
        previous = _history_last(measured["bench"], args.scale)
        if previous and "throughput" in previous:
            prior = float(previous["throughput"])
            now = float(measured[rate_keys[0]])
            print(
                f"  history: {now:,} vs {prior:,} at "
                f"{previous.get('commit', '?')} {previous.get('ts', '?')} "
                f"({now / prior:.2f}x)"
            )

    if failures:
        for failure in failures:
            print(f"FAIL {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
