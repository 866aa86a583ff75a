#!/usr/bin/env python
"""One-command cProfile harness over the checked-in bench workloads.

Runs the engine schedule/run cycle (``core``) and its cancel-churn
variant (``churn``) — the bodies ``tools/bench_baseline.py`` gates,
imported from ``benchmarks/microbench.py`` — plus the fig18
trunk-saturation packet grid (``fig18``) under :mod:`cProfile`, and
prints the top cumulative-time entries, so perf PRs start from data
instead of guesses::

    python tools/profile_hotpath.py                 # all targets
    python tools/profile_hotpath.py core fig18      # a subset
    python tools/profile_hotpath.py --top 40 --dump prof-out

``--dump DIR`` additionally writes one binary pstats file per target
for ``snakeviz``/``pstats`` spelunking.

``REPRO_BENCH_SCALE`` (default 0.25) and ``REPRO_BENCH_SEED`` match
the bench harness, so profiles line up with the recorded baselines.
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "benchmarks"))

import microbench  # noqa: E402  (path bootstrap above)


def _run_core(scale: float, seed: int) -> None:
    n = microbench.core_events(scale)
    assert microbench.schedule_run(n) == n


def _run_churn(scale: float, seed: int) -> None:
    n = microbench.core_events(scale)
    assert microbench.schedule_run_churn(n) == microbench.churn_executed(n)


def _run_fig18(scale: float, seed: int) -> None:
    from repro.experiments import fig18_trunk_saturation

    results = fig18_trunk_saturation.collect(scale=scale, seed=seed)
    assert sum(len(cells) for cells in results.values()) > 0


TARGETS = {
    "core": _run_core,
    "churn": _run_churn,
    "fig18": _run_fig18,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "targets", nargs="*", choices=[[], *TARGETS],
        help=f"workloads to profile (default: all of {', '.join(TARGETS)})",
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
        "--top", type=int, default=20,
        help="rows of the cumulative-time report (default 20)",
    )
    parser.add_argument(
        "--dump", type=Path, default=None, metavar="DIR",
        help="also write one binary pstats file per target into DIR",
    )
    args = parser.parse_args(argv)
    targets = args.targets or list(TARGETS)
    if args.dump is not None:
        args.dump.mkdir(parents=True, exist_ok=True)

    # Import the fig18 harness up front so one-time import work doesn't
    # show up as its hot path (microbench is already imported).
    import repro.experiments.fig18_trunk_saturation  # noqa: F401

    for name in targets:
        workload = TARGETS[name]
        profiler = cProfile.Profile()
        profiler.enable()
        workload(args.scale, args.seed)
        profiler.disable()
        stats = pstats.Stats(profiler, stream=sys.stdout)
        print(f"\n== {name}: top {args.top} by cumulative time "
              f"(scale {args.scale}) ==")
        stats.sort_stats("cumulative").print_stats(args.top)
        if args.dump is not None:
            out = args.dump / f"{name}.pstats"
            stats.dump_stats(out)
            print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
