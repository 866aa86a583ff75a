#!/usr/bin/env python
"""One-command cProfile harness over the checked-in bench workloads.

Runs the engine schedule/run cycle (``core``) — the body
``tools/bench_baseline.py`` gates, imported from
``benchmarks/microbench.py`` — plus the fig18
trunk-saturation packet grid (``fig18``) under :mod:`cProfile`, and
prints the top entries, so perf PRs start from data instead of
guesses.  The four packet-path workloads the end-to-end benchmark
gates (``star-clone``, ``star-baseline-hi``, ``spine-global``,
``kv-netclone``, read from ``benchmarks/e2e/workloads.py``) are
targets too; only their ``Cluster.run()`` is profiled, not the build::

    python tools/profile_hotpath.py                 # core, fig18
    python tools/profile_hotpath.py core fig18      # a subset
    python tools/profile_hotpath.py star-clone --sort tottime
    python tools/profile_hotpath.py --top 40 --dump prof-out

``--sort`` picks the report order (``cumulative``, the default,
``tottime`` or ``ncalls``).  ``--dump DIR`` additionally writes one
binary pstats file per target for ``snakeviz``/``pstats`` spelunking.

``REPRO_BENCH_SCALE`` (default 0.25) and ``REPRO_BENCH_SEED`` match
the bench harness, so profiles line up with the recorded baselines.
The scale also shrinks each end-to-end workload's measurement window.

Under the C core (``USING_CCORE``) the scheduler, the packet plane
(packet acquire/release/copy and NetClone header copies), the
forwarding hop (link booking, switch ingress/egress, host NIC slots,
recirculation), the NetClone switch pass, the server's request path
(accept, clone drop, dispatch, respond, and the KV service's cost,
jitter, execution and response size) and the client's (arrival
pre-draw with the NetClone and Baseline packet builds, send, response
bookkeeping) run in ``sim/_ccore.c``;
cProfile sees no frame for them and charges their time to
``Simulator.run``'s self time (packet calls made from Python show up
as builtin methods).  Each report then opens with a note line saying so: the
per-layer split comes from the end-to-end benchmark's tracer,
``python benchmarks/e2e/run.py --trace 1``.
"""

from __future__ import annotations

import argparse
import cProfile
import importlib.util
import os
import pstats
import sys
from pathlib import Path
from typing import Callable

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "benchmarks"))

import microbench  # noqa: E402  (path bootstrap above)


def _load_e2e_workloads():
    # Loaded by path, under its own name: the benchmark directory is
    # read, never put on sys.path.
    path = REPO / "benchmarks" / "e2e" / "workloads.py"
    spec = importlib.util.spec_from_file_location("e2e_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


E2E = _load_e2e_workloads()

#: A target builds its workload, untimed, and returns what to profile.
Target = Callable[[float, int], Callable[[], None]]


def _core(scale: float, seed: int) -> Callable[[], None]:
    n = microbench.core_events(scale)

    def run() -> None:
        assert microbench.schedule_run(n) == n

    return run


def _fig18(scale: float, seed: int) -> Callable[[], None]:
    from repro.experiments import fig18_trunk_saturation

    def run() -> None:
        results = fig18_trunk_saturation.collect(scale=scale, seed=seed)
        assert sum(len(cells) for cells in results.values()) > 0

    return run


def _e2e(name: str) -> Target:
    def build(scale: float, seed: int) -> Callable[[], None]:
        from repro.experiments.common import Cluster, ClusterConfig

        spec = {**E2E.COMMON, **E2E.WORKLOADS[name], "seed": seed}
        spec["measure_ns"] = max(1, int(spec["measure_ns"] * scale))
        cluster = Cluster(ClusterConfig(**spec))
        cluster.start()
        return cluster.run

    return build


TARGETS = {
    "core": _core,
    "fig18": _fig18,
    **{name: _e2e(name) for name in E2E.WORKLOADS},
}
#: What runs when no target is named.
DEFAULT_TARGETS = ("core", "fig18")
#: Printed above each report when the C core is live.
C_CORE_NOTE = (
    "note: the C core runs the scheduler, the packet plane, the forwarding "
    "hop, the NetClone switch pass, the server's request path with the KV "
    "service and the client's, charged to Simulator.run's self time (the "
    "workloads' request chunks and other clients' builds still show); "
    "per-layer split: python benchmarks/e2e/run.py --trace 1"
)
SORTS = ("cumulative", "tottime", "ncalls")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "targets", nargs="*", choices=[[], *TARGETS],
        help=f"workloads to profile (default: {', '.join(DEFAULT_TARGETS)})",
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
        help="rows of the report (default 20)",
    )
    parser.add_argument(
        "--sort", choices=SORTS, default="cumulative",
        help="report order (default cumulative)",
    )
    parser.add_argument(
        "--dump", type=Path, default=None, metavar="DIR",
        help="also write one binary pstats file per target into DIR",
    )
    args = parser.parse_args(argv)
    targets = args.targets or list(DEFAULT_TARGETS)
    if args.dump is not None:
        args.dump.mkdir(parents=True, exist_ok=True)

    # Import the fig18 harness up front so one-time import work doesn't
    # show up as its hot path (microbench is already imported).
    import repro.experiments.fig18_trunk_saturation  # noqa: F401
    from repro.sim.core import USING_CCORE

    for name in targets:
        run = TARGETS[name](args.scale, args.seed)
        profiler = cProfile.Profile()
        profiler.enable()
        run()
        profiler.disable()
        stats = pstats.Stats(profiler, stream=sys.stdout)
        print(f"\n== {name}: top {args.top} by {args.sort} "
              f"(scale {args.scale}) ==")
        if USING_CCORE:
            print(C_CORE_NOTE)
        stats.sort_stats(args.sort).print_stats(args.top)
        if args.dump is not None:
            out = args.dump / f"{name}.pstats"
            stats.dump_stats(out)
            print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
