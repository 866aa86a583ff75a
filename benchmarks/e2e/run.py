#!/usr/bin/env python
"""End-to-end packet-path benchmark: simulated requests per wall-second.

Runs each workload of ``workloads.py`` in a fresh child interpreter
(``child.py``), one at a time and single-process, so the load fits a
2-core machine::

    python benchmarks/e2e/run.py --seed 1 [--json out.json]
    python benchmarks/e2e/run.py --workload star-clone --seed 3 --seconds 20 --trace 0

Without ``--trace`` every workload runs an untraced child (end-to-end
metrics, the median of its timed reps, with times normalised to nominal
machine speed by ``reference.py``) and a traced child (per-layer split,
see ``spans.py``).  ``--trace 0`` runs only the untraced child
and reports the end-to-end metrics; ``--trace 1`` reports only the
per-layer metrics.  Every metric is printed by name and unit; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 1 if any
correctness check failed, and 2 (with no result line) if a child could
not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from spans import LAYERS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: Scratch space for the children (the C core's compiler temp files).
TMP = ROOT / ".bench_build" / "tmp"
#: Wall-clock cap for one invocation, children included.
DEADLINE_S = 170.0

E2E_UNITS = {"sim_rps": "req/s", "setup_s": "s", "peak_rss_mb": "MB"}


class ChildFailed(RuntimeError):
    """A child interpreter exited abnormally or printed no result."""


def run_child(
    workload: str,
    seed: int,
    traced: bool,
    seconds: float,
    deadline: float,
    measure_ns: Optional[int],
) -> Dict[str, Any]:
    cmd = [
        sys.executable,
        str(HERE / "child.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
    ]
    if traced:
        cmd.append("--traced")
    if measure_ns is not None:
        cmd += ["--measure-ns", str(measure_ns)]
    TMP.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(TMP))
    kind = "traced" if traced else "untraced"
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{workload} ({kind}) timed out after {exc.timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-5:]
        raise ChildFailed(
            f"{workload} ({kind}) exited {proc.returncode}: " + " | ".join(tail)
        )
    return json.loads(lines[-1])


def _ratio(part: float, whole: float) -> float:
    """part / whole, or 0 for a layer or counter the workload never uses."""
    return part / whole if whole else 0.0


def e2e_metrics(untraced: Dict[str, Any]) -> Dict[str, float]:
    """Times normalised to nominal machine speed (see ``reference.py``)."""
    reps = untraced["reps"]
    return {
        "sim_rps": statistics.median(r["answered"] / r["nominal_s"] for r in reps),
        "setup_s": statistics.median(untraced["setup_s"]) * untraced["speed"],
        "peak_rss_mb": untraced["peak_rss_mb"],
    }


def wall_metrics(untraced: Dict[str, Any]) -> Dict[str, float]:
    """The same times as measured, and the factor that normalised them."""
    reps = untraced["reps"]
    return {
        "sim_rps_wall": statistics.median(r["answered"] / r["wall_s"] for r in reps),
        "setup_s_wall": statistics.median(untraced["setup_s"]),
        "speed": untraced["speed"],
    }


def layer_metrics(untraced: Dict[str, Any], traced: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer split of the traced rep plus counts of the untraced one."""
    rep = untraced["reps"][0]
    out = rep["outputs"]
    counts = rep["counts"]
    nominal = statistics.median(r["nominal_s"] for r in untraced["reps"])
    answered = rep["answered"]
    traced_rep = traced["reps"][0]
    # Self times are wall time; scale them to nominal speed like the rest.
    speed = traced_rep["nominal_s"] / traced_rep["wall_s"]
    layers = traced_rep["trace"]["layers"]
    attributed_s = sum(layer["self_ns"] for layer in layers.values()) / 1e9 * speed
    metrics: Dict[str, float] = {}
    for name in LAYERS:
        layer = layers[name]
        self_s = layer["self_ns"] / 1e9 * speed
        metrics[f"{name}.self_us_per_req"] = _ratio(self_s * 1e6, answered)
        metrics[f"{name}.share"] = _ratio(self_s, attributed_s)
        metrics[f"{name}.calls_per_req"] = _ratio(layer["calls"], answered)
    cloned = out["nc_cloned"]
    metrics.update({
        "sim.core.events_per_req": _ratio(out["events"], answered),
        "sim.core.events_per_s": out["events"] / nominal,
        "net.packet.pkts_per_req": _ratio(out["uids"], answered),
        "switchsim.passes_per_req": _ratio(counts["passes"], answered),
        "switchsim.recirc_per_req": _ratio(counts["recirculated"], answered),
        "core.program.clone_frac": _ratio(cloned, answered),
        "core.program.filter_frac": _ratio(out["nc_filtered"], cloned),
        "core.server.clone_drop_frac": _ratio(out["clones_dropped"], cloned),
        "apps.client.redundant_frac": _ratio(out["redundant_responses"], answered),
        "trace.overhead": traced_rep["nominal_s"] / nominal,
        "trace.unattributed_frac": abs(nominal - attributed_s) / nominal,
    })
    return metrics


def layer_units() -> Dict[str, str]:
    units = {}
    for name in LAYERS:
        units[f"{name}.self_us_per_req"] = "us/req"
        units[f"{name}.share"] = "ratio"
        units[f"{name}.calls_per_req"] = "calls/req"
    units.update({
        "sim.core.events_per_req": "events/req",
        "sim.core.events_per_s": "events/s",
        "net.packet.pkts_per_req": "pkts/req",
        "switchsim.passes_per_req": "passes/req",
        "switchsim.recirc_per_req": "recircs/req",
        "core.program.clone_frac": "ratio",
        "core.program.filter_frac": "ratio",
        "core.server.clone_drop_frac": "ratio",
        "apps.client.redundant_frac": "ratio",
        "trace.overhead": "x",
        "trace.unattributed_frac": "ratio",
    })
    return units


def checks(workload: str, children: List[Dict[str, Any]]) -> List[str]:
    """Failed correctness checks across a workload's children."""
    failed = []
    for child in children:
        kind = "traced" if child["traced"] else "untraced"
        for i, rep in enumerate(child["reps"]):
            failed += [f"{workload} {kind} rep {i}: {c}" for c in rep["checks"]]
    untraced = children[0]
    digests = [rep["digest"] for rep in untraced["reps"]]
    if len(set(digests)) != 1:
        failed.append(f"{workload} digest-reps: reps disagree {digests}")
    for child in children[1:]:
        if child["reps"][0]["digest"] != digests[0]:
            failed.append(
                f"{workload} digest-traced: traced {child['reps'][0]['digest']} "
                f"!= untraced {digests[0]}"
            )
    engines = {child["engine"] for child in children}
    if len(engines) != 1:
        failed.append(f"{workload} engine: children ran {sorted(engines)}")
    return failed


def measure(
    workloads: List[str],
    seed: int,
    seconds: float,
    trace: Optional[int],
    measure_ns: Optional[int] = None,
) -> Dict[str, Any]:
    deadline = time.monotonic() + DEADLINE_S
    result: Dict[str, Any] = {"seed": seed, "workloads": {}}
    failed: List[str] = []
    # The per-layer metrics need the untraced wall only as a reference,
    # so a traced-only run keeps its untraced child at the minimum reps.
    untraced_seconds = 0.0 if trace == 1 else seconds
    for name in workloads:
        untraced = run_child(name, seed, False, untraced_seconds, deadline, measure_ns)
        children = [untraced]
        if trace != 0:
            children.append(run_child(name, seed, True, 0.0, deadline, measure_ns))
        failed += checks(name, children)
        rep = untraced["reps"][0]
        entry: Dict[str, Any] = {
            "engine": untraced["engine"],
            "reps": len(untraced["reps"]),
            "digest": rep["digest"],
            "outputs": rep["outputs"],
            "late": rep["late"],
            "attempted": sum(r["sent"] for c in children for r in c["reps"]),
            "failed": sum(r["lost"] for c in children for r in c["reps"]),
        }
        if trace != 1:
            entry["e2e"] = e2e_metrics(untraced)
            entry["wall"] = wall_metrics(untraced)
        if trace != 0:
            traced_rep = children[1]["reps"][0]
            entry["digest_traced"] = traced_rep["digest"]
            entry["per_layer"] = layer_metrics(untraced, children[1])
            entry["spans"] = traced_rep["trace"]
        result["workloads"][name] = entry
    engines = {w["engine"] for w in result["workloads"].values()}
    result["engine"] = engines.pop() if len(engines) == 1 else "mixed"
    result["correct"] = not failed
    result["failed_checks"] = failed
    return result


def summary_line(result: Dict[str, Any]) -> Dict[str, Any]:
    """The final stdout line; names are bare for a single workload."""
    units = {**E2E_UNITS, **layer_units()}
    entries = result["workloads"]
    prefix = len(entries) > 1
    metrics = {}
    for workload, entry in entries.items():
        values = {**entry.get("e2e", {}), **entry.get("per_layer", {})}
        for name, value in values.items():
            key = f"{workload}:{name}" if prefix else name
            metrics[key] = {"value": value, "unit": units[name]}
    return {
        "correct": result["correct"],
        "attempted": sum(e["attempted"] for e in entries.values()),
        "failed": sum(e["failed"] for e in entries.values()),
        "metrics": metrics,
    }


def print_report(result: Dict[str, Any]) -> None:
    units = {**E2E_UNITS, **layer_units()}
    print(f"engine: {result['engine']}  seed: {result['seed']}")
    for workload, entry in result["workloads"].items():
        out = entry["outputs"]
        print(
            f"\n== {workload}  ({entry['reps']} reps, digest {entry['digest']})\n"
            f"  simulated: p50 {out['p50_us']:.2f} us  p99 {out['p99_us']:.2f} us  "
            f"p99.9 {out['p999_us']:.2f} us  samples {out['samples']}  "
            f"throughput {out['throughput_rps']:.0f} req/s  "
            f"late at drain end {entry['late']}"
        )
        if "wall" in entry:
            wall = entry["wall"]
            print(
                f"  as measured: {wall['sim_rps_wall']:.6g} req/s, set-up "
                f"{wall['setup_s_wall']:.6g} s, at {wall['speed']:.3f}x nominal speed"
            )
        for group in ("e2e", "per_layer"):
            for name, value in entry.get(group, {}).items():
                print(f"  {name:32s} {value:16.6g} {units[name]}")
    for line in result["failed_checks"]:
        print(f"CHECK FAILED: {line}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                        help="one workload (default: all, in order)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="untraced reps continue (past the minimum of 3) "
                        "while they fit in this many seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics only; 1: per-layer only")
    parser.add_argument("--json", type=Path, default=None,
                        help="write the full result (spans included) here")
    parser.add_argument("--window-ms", type=float, default=None,
                        help="override every measurement window (smoke tests)")
    args = parser.parse_args(argv)
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    measure_ns = None if args.window_ms is None else int(args.window_ms * 1e6)
    try:
        result = measure(workloads, args.seed, args.seconds, args.trace, measure_ns)
    except ChildFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    print_report(result)
    if args.json is not None:
        args.json.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(json.dumps(summary_line(result)))
    return 1 if result["failed_checks"] else 0


if __name__ == "__main__":
    sys.exit(main())
