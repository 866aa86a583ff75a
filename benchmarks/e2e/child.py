"""Measure one workload in this (fresh) interpreter; print one JSON line.

Started by ``run.py``, once untraced and once with ``--traced``.  The
untraced child builds the cluster once as a warm-up, times
``SETUP_ONLY`` extra set-ups, then repeats timed set-up + run pairs
until ``MIN_REPS`` are done and the next one would overrun
``--seconds``.  The traced child installs the layer spans of
``spans.py`` before anything is built and times a single rep.  In both,
a ``reference.SpeedSampler`` runs during each timed ``Cluster.run()``
and reports its wall time (samples taken out) and the same time at
nominal machine speed.

Every rep reports the simulated outputs (and their digest), the counts
the per-layer metrics are derived from, and the names of any
correctness checks it failed.  After the timed ``Cluster.run()`` the
event queue is drained untimed, so the clone accounting is checked
with nothing left in flight.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from workloads import COMMON, WORKLOADS

SRC = Path(__file__).resolve().parents[2] / "src"

#: Set-ups timed on their own (never run) on top of one per rep, so
#: setup_s is a median over enough ms-scale samples.
SETUP_ONLY = 10
#: Timed reps every untraced child runs, however short --seconds is.
MIN_REPS = 3
#: Allowed |throughput - offered| / offered over the window.
THROUGHPUT_TOLERANCE = 0.01


def _digest(outputs: Dict[str, Any]) -> str:
    blob = json.dumps(outputs, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _sum_counter(components: List[Any], key: str) -> int:
    return int(sum(c.counters.get(key) for c in components))


def _clients(cluster: Any) -> Dict[str, int]:
    clients = cluster.clients
    redundant = sum(c.redundant_responses for c in clients)
    return {
        "sent": sum(c._seq for c in clients),
        "answered": sum(c.responses_received for c in clients) - redundant,
        "unanswered": sum(c.outstanding for c in clients),
        "redundant_responses": redundant,
    }


def observe(cluster: Any, wall_s: float, probe_events: int) -> Dict[str, Any]:
    """Outputs, counts and checks of one finished ``Cluster.run()``.

    *probe_events* are the traced run's calibration events, which the
    simulated event count must not include.
    """
    point = cluster.load_point()
    switches = cluster.switches
    at_drain = _clients(cluster)
    outputs = {
        "p50_us": point.p50_us,
        "p99_us": point.p99_us,
        "p999_us": point.p999_us,
        "samples": point.samples,
        "throughput_rps": point.throughput_rps,
        "offered_rps": point.offered_rps,
        "events": cluster.sim.event_count - probe_events,
        "uids": cluster.packet_pool.uid_count,
        "nc_cloned": _sum_counter(switches, "nc_cloned"),
        "nc_filtered": _sum_counter(switches, "nc_filtered"),
        "nc_fingerprint_overwrite": _sum_counter(switches, "nc_fingerprint_overwrite"),
        "clones_dropped": _sum_counter(cluster.servers, "clones_dropped"),
        "redundant_responses": at_drain["redundant_responses"],
    }
    counts = {
        "passes": _sum_counter(switches, "rx"),
        "recirculated": _sum_counter(switches, "recirculated"),
    }
    checks = []
    if at_drain["sent"] != at_drain["answered"] + at_drain["unanswered"]:
        checks.append(
            f"conservation: sent {at_drain['sent']} != answered "
            f"{at_drain['answered']} + unanswered {at_drain['unanswered']}"
        )
    # Completions and sends inside the window differ by the change in
    # requests in flight across it.  By Little's law ~offered * mean
    # latency are in flight, and their count fluctuates by about its
    # square root; allow four such deviations on top of the 1%, which
    # only matters for windows of a few ms.
    offered = point.offered_rps
    window_s = cluster.config.measure_ns / 1e9
    in_flight = offered * point.mean_us / 1e6
    slack = THROUGHPUT_TOLERANCE * offered + 4 * (2 * in_flight) ** 0.5 / window_s
    if not abs(point.throughput_rps - offered) <= slack:
        checks.append(
            f"throughput: {point.throughput_rps:.0f} req/s differs from offered "
            f"{offered:.0f} req/s by more than {slack:.0f} req/s"
        )

    # Untimed: let every request in flight at the end of the drain finish.
    cluster.sim.run()
    settled = _clients(cluster)
    cloned = _sum_counter(switches, "nc_cloned")
    dropped = _sum_counter(cluster.servers, "clones_dropped")
    filtered = _sum_counter(switches, "nc_filtered")
    if cloned != dropped + filtered + settled["redundant_responses"]:
        checks.append(
            f"clone-accounting: nc_cloned {cloned} != clones_dropped {dropped} "
            f"+ nc_filtered {filtered} + redundant "
            f"{settled['redundant_responses']}"
        )
    return {
        "wall_s": wall_s,
        "sent": at_drain["sent"],
        "answered": at_drain["answered"],
        "late": at_drain["unanswered"],
        "lost": settled["unanswered"],
        "outputs": outputs,
        "digest": _digest(outputs),
        "counts": counts,
        "checks": checks,
    }


def measure(
    workload: str,
    seed: int,
    traced: bool,
    seconds: float,
    measure_ns: Optional[int] = None,
) -> Dict[str, Any]:
    from repro.experiments.common import Cluster, ClusterConfig
    from repro.sim.core import USING_CCORE

    import reference
    import spans

    kwargs = {**COMMON, **WORKLOADS[workload], "seed": seed}
    if measure_ns is not None:
        kwargs["measure_ns"] = measure_ns
    tracer = None
    if traced:
        tracer = spans.Tracer()
        tracer.install()

    def build():
        gc.collect()
        start = time.perf_counter()
        cluster = Cluster(ClusterConfig(**kwargs))
        cluster.start()
        return cluster, time.perf_counter() - start

    build()  # warm-up: imports, registries, lazy module state
    setups = [] if traced else [build()[1] for _ in range(SETUP_ONLY)]
    sampler = reference.SpeedSampler(tracer.exclude if tracer is not None else None)
    reps: List[Dict[str, Any]] = []
    started = time.perf_counter()
    while True:
        cluster, setup_s = build()
        setups.append(setup_s)
        own, nominal = sampler.own_ns, sampler.nominal_ns
        probe_events = 0
        if tracer is not None:
            tracer.wrap_programs(cluster)
            probe = spans.Probe(cluster.sim, cluster.config.total_ns)
            gc.collect()
            with sampler:
                wall_ns = tracer.run_root(cluster, probe)
            trace = tracer.report(wall_ns, probe.calibration())
            probe_events = probe.samples
        else:
            gc.collect()
            with sampler:
                cluster.run()
        rep = observe(cluster, (sampler.own_ns - own) / 1e9, probe_events)
        rep["nominal_s"] = (sampler.nominal_ns - nominal) / 1e9
        if tracer is not None:
            rep["trace"] = trace
        reps.append(rep)
        del cluster
        elapsed = time.perf_counter() - started
        if traced or (
            len(reps) >= MIN_REPS and elapsed + elapsed / len(reps) > seconds
        ):
            break
    return {
        "workload": workload,
        "seed": seed,
        "engine": "ccore" if USING_CCORE else "python",
        "traced": traced,
        "setup_s": setups,
        "speed": sampler.speed,
        "reps": reps,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--measure-ns", type=int, default=None)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"child.py: no simulator sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = measure(
        args.workload,
        args.seed,
        args.traced,
        args.seconds,
        args.measure_ns,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
