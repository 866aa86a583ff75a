"""Layer spans for the traced benchmark child, installed from outside.

The simulator is never edited for tracing.  :meth:`Tracer.install`
replaces, on their classes, the entry points that the scheduler and
neighbouring layers call into (see ``ENTRY_POINTS``) with a wrapper
that records one span per call; :meth:`Tracer.wrap_programs` does the
same for each ToR's installed ``fast_apply``.  Only the traced child
calls either, so the untraced measurement runs the original code.

Wrappers must be installed before a cluster is built: links resolve
their delivery callables, and switches their ``fast_apply``, at build
time.

Spans stay in memory as per-layer aggregates: self time (span duration
minus the part covered by child spans) and a parent→child call-count
matrix, the layer-level "span that caused it".  :meth:`Tracer.report`
dumps them once the run is over.

The cost a span adds is calibrated against an empty wrapped call and
taken out of the self times.  A tight calibration loop keeps the
wrapper hot in cache and reads ~40% low, so :class:`Probe` times the
empty call from scheduler events interleaved with the traced run
itself.  Probe events only consume scheduler sequence numbers, which
leaves the order of every simulated event unchanged.
"""

from __future__ import annotations

import importlib
import statistics
import time
from typing import Any, Callable, Dict, List, Tuple

#: The root layer: ``Cluster.run`` minus every top-level span, i.e. the
#: scheduler plus any callback no entry point covers.
ROOT = "sim.core"

LAYERS: Tuple[str, ...] = (
    ROOT,
    "apps.client",
    "core.client",
    "baselines",
    "workloads",
    "net.host",
    "net.packet",
    "switchsim",
    "core.program",
    "core.server",
    "apps.service",
    "metrics",
)

#: (layer, module, class, attribute) of every class-level entry point.
ENTRY_POINTS: Tuple[Tuple[str, str, str, str], ...] = (
    ("apps.client", "repro.apps.client", "OpenLoopClient", "_send_one"),
    ("apps.client", "repro.apps.client", "OpenLoopClient", "handle"),
    ("core.client", "repro.core.client", "NetCloneClient", "build_packets"),
    ("baselines", "repro.baselines.random_lb", "BaselineClient", "build_packets"),
    ("workloads", "repro.workloads.synthetic", "SyntheticWorkload", "make_request_chunk"),
    ("workloads", "repro.workloads.kv", "KvWorkload", "make_request"),
    ("net.host", "repro.net.host", "Host", "send"),
    ("net.host", "repro.net.host", "Host", "link_rx_at"),
    ("net.packet", "repro.net.packet", "PacketPool", "acquire"),
    ("net.packet", "repro.net.packet", "Packet", "release"),
    ("net.packet", "repro.net.packet", "Packet", "copy"),
    ("switchsim", "repro.switchsim.switch", "ProgrammableSwitch", "link_ingress"),
    ("switchsim", "repro.switchsim.switch", "ProgrammableSwitch", "_run_recirculated"),
    ("core.server", "repro.core.server", "RpcServer", "handle"),
    ("core.server", "repro.core.server", "RpcServer", "_finish_work"),
    ("apps.service", "repro.apps.service", "KvService", "execute"),
    ("apps.service", "repro.apps.service", "KvService", "base_service_ns"),
    ("metrics", "repro.metrics.latency", "LatencyRecorder", "record"),
    ("metrics", "repro.metrics.latency", "LatencyRecorder", "note_sent"),
)


def _noop(packet: Any, switch: Any) -> None:
    return None


class Tracer:
    """Per-layer span aggregates for one process."""

    def __init__(self, layers: Tuple[str, ...] = LAYERS):
        self.layers = layers
        self.index = {name: i for i, name in enumerate(layers)}
        n = len(layers)
        self.self_ns = [0] * n
        #: ``edges[parent * n + child]``: spans of *child* opened while
        #: *parent* was the innermost open span.
        self.edges = [0] * (n * n)
        self._open = [0]
        self._child_ns = [0]

    def reset(self) -> None:
        """Zero every aggregate in place (the wrappers hold the lists)."""
        self.self_ns[:] = [0] * len(self.self_ns)
        self.edges[:] = [0] * len(self.edges)
        self._open[:] = [0]
        self._child_ns[:] = [0]

    # ------------------------------------------------------------------
    def wrap(self, layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """*fn* with one span per call attributed to *layer*."""
        idx = self.index[layer]
        n = len(self.layers)
        open_ = self._open
        child_ns = self._child_ns
        self_ns = self.self_ns
        edges = self.edges
        clock = time.perf_counter_ns

        def span(*args: Any, **kwargs: Any) -> Any:
            edges[open_[-1] * n + idx] += 1
            open_.append(idx)
            child_ns.append(0)
            start = clock()
            result = fn(*args, **kwargs)
            duration = clock() - start
            open_.pop()
            self_ns[idx] += duration - child_ns.pop()
            child_ns[-1] += duration
            return result

        return span

    def install(self) -> None:
        """Wrap every ``ENTRY_POINTS`` attribute on its class."""
        for layer, module, cls_name, attr in ENTRY_POINTS:
            cls = getattr(importlib.import_module(module), cls_name)
            setattr(cls, attr, self.wrap(layer, cls.__dict__[attr]))

    def exclude(self, ns: int) -> None:
        """Count *ns* just spent by the benchmark itself as not the
        innermost open span's own time."""
        self._child_ns[-1] += ns

    def wrap_programs(self, cluster: Any) -> None:
        """Span each ToR's installed ``fast_apply`` as ``core.program``."""
        for tor in cluster.tors:
            if tor._fast_apply is not None:
                tor._fast_apply = self.wrap("core.program", tor._fast_apply)

    # ------------------------------------------------------------------
    def run_root(self, cluster: Any, probe: "Probe") -> int:
        """``cluster.run()`` as the root span; returns its wall time (ns).

        The probe's own events are taken out of the root's self time.
        """
        self.reset()
        start = time.perf_counter_ns()
        cluster.run()
        wall = time.perf_counter_ns() - start
        if len(self._open) != 1:
            raise RuntimeError("unbalanced spans after the traced run")
        self.self_ns[0] = wall - self._child_ns[0] - probe.spent_ns
        return wall

    def calls(self, layer: str) -> int:
        """Spans recorded for *layer*; for the root, the top-level spans
        it dispatched (the root span itself is opened once per run)."""
        if layer == self.layers[0]:
            return self.children(layer)
        n = len(self.layers)
        idx = self.index[layer]
        return sum(self.edges[p * n + idx] for p in range(n))

    def children(self, layer: str) -> int:
        """Spans opened directly inside *layer*'s spans."""
        n = len(self.layers)
        base = self.index[layer] * n
        return sum(self.edges[base:base + n])

    def report(self, wall_ns: int, calibration: Dict[str, float]) -> Dict[str, Any]:
        """Per-layer self time with the calibrated span cost removed.

        A span's cost splits in two: ``inner_ns`` falls inside the
        span's own measured duration, ``outer_ns`` in its parent's.
        """
        inner = calibration["inner_ns"]
        outer = calibration["outer_ns"]
        layers = {}
        for name in self.layers:
            children = self.children(name)
            raw = self.self_ns[self.index[name]]
            own = raw - children * outer
            if name != self.layers[0]:
                own -= self.calls(name) * inner
            layers[name] = {
                "calls": self.calls(name),
                "raw_self_ns": raw,
                "self_ns": own,
            }
        n = len(self.layers)
        return {
            "wall_ns": wall_ns,
            "calibration": calibration,
            "layers": layers,
            "edges": {
                f"{self.layers[p]}>{self.layers[c]}": self.edges[p * n + c]
                for p in range(n)
                for c in range(n)
                if self.edges[p * n + c]
            },
        }


class Probe:
    """Samples the cost of one span from inside a traced run.

    Every ``PERIOD_NS`` of simulated time a probe event times three
    intervals back to back: two clock reads, an empty call, and the
    same call wrapped in a span.  From their medians:

    * ``total_ns`` = wrapped − empty: what a span adds to its caller;
    * ``inner_ns``: the part of it the span's own duration records
      (recorded duration − the empty call);
    * ``outer_ns`` = total − inner: the part left in the parent.
    """

    PERIOD_NS = 20_000

    def __init__(self, sim: Any, until_ns: int):
        self.sim = sim
        self.until_ns = until_ns
        self._tracer = Tracer((ROOT, "probe"))
        self._wrapped = self._tracer.wrap("probe", _noop)
        self.clock_ns: List[int] = []
        self.plain_ns: List[int] = []
        self.wrapped_ns: List[int] = []
        self.recorded_ns: List[int] = []
        #: Wall time spent inside probe events.
        self.spent_ns = 0
        sim.call_after(self.PERIOD_NS, self._sample)

    @property
    def samples(self) -> int:
        """Probe events run so far (each is one scheduler event)."""
        return len(self.wrapped_ns)

    def _sample(self) -> None:
        clock = time.perf_counter_ns
        recorded = self._tracer.self_ns
        begin = clock()
        before = recorded[1]
        a = clock()
        b = clock()
        _noop(None, None)
        c = clock()
        self._wrapped(None, None)
        d = clock()
        self.clock_ns.append(b - a)
        self.plain_ns.append(c - b)
        self.wrapped_ns.append(d - c)
        self.recorded_ns.append(recorded[1] - before)
        if self.sim.now + self.PERIOD_NS <= self.until_ns:
            self.sim.call_after(self.PERIOD_NS, self._sample)
        self.spent_ns += clock() - begin

    def calibration(self) -> Dict[str, float]:
        """Median span cost over the samples taken, in ns."""
        median = statistics.median
        plain = median(self.plain_ns)
        total = median(self.wrapped_ns) - plain
        bare_call = plain - median(self.clock_ns)
        inner = median(self.recorded_ns) - bare_call
        return {
            "samples": self.samples,
            "total_ns": total,
            "inner_ns": inner,
            "outer_ns": total - inner,
        }
