"""Latency recording with a measurement window.

The paper's client "measures the throughput and latency by generating
requests at a given target sending rate".  The recorder implements the
standard open-loop methodology: samples whose *send time* falls inside
``[warmup_ns, end_ns)`` count toward latency percentiles and
throughput; everything else (cold start, drain tail) is ignored.

Two storage backends share one API (``mode=`` at construction):

* ``"exact"`` (default) appends every sample to an ``array("q")`` and
  answers percentiles through :func:`percentile` — bit-identical to
  the historical recorder, O(requests) memory.
* ``"sketch"`` folds samples into a mergeable
  :class:`~repro.metrics.sketch.LatencySketch` and never stores raw
  samples — O(buckets) memory at any request count, quantiles within
  the sketch's ≤1% relative-error contract.

``percentile``/``p50_us``/``p99_us``/``p999_us``/``mean_us`` behave
identically over both backends (empty recorders answer NaN in
both modes); ``mean_us`` is exact in both (a running sum, no sample
materialisation).

The per-request calls, :meth:`~_RecorderCore.note_sent` and
:meth:`~_RecorderCore.record`, live on :class:`_RecorderCore` with the
state they keep.  With the C core live (``USING_CCORE``) that base is
``_ccore.RecorderCore``, which keeps the window tests, the counts, the
running sum and an exact-mode sample with no Python frame, and which
the client's C request path calls directly; a set
``completion_monitor`` and sketch mode's ``sketch.add`` are called
back.  Its ``_sum_ns`` stays a Python int, so it never overflows and
stays writable.  The Python class below is the reference and the
``REPRO_PURE_SIM=1`` path.
"""

from __future__ import annotations

from array import array
from typing import Optional, Sequence

import numpy as np

from repro.errors import ExperimentError
from repro.metrics.sketch import LatencySketch
from repro.sim.core import USING_CCORE
from repro.sim.units import SECONDS

__all__ = ["LatencyRecorder", "percentile"]


def percentile(samples: Sequence[int], q: float) -> float:
    """The *q*-th percentile of *samples* in the same unit (ns).

    Uses the "lower" interpolation so the value is an observed sample,
    matching how tail latency is usually reported.
    """
    if len(samples) == 0:
        return float("nan")
    if not 0 <= q <= 100:
        raise ExperimentError(f"percentile {q} out of range")
    return float(np.percentile(np.asarray(samples, dtype=np.int64), q, method="lower"))


class _RecorderCore:
    """The per-request bookkeeping of a :class:`LatencyRecorder` and the
    state it keeps.  ``_ccore.RecorderCore`` replaces it when the C core
    is live."""

    __slots__ = (
        "warmup_ns", "end_ns", "latencies_ns", "sketch", "_sum_ns",
        "sent_in_window", "completed_in_window", "completion_monitor",
    )

    def note_sent(self, send_time_ns: int) -> None:
        """Count one request sent at *send_time_ns*."""
        # The window test ``warmup_ns <= t < end_ns``, written out:
        # one call per request sent.
        if send_time_ns >= self.warmup_ns and (
            self.end_ns is None or send_time_ns < self.end_ns
        ):
            self.sent_in_window += 1

    def record(self, send_time_ns: int, done_time_ns: int) -> None:
        """Record a completed request (first response received).

        Throughput counts completions *occurring* inside the window (so
        a saturated system reports its service rate, not the offered
        rate); latency samples belong to requests *sent* inside the
        window (so cold-start and drain artefacts are excluded).
        """
        if done_time_ns < send_time_ns:
            raise ExperimentError("completion before send")
        if self.completion_monitor is not None:
            self.completion_monitor.note(done_time_ns)
        # The window test twice: completion time, then send time.
        end_ns = self.end_ns
        if done_time_ns >= self.warmup_ns and (end_ns is None or done_time_ns < end_ns):
            self.completed_in_window += 1
        if send_time_ns >= self.warmup_ns and (end_ns is None or send_time_ns < end_ns):
            latency = done_time_ns - send_time_ns
            self._sum_ns += latency
            if self.latencies_ns is not None:
                self.latencies_ns.append(latency)
            else:
                self.sketch.add(latency)


if USING_CCORE:
    from repro.sim._ccore import RecorderCore as _RecorderCore  # noqa: F811


class LatencyRecorder(_RecorderCore):
    """Collects request latencies inside a measurement window."""

    __slots__ = ("mode",)

    # The per-request calls sit in this class's own dict, so tracers
    # that wrap ``LatencyRecorder.record`` / ``.note_sent`` at class
    # level find them here on either base (and the C client then calls
    # the wrapper).
    note_sent = _RecorderCore.note_sent
    record = _RecorderCore.record

    def __init__(
        self,
        warmup_ns: int = 0,
        end_ns: Optional[int] = None,
        mode: str = "exact",
    ):
        if warmup_ns < 0:
            raise ExperimentError("warmup must be non-negative")
        if end_ns is not None and end_ns <= warmup_ns:
            raise ExperimentError("measurement window must be non-empty")
        if mode not in ("exact", "sketch"):
            raise ExperimentError(
                f"unknown recorder mode {mode!r} (choose 'exact' or 'sketch')"
            )
        self.warmup_ns = warmup_ns
        self.end_ns = end_ns
        self.mode = mode
        #: Raw samples in exact mode; ``None`` in sketch mode (sketch
        #: mode never materialises per-request samples).
        self.latencies_ns: Optional[array] = array("q") if mode == "exact" else None
        self.sketch: Optional[LatencySketch] = (
            LatencySketch() if mode == "sketch" else None
        )
        #: Running sum of recorded latencies (exact in both modes).
        self._sum_ns = 0
        self.sent_in_window = 0
        self.completed_in_window = 0
        #: Optional IntervalMonitor fed with completion times (Fig. 16).
        self.completion_monitor = None

    # ------------------------------------------------------------------
    @property
    def window_ns(self) -> Optional[int]:
        """Length of the measurement window, if bounded."""
        if self.end_ns is None:
            return None
        return self.end_ns - self.warmup_ns

    def throughput_rps(self) -> float:
        """Completed requests per second over the window."""
        window = self.window_ns
        if window is None or window <= 0:
            return float("nan")
        return self.completed_in_window * SECONDS / window

    def offered_rps(self) -> float:
        """Requests sent per second over the window."""
        window = self.window_ns
        if window is None or window <= 0:
            return float("nan")
        return self.sent_in_window * SECONDS / window

    # ------------------------------------------------------------------
    def percentile_ns(self, q: float) -> float:
        """The *q*-th latency percentile in ns over whichever backend.

        The one backend dispatch the ``pXX_us`` helpers share; empty
        recorders answer NaN in both modes.
        """
        if self.latencies_ns is not None:
            return percentile(self.latencies_ns, q)
        return self.sketch.quantile(q)

    def p50_us(self) -> float:
        """Median latency in microseconds."""
        return self.percentile_ns(50) / 1000.0

    def p99_us(self) -> float:
        """99th-percentile latency in microseconds."""
        return self.percentile_ns(99) / 1000.0

    def p999_us(self) -> float:
        """99.9th-percentile latency in microseconds."""
        return self.percentile_ns(99.9) / 1000.0

    def mean_us(self) -> float:
        """Mean latency in microseconds (exact in both modes)."""
        count = len(self)
        if count == 0:
            return float("nan")
        return self._sum_ns / count / 1000.0

    def sketch_bytes(self) -> Optional[bytes]:
        """Serialized sketch (sketch mode only; ``None`` in exact mode)."""
        if self.sketch is None:
            return None
        return self.sketch.to_bytes()

    def result_payload(self) -> bytes:
        """The bytes a collection channel ships for this recorder.

        Exact mode ships the raw sample array — O(requests); sketch
        mode ships the serialized sketch — O(buckets).  (Counters ride
        separately; this is the latency payload the streaming metrics
        plane shrinks.)
        """
        if self.latencies_ns is not None:
            return self.latencies_ns.tobytes()
        return self.sketch.to_bytes()

    def __len__(self) -> int:
        if self.latencies_ns is not None:
            return len(self.latencies_ns)
        return self.sketch.count
