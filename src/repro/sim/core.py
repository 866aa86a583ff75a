"""Core discrete-event engine.

The engine is a two-lane calendar queue.  Entries are plain tuples
``(time, seq, fn, args)`` — ``time`` orders events, ``seq`` is a
monotonically increasing tie-breaker that guarantees FIFO ordering for
events scheduled at the same instant (and, being unique, guarantees
tuple comparisons never reach the payload elements).  The two lanes:

* a **sorted tail** (:class:`collections.deque`): an entry scheduled at
  or after the latest tail entry is appended in O(1) — no heap sift on
  push *or* pop.  Pre-drawn arrival schedules, back-to-back NIC/link
  serialisation slots and drain phases are all monotone, so in practice
  most events ride this lane;
* a classic :mod:`heapq` **heap** for out-of-order entries.

Popping takes the global minimum of the two lane heads, so the executed
order is exactly the total ``(time, seq)`` order a single heap would
produce — the split is invisible to simulations.

There is one scheduling API: :meth:`Simulator.call_at` /
:meth:`Simulator.call_after` push a bare entry tuple and return
nothing.  Every event is fire-and-forget; a component that may no
longer want a callback (a retransmission timer, say) checks its own
state when the callback fires.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Optional

from repro.errors import (
    ExperimentError,
    NetworkError,
    PortError,
    SchedulingError,
    StageAccessError,
)

__all__ = ["Simulator"]


class Simulator:
    """A discrete-event simulator with an integer nanosecond clock.

    Typical callback-style use::

        sim = Simulator()
        sim.call_after(1_000, print, "one microsecond later")
        sim.run()

    The engine never invents time: the clock only advances to the
    timestamp of the next scheduled event.
    """

    __slots__ = ("now", "_heap", "_tail", "_seq", "_event_count")

    def __init__(self) -> None:
        #: Current simulated time in nanoseconds.
        self.now: int = 0
        self._heap: list = []
        self._tail: deque = deque()
        self._seq = 0
        self._event_count = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def call_after(self, delay: int, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` to run ``delay`` ns after *now*.

        ``delay`` must be non-negative; a zero delay runs after all
        events already scheduled for the current instant (FIFO).
        """
        if delay < 0:
            raise SchedulingError(f"negative delay {delay!r}")
        seq = self._seq + 1
        self._seq = seq
        entry = (self.now + delay, seq, fn, args)
        tail = self._tail
        if not tail or entry >= tail[-1]:
            tail.append(entry)
        else:
            heappush(self._heap, entry)

    def call_at(self, time: int, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` to run at absolute ``time`` ns."""
        if time < self.now:
            raise SchedulingError(
                f"cannot schedule at t={time} which is before now={self.now}"
            )
        seq = self._seq + 1
        self._seq = seq
        entry = (time, seq, fn, args)
        tail = self._tail
        if not tail or entry >= tail[-1]:
            tail.append(entry)
        else:
            heappush(self._heap, entry)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Run events until the queue drains or a limit is hit.

        :param until: stop (and fast-forward the clock to ``until``)
            once the next event is strictly later than this time.
        :param max_events: stop after this many events have run.
        :returns: the number of events executed by this call.
        """
        executed = 0
        heap = self._heap
        tail = self._tail
        pop_tail = tail.popleft
        try:
            if until is None and max_events is None:
                # Drain fast path: pop unconditionally, no limit checks.
                while True:
                    if tail:
                        if heap:
                            if heap[0] < tail[0]:
                                entry = heappop(heap)
                            else:
                                entry = pop_tail()
                        else:
                            # Batch drain: while the heap stays empty
                            # the tail's monotone run is the entire
                            # event order — dispatch it in one tight
                            # loop with a single truth test per event
                            # instead of re-entering the two-lane
                            # dispatcher.  A callback can only disturb
                            # the run by spilling into the heap, which
                            # the `not heap` check catches exactly.
                            while tail and not heap:
                                entry = pop_tail()
                                self.now = entry[0]
                                executed += 1
                                entry[2](*entry[3])
                            continue
                    elif heap:
                        entry = heappop(heap)
                    else:
                        break
                    self.now = entry[0]
                    executed += 1
                    entry[2](*entry[3])
            elif max_events is None:
                # Horizon-only loop (the experiment shape): pop first
                # like the drain loop and push the one horizon-crossing
                # entry back, instead of peek-then-pop on every event.
                while True:
                    if tail:
                        if heap and heap[0] < tail[0]:
                            entry = heappop(heap)
                            from_tail = False
                        else:
                            entry = pop_tail()
                            from_tail = True
                    elif heap:
                        entry = heappop(heap)
                        from_tail = False
                    else:
                        if until > self.now:
                            self.now = until
                        break
                    if entry[0] > until:
                        # Past the horizon: restore it for a later run().
                        if from_tail:
                            tail.appendleft(entry)
                        else:
                            heappush(heap, entry)
                        self.now = until
                        break
                    self.now = entry[0]
                    executed += 1
                    entry[2](*entry[3])
            else:
                # Same pop logic again, plus the limit checks — still
                # inline, one Python frame per event.
                while True:
                    if executed >= max_events:
                        break
                    if tail:
                        if heap and heap[0] < tail[0]:
                            entry = heap[0]
                            from_tail = False
                        else:
                            entry = tail[0]
                            from_tail = True
                    elif heap:
                        entry = heap[0]
                        from_tail = False
                    else:
                        if until is not None and until > self.now:
                            self.now = until
                        break
                    if until is not None and entry[0] > until:
                        self.now = until
                        break
                    if from_tail:
                        pop_tail()
                    else:
                        heappop(heap)
                    self.now = entry[0]
                    executed += 1
                    entry[2](*entry[3])
        finally:
            self._event_count += executed
        return executed

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of scheduled events that have not run yet."""
        return len(self._heap) + len(self._tail)

    @property
    def event_count(self) -> int:
        """Total number of events executed since construction.

        Updated when ``run`` returns; a callback reading it mid-run
        sees the count as of the last entry into the engine, which no
        simulation component does.
        """
        return self._event_count

    def peek(self) -> Optional[int]:
        """Timestamp of the next event, or ``None`` if drained.

        The earlier of the two lane heads; nothing is popped.
        """
        heap = self._heap
        tail = self._tail
        if heap and (not tail or heap[0] < tail[0]):
            return heap[0][0]
        return tail[0][0] if tail else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator now={self.now} pending={self.pending}>"


# ----------------------------------------------------------------------
# Engine selection
# ----------------------------------------------------------------------
#: The pure-Python reference engine, always importable by name.  It
#: is ``Simulator`` whenever the C core is off (``REPRO_PURE_SIM=1``
#: or no compiler); the engine-pinning test in
#: tests/test_engine_fastpath.py runs a point on it in a subprocess
#: and checks it against the in-process (C core) result.
PySimulator = Simulator

#: True when the C core is active: the scheduler here, the packet
#: plane's base classes in net/packet.py and core/header.py, the
#: forwarding hop's base classes in net/link.py, net/host.py and
#: switchsim/switch.py, the server's in core/server.py and the
#: client's in apps/client.py, which select their C twins on this flag.
USING_CCORE = False


def _load_c_engine():
    """Swap in the C core when it builds; silently fall back otherwise."""
    try:
        from repro.sim._ccore_build import load_ccore
        module = load_ccore()
        if module is None:
            return None
        module.configure(
            SchedulingError, NetworkError, PortError, StageAccessError,
            ExperimentError,
        )
        return module
    except Exception:  # pragma: no cover - any failure means fallback
        return None


_ccore = _load_c_engine()
if _ccore is not None:
    Simulator = _ccore.Simulator  # type: ignore[misc]  # noqa: F811
    USING_CCORE = True
del _ccore

__all__ += ["PySimulator", "USING_CCORE"]
