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

Two scheduling APIs share the lanes:

* :meth:`Simulator.call_at` / :meth:`Simulator.call_after` — the fast
  path for the ~95% of events that are never cancelled (packet
  delivery, service completions, arrival ticks).  They push bare
  tuples and return nothing: no per-event allocation beyond the entry
  itself.
* :meth:`Simulator.schedule` / :meth:`Simulator.at` — return an
  :class:`EventHandle` that can be cancelled.  Cancellation is O(1)
  (lazy deletion: the handle is flagged and skipped when popped) and
  the lanes are compacted in one pass when cancelled entries come to
  dominate.

Both APIs consume one ``seq`` per event, so converting a call site from
``at`` to ``call_at`` leaves the execution order of every event
bit-identical.
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Optional, Tuple

from repro.errors import SchedulingError

__all__ = ["EventHandle", "Simulator"]

# Entry layout: (time, seq, fn, args) for fast-path events and
# (time, seq, handle, None) for cancellable ones — a single tuple shape
# check (``entry[3] is None``) distinguishes them on the pop path.


class EventHandle:
    """A scheduled callback that can be cancelled.

    Instances are returned by :meth:`Simulator.schedule` and
    :meth:`Simulator.at`.  They are true-ish while still pending.
    """

    __slots__ = ("fn", "args", "cancelled", "time", "sim")

    def __init__(
        self,
        time: int,
        fn: Callable[..., Any],
        args: Tuple[Any, ...],
        sim: Optional["Simulator"] = None,
    ):
        self.time = time
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.sim = sim

    def cancel(self) -> None:
        """Prevent the callback from firing.  Idempotent."""
        if self.cancelled:
            return
        self.cancelled = True
        if self.sim is not None:
            self.sim._note_cancelled()

    def __bool__(self) -> bool:
        return not self.cancelled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"<EventHandle t={self.time} {name} {state}>"


class Simulator:
    """A discrete-event simulator with an integer nanosecond clock.

    Typical callback-style use::

        sim = Simulator()
        sim.call_after(1_000, print, "one microsecond later")
        sim.run()

    The engine never invents time: the clock only advances to the
    timestamp of the next scheduled event.
    """

    __slots__ = ("now", "_heap", "_tail", "_seq", "_running", "_event_count", "_cancelled")

    #: Compaction trigger: at least this many cancelled entries AND
    #: cancelled entries making up at least half the pending set.
    COMPACT_THRESHOLD = 64

    def __init__(self) -> None:
        #: Current simulated time in nanoseconds.
        self.now: int = 0
        self._heap: list = []
        self._tail: deque = deque()
        self._seq = 0
        self._running = False
        self._event_count = 0
        self._cancelled = 0

    # ------------------------------------------------------------------
    # Scheduling — fast path (uncancellable)
    # ------------------------------------------------------------------
    def call_after(self, delay: int, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` to run ``delay`` ns after *now*.

        The fast path: no :class:`EventHandle` is allocated and nothing
        is returned, so the event cannot be cancelled.  Use it for
        events that are provably never cancelled (deliveries, service
        completions, arrival ticks).  ``delay`` must be non-negative; a
        zero delay runs after all events already scheduled for the
        current instant (FIFO).
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
        """Schedule ``fn(*args)`` at absolute ``time`` ns (fast path)."""
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
    # Scheduling — cancellable path
    # ------------------------------------------------------------------
    def schedule(self, delay: int, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` to run ``delay`` ns after *now*.

        ``delay`` must be non-negative; a zero delay runs after all
        events already scheduled for the current instant (FIFO).
        """
        if delay < 0:
            raise SchedulingError(f"negative delay {delay!r}")
        return self.at(self.now + delay, fn, *args)

    def at(self, time: int, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` to run at absolute ``time`` ns."""
        if time < self.now:
            raise SchedulingError(
                f"cannot schedule at t={time} which is before now={self.now}"
            )
        handle = EventHandle(time, fn, args, sim=self)
        seq = self._seq + 1
        self._seq = seq
        entry = (time, seq, handle, None)
        tail = self._tail
        if not tail or entry >= tail[-1]:
            tail.append(entry)
        else:
            heappush(self._heap, entry)
        return handle

    # ------------------------------------------------------------------
    # Cancellation bookkeeping
    # ------------------------------------------------------------------
    def _note_cancelled(self) -> None:
        """Called by :meth:`EventHandle.cancel`; compacts lanes whose
        live entries are drowned out by lazily-deleted ones."""
        self._cancelled += 1
        if (
            self._cancelled >= self.COMPACT_THRESHOLD
            and self._cancelled * 2 >= len(self._heap) + len(self._tail)
        ):
            # In place, so locals bound by a running ``run`` loop stay
            # valid.  Filtering preserves the tail's sorted order.
            live = [e for e in self._heap if e[3] is not None or not e[2].cancelled]
            self._heap[:] = live
            heapify(self._heap)
            live_tail = [e for e in self._tail if e[3] is not None or not e[2].cancelled]
            self._tail.clear()
            self._tail.extend(live_tail)
            self._cancelled = 0

    def _live_head(self) -> Optional[tuple]:
        """The earliest non-cancelled entry, discarding dead ones.

        The single place that implements lazy deletion for the peeking
        paths: ``step`` and ``peek`` funnel through it (``run`` inlines
        the same logic).  The returned entry is *not* popped.
        """
        heap = self._heap
        tail = self._tail
        while True:
            head = None
            if tail:
                head = tail[0]
                if head[3] is None and head[2].cancelled:
                    tail.popleft()
                    if self._cancelled:
                        self._cancelled -= 1
                    continue
            if heap:
                hh = heap[0]
                if hh[3] is None and hh[2].cancelled:
                    heappop(heap)
                    if self._cancelled:
                        self._cancelled -= 1
                    continue
                if head is None or hh < head:
                    return hh
            return head

    def _pop_entry(self, entry: tuple) -> None:
        """Remove *entry*, known to be a live lane head, from its lane."""
        tail = self._tail
        if tail and tail[0] is entry:
            tail.popleft()
        else:
            heappop(self._heap)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Run the single next pending event.

        Returns ``True`` if an event ran, ``False`` if the queue was
        empty (cancelled entries are discarded silently).
        """
        entry = self._live_head()
        if entry is None:
            return False
        self._pop_entry(entry)
        time, _seq, target, args = entry
        self.now = time
        self._event_count += 1
        if args is None:
            target.sim = None  # fired: later cancel() must not count it
            target.fn(*target.args)
        else:
            target(*args)
        return True

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Run events until the queue drains or a limit is hit.

        :param until: stop (and fast-forward the clock to ``until``)
            once the next event is strictly later than this time.
        :param max_events: stop after this many events have run.
        :returns: the number of events executed by this call.
        """
        executed = 0
        self._running = True
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
                                args = entry[3]
                                if args is not None:
                                    self.now = entry[0]
                                    executed += 1
                                    entry[2](*args)
                                else:
                                    handle = entry[2]
                                    if handle.cancelled:
                                        if self._cancelled:
                                            self._cancelled -= 1
                                        continue
                                    handle.sim = None
                                    self.now = entry[0]
                                    executed += 1
                                    handle.fn(*handle.args)
                            continue
                    elif heap:
                        entry = heappop(heap)
                    else:
                        break
                    args = entry[3]
                    if args is not None:
                        self.now = entry[0]
                        executed += 1
                        entry[2](*args)
                    else:
                        handle = entry[2]
                        if handle.cancelled:
                            if self._cancelled:
                                self._cancelled -= 1
                            continue
                        handle.sim = None  # fired: later cancel() must not count it
                        self.now = entry[0]
                        executed += 1
                        handle.fn(*handle.args)
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
                    args = entry[3]
                    if args is None and entry[2].cancelled:
                        if self._cancelled:
                            self._cancelled -= 1
                        continue
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
                    if args is None:
                        handle = entry[2]
                        handle.sim = None
                        handle.fn(*handle.args)
                    else:
                        entry[2](*args)
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
                    args = entry[3]
                    if args is None and entry[2].cancelled:
                        if from_tail:
                            pop_tail()
                        else:
                            heappop(heap)
                        if self._cancelled:
                            self._cancelled -= 1
                        continue
                    if until is not None and entry[0] > until:
                        self.now = until
                        break
                    if from_tail:
                        pop_tail()
                    else:
                        heappop(heap)
                    self.now = entry[0]
                    executed += 1
                    if args is None:
                        handle = entry[2]
                        handle.sim = None
                        handle.fn(*handle.args)
                    else:
                        entry[2](*args)
        finally:
            self._running = False
            self._event_count += executed
        return executed

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of queue entries, including lazily-cancelled ones."""
        return len(self._heap) + len(self._tail)

    @property
    def event_count(self) -> int:
        """Total number of events executed since construction.

        Updated when ``run`` returns (and per ``step``); a callback
        reading it mid-run sees the count as of the last entry into the
        engine, which no simulation component does.
        """
        return self._event_count

    def peek(self) -> Optional[int]:
        """Timestamp of the next live event, or ``None`` if drained."""
        entry = self._live_head()
        return entry[0] if entry is not None else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator now={self.now} pending={self.pending}>"


# ----------------------------------------------------------------------
# Engine selection
# ----------------------------------------------------------------------
#: The pure-Python reference engine, always importable by name (tests
#: that poke lane internals pin this class explicitly).
PySimulator = Simulator

#: True when the C scheduler core is active.
USING_CCORE = False


def _load_c_engine():
    """Swap in the C core when it builds; silently fall back otherwise."""
    try:
        from repro.sim._ccore_build import load_ccore
        module = load_ccore()
        if module is None:
            return None
        module.configure(EventHandle, SchedulingError)
        return module
    except Exception:  # pragma: no cover - any failure means fallback
        return None


_ccore = _load_c_engine()
if _ccore is not None:
    Simulator = _ccore.Simulator  # type: ignore[misc]  # noqa: F811
    USING_CCORE = True
del _ccore

__all__ += ["PySimulator", "USING_CCORE"]
