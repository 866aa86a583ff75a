"""Machine-speed reference: normalises timings on a shared host.

On a shared 2-core VM the speed of this process drifts by tens of
percent over minutes (neighbours contend for the cores and caches), so
raw wall times of one commit spread wider than any useful regression
bound.  :class:`SpeedSampler` measures that drift while a timed section
runs: a one-shot interval timer interrupts it every ``PERIOD_S`` of
wall time and times one fixed chunk of pure-Python work (a tiny
discrete-event loop with the simulator's instruction mix: heap
scheduling, slotted objects, deques, dict counters, bound-method
callbacks).  The section's own wall time since the previous chunk is
scaled by ``NOMINAL_CHUNK_NS`` / that chunk's time, which converts it,
interval by interval, to seconds at nominal speed; the chunks' own
time is left out.

The chunk never touches simulator state and draws from its own RNG,
so sampling leaves every simulated result unchanged.
"""

from __future__ import annotations

import random
import signal
import time
from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, List, Optional

#: Median chunk time on the 2-core machine the benchmark was written on
#: when quiet; normalised times read as seconds on that machine.
NOMINAL_CHUNK_NS = 400_000
#: Events per chunk (~0.4 ms at nominal speed).
CHUNK_EVENTS = 300


class _Packet:
    __slots__ = ("dst", "size", "hops")

    def __init__(self, dst: int, size: int):
        self.dst = dst
        self.size = size
        self.hops = 0


class _Node:
    def __init__(self, loop: "_Loop"):
        self.loop = loop
        self.queue: deque = deque()
        self.busy = False
        self.counts = {"rx": 0, "tx": 0}

    def receive(self, packet: _Packet) -> None:
        self.counts["rx"] += 1
        packet.hops += 1
        if self.busy:
            self.queue.append(packet)
        else:
            self.busy = True
            self.loop.at(self.loop.now + packet.size, self.finish, packet)

    def finish(self, packet: _Packet) -> None:
        self.counts["tx"] += 1
        if self.queue:
            nxt = self.queue.popleft()
            self.loop.at(self.loop.now + nxt.size, self.finish, nxt)
        else:
            self.busy = False
        self.loop.forward(packet)


class _Loop:
    def __init__(self, nodes: int):
        self.now = 0
        self.heap: List[Any] = []
        self.seq = 0
        self.rng = random.Random(1)
        self.nodes = [_Node(self) for _ in range(nodes)]
        self.free: List[_Packet] = []

    def at(self, when: int, fn: Any, arg: Any) -> None:
        self.seq += 1
        heappush(self.heap, (when, self.seq, fn, arg))

    def forward(self, packet: _Packet) -> None:
        if packet.hops >= 4:
            self.free.append(packet)
            return
        node = self.nodes[(packet.dst + packet.hops) % len(self.nodes)]
        self.at(self.now + 1 + (packet.size >> 3), node.receive, packet)

    def inject(self, _: Any = None) -> None:
        rng = self.rng
        size = 64 + int(rng.expovariate(1 / 400.0))
        if self.free:
            packet = self.free.pop()
            packet.dst = rng.randrange(64)
            packet.size = size
            packet.hops = 0
        else:
            packet = _Packet(rng.randrange(64), size)
        self.nodes[packet.dst % len(self.nodes)].receive(packet)
        self.at(self.now + int(rng.expovariate(1 / 120.0)) + 1, self.inject, None)

    def run(self, events: int) -> None:
        heap = self.heap
        self.at(0, self.inject, None)
        for _ in range(events):
            when, _, fn, arg = heappop(heap)
            self.now = when
            fn(arg)


def chunk() -> None:
    """One fixed unit of reference work.

    The loop and its nodes reference each other; the cycle is broken
    here because ``Cluster.run()`` pauses the cyclic collector, which
    would otherwise keep every sampled chunk alive until the run ends.
    """
    loop = _Loop(16)
    loop.run(CHUNK_EVENTS)
    loop.heap.clear()
    loop.nodes.clear()


class SpeedSampler:
    """Converts the wall time of ``with`` blocks to nominal-speed time.

    Each chunk's speed applies to the block time since the previous
    chunk, so contention that covers part of a block scales only that
    part.  The timer is one-shot and re-armed after each chunk, so a
    chunk that overruns the period never nests inside another.  A block
    that starts before any chunk has run is preceded by one untimed
    chunk, so even a block shorter than the period has a speed.
    *exclude*, if given, is called with each sample's duration in ns
    (the traced child uses it to keep samples out of the span open at
    the time).
    """

    PERIOD_S = 0.005

    def __init__(self, exclude: Optional[Callable[[int], None]] = None) -> None:
        self._exclude = exclude
        #: Block time, chunks excluded, summed over every block (ns).
        self.own_ns = 0
        #: The same time at nominal speed (ns).
        self.nominal_ns = 0.0
        self._mark = 0
        self._last_chunk_ns = 0
        #: True only inside a block; a signal taken after the block has
        #: ended neither samples nor re-arms the timer.
        self._active = False

    def _advance(self, now: int) -> None:
        own = now - self._mark
        self.own_ns += own
        self.nominal_ns += own * NOMINAL_CHUNK_NS / self._last_chunk_ns

    def _time_chunk(self) -> int:
        start = time.perf_counter_ns()
        chunk()
        self._last_chunk_ns = time.perf_counter_ns() - start
        return start

    def _sample(self, signum: int, frame: Any) -> None:
        if not self._active:
            return
        start = self._time_chunk()
        self._advance(start)
        self._mark = time.perf_counter_ns()
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S)
        if self._exclude is not None:
            self._exclude(self._mark - start)

    def __enter__(self) -> "SpeedSampler":
        if not self._last_chunk_ns:
            self._time_chunk()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._mark = time.perf_counter_ns()
        self._active = True
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S)
        return self

    def __exit__(self, *exc: Any) -> None:
        # Stop sampling before disarming: a signal handled between the
        # two would otherwise re-arm the timer, and its next expiry,
        # with the previous (default) handler back, ends the process.
        self._active = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        # The tail since the last chunk runs at that chunk's speed.
        self._advance(time.perf_counter_ns())
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def speed(self) -> float:
        """Nominal-speed time per wall second, over every block so far."""
        return self.nominal_ns / self.own_ns
