"""Open-loop measurement client.

Mirrors the paper's client application (§4.2): an open-loop generator
whose inter-arrival times are exponentially distributed around a
target rate, with sender and receiver sharing one host.  The client
records the latency of the *first* response per request and counts any
further (redundant) responses separately — that count is exactly what
response filtering is supposed to keep at zero.

Subclasses implement :meth:`build_packets` — the only thing that
differs between Baseline, C-Clone, LÆDGE and NetClone clients.

Arrival generation is batched: instead of one RNG call + payload
object + reschedule per request, the client pre-draws whole arrival
records (request payload, packets, next gap) in chunks of
``ARRIVAL_CHUNK`` and consumes them index-wise.  Per request the draws
keep their order — request payload (workload stream), then packets,
then gap (client stream) — so ``build_packets`` must depend only on
the client RNG and the client's static configuration, never on
``sim.now`` or live state.  As long as no record is flushed, the
trajectory does not depend on ``ARRIVAL_CHUNK``.  A control-plane
update (:meth:`set_rate`, a new group table) flushes the unsent
records and re-draws their sequence numbers; the RNG draws the
flushed records spent are lost, so from the first flush on the
trajectory is a function of ``ARRIVAL_CHUNK`` too.

The request path — ``_send_one``, :meth:`~_ClientCore.handle`,
``_refill_arrivals``, ``_next_gap`` and ``_flush_arrivals`` — lives on
:class:`_ClientCore`, which extends the host's base (``net/host.py``'s
``_HostCore``) with the client state, so one object holds both the NIC
slots and the client.  With the C core live (``USING_CCORE``) that
base is ``_ccore.ClientCore``, which runs the path with no Python
frame.  It replays the client RNG's draws itself when the RNG is
exactly a ``random.Random``, and it also carries the NetClone and
Baseline packet builders, which ``NetCloneClient`` and
``BaselineClient`` name as their ``build_packets`` (their Python
references stay in ``core/client.py`` and ``baselines/random_lb.py``).
It calls back into Python for the workload (its request chunk, once
per ``ARRIVAL_CHUNK`` requests, and the request size), an arrival
process's ``next_gap``, any other RNG, and any of its own methods,
``build_packets``, ``send``, ``release`` or ``acquire`` that Python
would not resolve to the C method (a class-level wrapper, a subclass
override, the sanitizer's pool).  The synthetic and KV workloads draw
a chunk's service times and build its payloads in the C functions of
``workloads/chunks.py``, so no request runs a Python frame there.  The
recorder's ``note_sent`` and ``record`` are the C ``RecorderCore``'s
(``metrics/latency.py``), which the client calls directly wherever
Python would resolve the name to them; a class-level wrapper, any
other recorder, sketch mode and a set ``completion_monitor`` still
reach Python.  The Python class below is the reference and the
``REPRO_PURE_SIM=1`` path.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ExperimentError
from repro.metrics.latency import LatencyRecorder
from repro.net.host import Host, _HostCore
from repro.net.packet import Packet
from repro.sim.core import USING_CCORE, Simulator

__all__ = ["OpenLoopClient"]


#: One pre-drawn arrival: (seq, request, packets, gap), or ``None``
#: once sent.
ArrivalRecord = Optional[Tuple[int, Any, List[Packet], int]]


class _ClientCore(_HostCore):
    """The request path of an :class:`OpenLoopClient` and the state it
    keeps.  ``_ccore.ClientCore`` replaces it when the C core is live."""

    __slots__ = (
        "client_id", "workload", "recorder", "rng", "stop_at_ns",
        "arrival_process", "_mean_gap_ns", "_seq", "_predrawn_seq",
        "_outstanding", "_arrivals", "_arrival_idx", "redundant_responses",
        "responses_received",
    )

    def _next_gap(self) -> int:
        if self.arrival_process is not None:
            return self.arrival_process.next_gap()
        return int(self.rng.expovariate(1.0) * self._mean_gap_ns) + 1

    def _refill_arrivals(self) -> None:
        """Pre-draw the next chunk of arrival records.

        Per request: request payload (workload stream), then packets,
        then gap (client stream).  Only *when* the draws happen (in
        batches, ahead of simulated time) depends on the chunk size,
        and no draw depends on that.
        """
        chunk = self.ARRIVAL_CHUNK
        seq = self._predrawn_seq
        make_chunk = getattr(self.workload, "make_request_chunk", None)
        if make_chunk is not None:
            requests = make_chunk(self.client_id, seq + 1, chunk)
        else:
            requests = [
                self.workload.make_request(self.client_id, seq + 1 + i)
                for i in range(chunk)
            ]
        buf: List[ArrivalRecord] = []
        for request in requests:
            seq += 1
            buf.append((seq, request, self.build_packets(request), self._next_gap()))
        self._predrawn_seq = seq
        self._arrivals = buf
        self._arrival_idx = 0

    def _flush_arrivals(self) -> None:
        """Discard pre-drawn arrivals (their packets go back to the pool).

        Used when a control-plane update invalidates pre-built packets
        (e.g. a new group table): the records were drawn against state
        that no longer exists, so they must not reach the wire.
        """
        for record in self._arrivals[self._arrival_idx:]:
            if record is None:
                continue
            for packet in record[2]:
                packet.release()
        self._arrivals = []
        self._arrival_idx = 0
        # Flushed records were never sent, so their sequence numbers
        # are free again; re-drawing them keeps sent seqs contiguous.
        self._predrawn_seq = self._seq

    def _send_one(self) -> None:
        if self.stop_at_ns is not None and self.sim.now >= self.stop_at_ns:
            return
        idx = self._arrival_idx
        if idx >= len(self._arrivals):
            self._refill_arrivals()
            idx = 0
        record = self._arrivals[idx]
        self._arrivals[idx] = None  # the record's refs die with the send
        self._arrival_idx = idx + 1
        seq, request, packets, gap = record
        self._seq = seq
        send_time = self.sim.now
        self._outstanding[seq] = send_time
        self.recorder.note_sent(send_time)
        for packet in packets:
            packet.created_at = send_time
            self.send(packet)
        self.sim.call_after(gap, self._send_one)

    def handle(self, packet: Packet) -> None:
        payload = packet.payload
        if payload is None or payload.client_id != self.client_id:
            packet.release()
            return
        self.responses_received += 1
        sent = self._outstanding.pop(payload.client_seq, None)
        if sent is None:
            # Second (redundant) response for an already-completed request.
            self.redundant_responses += 1
            packet.release()
            return
        self.recorder.record(sent, self.sim.now)
        packet.release()


if USING_CCORE:
    from repro.sim._ccore import ClientCore as _ClientCore  # noqa: F811


class OpenLoopClient(Host, _ClientCore):
    """Generates requests at a fixed average rate and measures latency.

    Extra keyword arguments (``packet_pool``) go to :class:`Host`.
    """

    #: Arrival records drawn per refill.
    ARRIVAL_CHUNK = 64

    # The request path's entry points sit in this class's own dict
    # (``Host.handle`` would shadow the base's), so tracers that wrap
    # ``OpenLoopClient._send_one`` / ``OpenLoopClient.handle`` at class
    # level find them here on either base.
    _send_one = _ClientCore._send_one
    handle = _ClientCore.handle

    def __init__(
        self,
        sim: Simulator,
        name: str,
        ip: int,
        client_id: int,
        workload: Any,
        rate_rps: float,
        recorder: LatencyRecorder,
        rng: random.Random,
        stop_at_ns: Optional[int] = None,
        tx_cost_ns: int = 700,
        rx_cost_ns: int = 300,
        rx_queue_limit: int = 4096,
        arrival_process: Optional[Any] = None,
        **host_kwargs: Any,
    ):
        super().__init__(
            sim,
            name,
            ip,
            tx_cost_ns=tx_cost_ns,
            rx_cost_ns=rx_cost_ns,
            rx_queue_limit=rx_queue_limit,
            **host_kwargs,
        )
        if rate_rps <= 0:
            raise ExperimentError("client rate must be positive")
        self.client_id = client_id
        self.workload = workload
        self.rate_rps = rate_rps
        self.recorder = recorder
        self.rng = rng
        self.stop_at_ns = stop_at_ns
        #: Optional open-loop modulation (MMPP bursts): an object with
        #: ``next_gap() -> int ns`` and ``set_rate(rate_rps)``.
        #: ``None`` keeps the plain exponential gaps — draw-for-draw
        #: identical to the historical client.
        self.arrival_process = arrival_process
        self._mean_gap_ns = 1e9 / rate_rps
        #: Sequence number of the last request actually sent.
        self._seq = 0
        #: High-water mark of pre-drawn sequence numbers (>= ``_seq``).
        self._predrawn_seq = 0
        self._outstanding: Dict[int, int] = {}
        #: Pre-drawn arrival records and read cursor.
        self._arrivals: List[ArrivalRecord] = []
        self._arrival_idx = 0
        self.redundant_responses = 0
        self.responses_received = 0

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin the open-loop arrival process."""
        self.sim.call_after(self._next_gap(), self._send_one)

    def set_rate(self, rate_rps: float) -> None:
        """Change the offered rate mid-run (load-surge drills).

        Pre-drawn arrival records carry gaps drawn at the old rate, so
        they are flushed (their packets go back to the pool) and the
        flushed sequence numbers are re-drawn at the new rate.  The one
        gap already on the event queue still reflects the old rate —
        the first post-change arrival is where the new rate takes hold,
        exactly as if the operator had reconfigured a live generator.
        """
        if rate_rps <= 0:
            raise ExperimentError("client rate must be positive")
        self.rate_rps = rate_rps
        self._mean_gap_ns = 1e9 / rate_rps
        if self.arrival_process is not None:
            self.arrival_process.set_rate(rate_rps)
        self._flush_arrivals()

    def flush_predrawn(self) -> None:
        """Release any pre-drawn, unsent arrival packets to the pool.

        Drain-time bookkeeping for harnesses (scenario runner, the
        ``REPRO_SANITIZE`` ledgers): packets sitting in the pre-draw
        buffer are held legitimately and must not count as leaks.
        """
        self._flush_arrivals()

    # ------------------------------------------------------------------
    def build_packets(self, request: Any) -> List[Packet]:
        """Packets to emit for one request; scheme-specific.

        Runs when the request is pre-drawn, ahead of its send time, so
        it may read only the client RNG and static configuration.
        """
        raise NotImplementedError

    @property
    def outstanding(self) -> int:
        """Requests sent but not yet answered."""
        return len(self._outstanding)
