"""Opt-in runtime sanitizers (``REPRO_SANITIZE=1``).

The static rules in :mod:`repro.analysis` catch hazards visible in the
source; this module catches the two that are not — a packet acquired on
one path and leaked on another the AST cannot prove reachable, and a
component silently drawing from a sibling's RNG stream (which shifts
every later draw without failing anything until a golden diffs).

Two sanitizers, both zero-cost when off because the plain classes are
used instead:

* :class:`SanitizingPacketPool` — a :class:`~repro.net.packet.PacketPool`
  whose acquire/release flow feeds a :class:`PacketLedger`.  Every
  ``acquire`` records the packet with the call site that drew it; the
  free list retires entries as packets come back.  At drain, entries
  still open are leaks, reported with the site that acquired them.
* :class:`SanitizingRngRegistry` — a
  :class:`~repro.sim.rng.RngRegistry` whose scalar streams count their
  draws (``random()`` and ``getrandbits()``, the two primitives every
  derived method bottoms out in).  Two runs of the same seed must
  produce identical per-stream counts; :func:`diff_draw_counts` names
  the streams that diverged.  Numpy streams are not counted — they are
  used for batch analysis off the hot path, not scheduling.

Wiring: :class:`~repro.experiments.common.Cluster` swaps in the
sanitizing classes when :func:`enabled` is true, and both
``run_point`` and the scenario runner run the simulator until its
queue empties and then call ``cluster.sanitize_check()``, so a leak
fails the run with the acquiring site in the message instead of
vanishing into the free list's accounting.

The ledger reports whatever is outstanding when it is asked: a caller
that builds a report before the queue empties sees the packets still
in flight as leaks.  That is the run being truncated, not a pool bug.
"""

from __future__ import annotations

import hashlib
import os
import random
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.net.packet import Packet, PacketPool
from repro.sim.core import USING_CCORE
from repro.sim.rng import RngRegistry, stream_seed

if USING_CCORE:
    from repro.sim._ccore import acquire_site as _c_acquire_site
else:

    def _c_acquire_site() -> Optional[str]:
        return None

__all__ = [
    "CountingRandom",
    "PacketLedger",
    "SanitizerError",
    "SanitizerReport",
    "SanitizingPacketPool",
    "SanitizingRngRegistry",
    "diff_draw_counts",
    "enabled",
]


class SanitizerError(RuntimeError):
    """A sanitizer found a violation at drain time."""


def enabled() -> bool:
    """Whether ``REPRO_SANITIZE`` asks for sanitized runs.

    Read per cluster build (not per event), so a test harness can flip
    the variable between experiments.
    """
    return bool(os.environ.get("REPRO_SANITIZE"))  # detlint: ignore[env-read] -- sanitizer opt-in gate, read once per cluster build


# ----------------------------------------------------------------------
# Packet ledger
# ----------------------------------------------------------------------
_OWN_FILES = ("sanitize.py", "packet.py")


def _call_site() -> str:
    """``file:line`` of the nearest frame outside the pool machinery.

    A packet C code acquires (a clone copy the C NetClone pass makes, a
    response the C server sends) has no Python frame of its own; the C
    core tags it with its module and type instead (``program.py:…``,
    ``server.py:…``), as the pure-Python engine's frame would name it.
    """
    site = _c_acquire_site()
    if site is not None:
        return site
    frame = sys._getframe(1)
    while frame is not None:
        filename = frame.f_code.co_filename
        if not filename.endswith(_OWN_FILES):
            return f"{os.path.basename(filename)}:{frame.f_lineno}"
        frame = frame.f_back
    return "<unknown>"


class PacketLedger:
    """Open-entry accounting of packet lives.

    Keyed by uid, which numbers packet lives and is never reused within
    a pool: a leaked packet that is garbage-collected keeps its entry
    open, even when a later acquire reuses its address.  The ledger's
    size is the number of packets currently out of the pool.
    """

    __slots__ = ("outstanding", "acquired", "retired", "foreign_releases")

    def __init__(self) -> None:
        #: uid -> acquiring call site.
        self.outstanding: Dict[int, str] = {}
        self.acquired = 0
        self.retired = 0
        #: Releases of packets this ledger never admitted.
        self.foreign_releases = 0

    def admit(self, packet: Packet) -> None:
        self.acquired += 1
        self.outstanding[packet.uid] = _call_site()

    def retire(self, packet: Packet) -> None:
        if self.outstanding.pop(packet.uid, None) is None:
            self.foreign_releases += 1
        else:
            self.retired += 1

    def leaks(self) -> List[Tuple[int, str]]:
        """Open entries as ``(uid, site)``, oldest life first."""
        return sorted(self.outstanding.items())


class _LedgerList(list):
    """The sanitizing pool's free list: appends retire ledger entries.

    ``Packet.release()`` appends straight to ``pool._free`` (the hot
    path deliberately skips a pool method call), so interception has to
    live on the list itself — the release code stays untouched.  The C
    core's release appends to an exact list in C and calls ``append``
    on any other, so this subclass sees every release on either engine.
    """

    __slots__ = ("ledger",)

    def __init__(self, ledger: PacketLedger):
        super().__init__()
        self.ledger = ledger

    def append(self, packet: Packet) -> None:
        self.ledger.retire(packet)
        super().append(packet)


class SanitizingPacketPool(PacketPool):
    """A :class:`PacketPool` that admits every acquire to a ledger."""

    __slots__ = ("ledger",)

    def __init__(self) -> None:
        super().__init__()
        self.ledger = PacketLedger()
        self._free = _LedgerList(self.ledger)

    def acquire(self, *args, **kwargs) -> Packet:
        packet = super().acquire(*args, **kwargs)
        self.ledger.admit(packet)
        return packet


# ----------------------------------------------------------------------
# RNG draw accounting
# ----------------------------------------------------------------------
class CountingRandom(random.Random):
    """A ``random.Random`` that counts primitive draws.

    Every public method (``expovariate``, ``gauss``, ``shuffle``,
    ``choice``, ...) bottoms out in ``random()`` or ``getrandbits()``,
    so counting these two covers the whole API without shadowing it.
    """

    def __init__(self, seed: Optional[int] = None):
        super().__init__(seed)
        self.draws = 0

    def random(self) -> float:
        self.draws += 1
        return super().random()

    def getrandbits(self, k: int) -> int:
        self.draws += 1
        return super().getrandbits(k)


class SanitizingRngRegistry(RngRegistry):
    """An :class:`RngRegistry` whose scalar streams count their draws."""

    def stream(self, name: str) -> random.Random:
        rng = self._streams.get(name)
        if rng is None:
            rng = CountingRandom(stream_seed(self.root_seed, name))
            self._streams[name] = rng
        return rng

    def draw_counts(self) -> Dict[str, int]:
        """Draws so far per stream, in stream-name order."""
        return {
            name: getattr(rng, "draws", 0)
            for name, rng in sorted(self._streams.items())
        }


def diff_draw_counts(
    first: Dict[str, int], second: Dict[str, int]
) -> List[str]:
    """Streams whose draw counts differ between two same-seed runs.

    A non-empty result means some component's consumption of
    randomness depended on something other than the seed — exactly the
    divergence that turns into an unexplainable golden diff later.
    """
    divergent = []
    for name in sorted(set(first) | set(second)):
        if first.get(name, 0) != second.get(name, 0):
            divergent.append(name)
    return divergent


# ----------------------------------------------------------------------
# Drain-time report
# ----------------------------------------------------------------------
@dataclass
class SanitizerReport:
    """What the sanitizers saw over one run."""

    packet_leaks: List[Tuple[int, str]]
    acquired: int
    retired: int
    foreign_releases: int
    draw_counts: Dict[str, int]

    @property
    def clean(self) -> bool:
        return not self.packet_leaks

    @property
    def draw_digest(self) -> str:
        """Stable digest of the per-stream draw counts.

        Equal seeds must give equal digests; comparing digests across
        runs (or across ``jobs=1`` vs ``jobs=N`` workers) is the cheap
        form of :func:`diff_draw_counts`.
        """
        blob = ";".join(
            f"{name}={count}" for name, count in sorted(self.draw_counts.items())
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]

    def format(self) -> str:
        lines = [
            f"sanitizer: {self.acquired} acquired, {self.retired} released, "
            f"{len(self.packet_leaks)} leaked, "
            f"{self.foreign_releases} foreign releases; "
            f"rng draws digest {self.draw_digest} "
            f"({len(self.draw_counts)} streams)"
        ]
        for uid, site in self.packet_leaks[:20]:
            lines.append(f"  leaked packet uid={uid} acquired at {site}")
        if len(self.packet_leaks) > 20:
            lines.append(f"  ... and {len(self.packet_leaks) - 20} more")
        return "\n".join(lines)


def build_report(
    pool: SanitizingPacketPool, rngs: RngRegistry
) -> SanitizerReport:
    """Reduce the ledgers to a :class:`SanitizerReport`."""
    ledger = pool.ledger
    draw_counts = (
        rngs.draw_counts() if isinstance(rngs, SanitizingRngRegistry) else {}
    )
    return SanitizerReport(
        packet_leaks=ledger.leaks(),
        acquired=ledger.acquired,
        retired=ledger.retired,
        foreign_releases=ledger.foreign_releases,
        draw_counts=draw_counts,
    )
