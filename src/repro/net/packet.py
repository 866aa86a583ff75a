"""The in-simulator packet representation.

A :class:`Packet` is a slotted object rather than real bytes: the hot
path copies and inspects fields millions of times per experiment, so we
keep it as lean as possible.  Every packet is UDP; the one byte-exact
encoding that matters, the NetClone header, lives in
:mod:`repro.core.header`.

Switch-internal metadata (ingress port, recirculation flag) also
lives here, mirroring how PISA attaches per-packet metadata
alongside the parsed header vector.

Every packet comes from a :class:`PacketPool`: a free list that
recycles the slotted objects (client request → server response →
client release) instead of allocating one per hop, and — just as
importantly — owns its own uid counter.  Uids therefore depend only on
what the owning experiment does, not on whatever else ran earlier in
the process, so two identical experiments produce identical uid
streams no matter what preceded them.  :meth:`PacketPool.acquire` is
the only way to make a packet, so every packet knows its pool and
every release recycles.

The fields and the three per-life operations — ``acquire``,
``release`` and ``copy`` — live on :class:`_PacketCore` and
:class:`_PoolCore`, the bases of :class:`Packet` and
:class:`PacketPool`.  With the C core live (``USING_CCORE``) those
bases are ``_ccore.PacketCore`` and ``_ccore.PoolCore``: the
forwarding hop and the NetClone pass then release and copy packets
with no Python frame, and read and write packet fields off the C
struct.  The Python classes below are the reference and the
``REPRO_PURE_SIM=1`` path.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.sim.core import USING_CCORE

__all__ = ["Packet", "PacketPool"]


class _PacketCore:
    """The fields of a :class:`Packet` and its ``release``/``copy``.
    ``_ccore.PacketCore`` replaces it when the C core is live.

    :param pool: the owning :class:`PacketPool`.
    :param uid: the packet life's number, drawn from *pool*.
    :param src: source IPv4 address (integer form).
    :param dst: destination IPv4 address (integer form).
    :param sport: source L4 port.
    :param dport: destination L4 port.
    :param size: total on-wire size in bytes (used for serialisation
        delay).
    :param payload: opaque application payload object.
    :param nc: optional NetClone header (``repro.core.header.
        NetCloneHeader``); ``None`` for normal traffic.
    :param created_at: simulated time the request was sent.
    """

    __slots__ = (
        "uid",
        "src",
        "dst",
        "sport",
        "dport",
        "size",
        "payload",
        "nc",
        "ingress_port",
        "recirculated",
        "created_at",
        "pool",
        "_freed",
    )

    def __init__(
        self,
        pool: "PacketPool",
        uid: int,
        src: int,
        dst: int,
        sport: int,
        dport: int,
        size: int,
        payload: Any,
        nc: Optional[Any],
        created_at: int,
    ):
        self.uid = uid
        self.src = src
        self.dst = dst
        self.sport = sport
        self.dport = dport
        self.size = size
        self.payload = payload
        self.nc = nc
        #: Switch metadata: port the packet entered on (set by the switch).
        self.ingress_port: int = -1
        #: Switch metadata: whether this pass is a recirculated one.
        self.recirculated: bool = False
        #: Simulated time the packet object was created (client send time).
        self.created_at = created_at
        #: Owning :class:`PacketPool`.
        self.pool = pool
        self._freed = False

    def release(self) -> None:
        """Return this packet to its pool.

        Idempotent: a second release of the same life is ignored (the
        pool would otherwise hand the object out twice).  Payload and
        header references are dropped so released packets keep nothing
        alive.
        """
        if self._freed:
            return
        self._freed = True
        self.payload = None
        self.nc = None
        pool = self.pool
        pool._free.append(self)
        pool.released += 1

    def copy(self) -> "Packet":
        """A field-by-field copy with a fresh uid and clean switch metadata.

        The NetClone header is copied too (it is mutable); the payload
        is shared, matching how a hardware clone duplicates bytes but
        our simulator treats the payload as opaque.  The copy comes
        from this packet's pool, so switch clones recycle too.
        """
        nc = self.nc.copy() if self.nc is not None else None
        return self.pool.acquire(
            self.src,
            self.dst,
            self.sport,
            self.dport,
            self.size,
            self.payload,
            nc,
            self.created_at,
        )


class _PoolCore:
    """The free list and uid counter of a :class:`PacketPool`.
    ``_ccore.PoolCore`` replaces it when the C core is live."""

    __slots__ = ("_free", "_next_uid", "allocated", "released")

    def __init__(self) -> None:
        self._free: List[Packet] = []
        self._next_uid = 1
        #: Packet objects newly constructed by this pool (not reuses).
        self.allocated = 0
        #: Total releases back into the free list.
        self.released = 0

    def acquire(
        self,
        src: int,
        dst: int,
        sport: int,
        dport: int,
        size: int,
        payload: Any = None,
        nc: Optional[Any] = None,
        created_at: int = 0,
    ) -> "Packet":
        """A packet owned by this pool, recycled when possible."""
        uid = self._next_uid
        self._next_uid = uid + 1
        free = self._free
        if free:
            # Re-initialise the recycled object in place for its new
            # life; acquire runs once per packet life.
            packet = free.pop()
            packet.uid = uid
            packet.src = src
            packet.dst = dst
            packet.sport = sport
            packet.dport = dport
            packet.size = size
            packet.payload = payload
            packet.nc = nc
            packet.ingress_port = -1
            packet.recirculated = False
            packet.created_at = created_at
            packet._freed = False
            return packet
        self.allocated += 1
        return self._packet_type(
            self, uid, src, dst, sport, dport, size, payload, nc, created_at
        )


if USING_CCORE:
    from repro.sim._ccore import PacketCore as _PacketCore  # noqa: F811
    from repro.sim._ccore import PoolCore as _PoolCore  # noqa: F811


class Packet(_PacketCore):
    """One simulated UDP datagram, built only by :meth:`PacketPool.acquire`."""

    __slots__ = ()

    # The per-life operations sit in this class's own dict, so tracers
    # that wrap ``Packet.release`` / ``Packet.copy`` at class level find
    # them here on either base, and the C hop and pass call the wrapper.
    release = _PacketCore.release
    copy = _PacketCore.copy

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        from repro.net.addresses import format_ip

        kind = "nc" if self.nc is not None else "plain"
        return (
            f"<Packet #{self.uid} {kind} {format_ip(self.src)}:{self.sport} -> "
            f"{format_ip(self.dst)}:{self.dport} {self.size}B>"
        )


class PacketPool(_PoolCore):
    """Free-list recycler and uid authority for one experiment.

    Every :meth:`acquire` hands out a fresh uid from the pool's private
    counter — uids number packet *lives* in creation order, whether the
    backing object is new or recycled.  That keeps uid streams
    bit-reproducible per experiment (see module docstring) while the
    free list keeps steady-state allocation at zero: a request/response
    pair recycles the same two objects for the whole run.
    """

    __slots__ = ()

    #: The class a pool constructs when its free list is empty.
    _packet_type = Packet

    # In this class's own dict for the same reason as Packet.release:
    # a class-level wrapper sees every acquire, clone copies included.
    acquire = _PoolCore.acquire

    @property
    def free_count(self) -> int:
        """Packets currently sitting in the free list."""
        return len(self._free)

    @property
    def uid_count(self) -> int:
        """Total packet lives handed out so far."""
        return self._next_uid - 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<PacketPool uids={self.uid_count} allocated={self.allocated} "
            f"free={self.free_count}>"
        )
