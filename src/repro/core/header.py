"""The NetClone header (Figure 3).

The header rides between the L4 header and the application payload.
Seven fields from the paper plus the SWID field §3.7 adds for
multi-rack deployments:

========= ======= =====================================================
field     bits    meaning
========= ======= =====================================================
TYPE      8       message type: REQ or RESP
REQ_ID    32      switch-assigned global sequence number
GRP       16      group ID choosing the candidate server pair
SID       8       server ID (response sender; clone destination)
STATE     8       piggybacked server state (or queue length)
CLO       8       0 = not cloned, 1 = cloned original, 2 = cloned copy
IDX       8       which filter table this request's responses use
SWID      8       ToR switch ID stamp for multi-rack deployments
========= ======= =====================================================

The in-simulator representation is the slotted object below; the
byte-exact codec (:meth:`pack` / :meth:`unpack`) fixes the wire format
and is exercised by the tests.

The eight fields and :meth:`copy` live on :class:`_HeaderCore`, the
base of :class:`NetCloneHeader`.  With the C core live
(``USING_CCORE``) that base is ``_ccore.HeaderCore``, so the NetClone
switch pass reads and writes header fields off the C struct and a
clone's header copy makes no Python frame.  The Python class below is
the reference and the ``REPRO_PURE_SIM=1`` path.
"""

from __future__ import annotations

import struct

from repro.errors import CodecError
from repro.sim.core import USING_CCORE

__all__ = ["NetCloneHeader"]

_STRUCT = struct.Struct("!BIHBBBBB")

#: The header's fields in wire order.
FIELDS = ("msg_type", "req_id", "grp", "sid", "state", "clo", "idx", "swid")


class _HeaderCore:
    """The fields of a :class:`NetCloneHeader` and its ``copy``.
    ``_ccore.HeaderCore`` replaces it when the C core is live."""

    __slots__ = FIELDS

    def __init__(
        self,
        msg_type: int,
        req_id: int = 0,
        grp: int = 0,
        sid: int = 0,
        state: int = 0,
        clo: int = 0,
        idx: int = 0,
        swid: int = 0,
    ):
        self.msg_type = msg_type
        self.req_id = req_id
        self.grp = grp
        self.sid = sid
        self.state = state
        self.clo = clo
        self.idx = idx
        self.swid = swid

    def copy(self) -> "NetCloneHeader":
        """An independent copy (headers are mutated by the switch)."""
        return type(self)(
            self.msg_type,
            self.req_id,
            self.grp,
            self.sid,
            self.state,
            self.clo,
            self.idx,
            self.swid,
        )


if USING_CCORE:
    from repro.sim._ccore import HeaderCore as _HeaderCore  # noqa: F811


class NetCloneHeader(_HeaderCore):
    """One NetClone header instance."""

    WIRE_SIZE = _STRUCT.size  # 12 bytes

    __slots__ = ()

    # In this class's own dict, like Packet.copy: a class-level wrapper
    # sees every header copy, the C pass's clone copies included.
    copy = _HeaderCore.copy

    # ------------------------------------------------------------------
    def pack(self) -> bytes:
        """Encode to the 12-byte wire form."""
        try:
            return _STRUCT.pack(
                self.msg_type,
                self.req_id,
                self.grp,
                self.sid,
                self.state,
                self.clo,
                self.idx,
                self.swid,
            )
        except struct.error as exc:
            raise CodecError(f"NetClone header field out of range: {exc}") from exc

    @classmethod
    def unpack(cls, data: bytes) -> "NetCloneHeader":
        """Decode from at least 12 bytes."""
        if len(data) < cls.WIRE_SIZE:
            raise CodecError(
                f"NetClone header needs {cls.WIRE_SIZE} bytes, got {len(data)}"
            )
        fields = _STRUCT.unpack(data[: cls.WIRE_SIZE])
        return cls(*fields)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NetCloneHeader):
            return NotImplemented
        return all(
            getattr(self, field) == getattr(other, field) for field in FIELDS
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = {1: "REQ", 2: "RESP"}.get(self.msg_type, str(self.msg_type))
        return (
            f"<NC {kind} id={self.req_id} grp={self.grp} sid={self.sid} "
            f"state={self.state} clo={self.clo} idx={self.idx} swid={self.swid}>"
        )
