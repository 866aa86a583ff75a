"""Stage-pinned register arrays.

On a PISA ASIC each register array lives in the SRAM of exactly one
match-action stage, chosen at compile time, and a packet can perform at
most **one** stateful ALU operation on it per pipeline pass.  Reading
the server-state array twice for two candidate servers is therefore
impossible — the reason NetClone keeps a *shadow* copy in a later
stage (§3.4).

:class:`RegisterArray` records its stage at construction.  A program
proves both constraints once, when it is built
(:meth:`~repro.switchsim.pipeline.Pipeline.compile_plan`), and its
verified pass then addresses cells directly.

:class:`RegisterFile` models the other half of the SRAM story: all of
one program's register arrays live in a single flat backing store —
one ``array('q')`` per program, like the contiguous SRAM banks the
compiler carves stage memory out of.  Every array lives in a file; its
``cells`` is a zero-copy :class:`memoryview` slice of that store, so
control-plane peek/poke address one array while a verified pass
addresses the whole file through flat ``base + index`` offsets, and
bulk control-plane operations (wipes) run vectorised over a numpy view
of the same memory.
"""

from __future__ import annotations

from array import array
from typing import List, Optional

import numpy as np

from repro.errors import StageAccessError

__all__ = ["RegisterArray", "RegisterFile"]


class RegisterFile:
    """A shared flat backing store for a program's register arrays.

    Usage: construct one file, create every :class:`RegisterArray`
    with ``file=the_file``, then :meth:`freeze` it.  Freezing lays all
    attached arrays out back-to-back in one zeroed ``array('q')`` and
    hands each a zero-copy ``memoryview`` slice; afterwards no further
    arrays can attach (the exported buffers pin the allocation, just
    like a compiled pipeline pins its SRAM map).
    """

    def __init__(self) -> None:
        self._attached: List["RegisterArray"] = []
        self._total = 0
        #: The flat backing store (``None`` until frozen).
        self.data: Optional[array] = None

    def attach(self, register: "RegisterArray") -> int:
        """Reserve *register*'s cells; returns its base offset."""
        if self.data is not None:
            raise StageAccessError(
                f"register file is frozen; cannot attach {register.name!r}"
            )
        base = self._total
        self._attached.append(register)
        self._total += register.size
        return base

    def freeze(self) -> None:
        """Materialise the flat store and wire every attached array."""
        if self.data is not None:
            return
        data = array("q", bytes(8 * self._total))
        self.data = data
        flat = memoryview(data)
        for register in self._attached:
            register.cells = flat[register.base : register.base + register.size]

    @property
    def size(self) -> int:
        """Total cells reserved across all attached arrays."""
        return self._total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "frozen" if self.data is not None else "open"
        return f"<RegisterFile {len(self._attached)} arrays {self._total} cells {state}>"


class RegisterArray:
    """A fixed-size array of integer cells bound to one pipeline stage."""

    def __init__(
        self,
        name: str,
        size: int,
        stage: int,
        width_bits: int = 32,
        *,
        file: RegisterFile,
    ):
        if size <= 0:
            raise StageAccessError(f"register array {name!r} needs positive size")
        if stage < 0:
            raise StageAccessError(f"register array {name!r} needs a valid stage")
        if width_bits not in (1, 8, 16, 32, 64):
            raise StageAccessError(f"unsupported register width {width_bits}")
        self.name = name
        self.size = size
        self.stage = stage
        self.width_bits = width_bits
        self._mask = (1 << width_bits) - 1
        self.file = file
        self.base = file.attach(self)
        #: A memoryview slice of the file's flat store, set when the
        #: file is frozen.
        self.cells: Optional[memoryview] = None

    # -- control-plane access (no pass/stage constraints) ---------------
    def peek(self, index: int) -> int:
        """Control-plane read, exempt from data-plane constraints."""
        return self.cells[index]

    def poke(self, index: int, value: int) -> None:
        """Control-plane write, exempt from data-plane constraints."""
        self.cells[index] = value & self._mask

    def clear(self, value: int = 0) -> None:
        """Control-plane reset of every cell (e.g. after power cycle)."""
        # Vectorised wipe over the file's numpy view of the same memory
        # — power-cycle drills reset 2^17-slot filter tables, which a
        # Python loop makes measurably slow.
        view = np.frombuffer(self.file.data, dtype=np.int64)
        view[self.base : self.base + self.size] = value & self._mask

    @property
    def sram_bytes(self) -> int:
        """SRAM footprint of this array in bytes."""
        return self.size * self.width_bits // 8

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<RegisterArray {self.name} size={self.size} stage={self.stage} "
            f"width={self.width_bits}b>"
        )
