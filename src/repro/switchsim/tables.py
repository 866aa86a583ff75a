"""Exact-match match-action tables.

Match-action tables differ from register arrays in two ways that
matter to the model: their entries are installed by the **control
plane** (slow, not line-rate — §3.8 contrasts this with data-plane
register updates), and a packet may *look up* a table only in the
stage the table occupies (proven per pass shape by
:meth:`~repro.switchsim.pipeline.Pipeline.compile_plan`).
"""

from __future__ import annotations

from typing import Any, Dict

from repro.errors import TableError

__all__ = ["MatchActionTable"]


class MatchActionTable:
    """An exact-match table mapping integer keys to action data."""

    def __init__(self, name: str, stage: int, max_entries: int = 65536):
        if stage < 0:
            raise TableError(f"table {name!r} needs a valid stage")
        if max_entries <= 0:
            raise TableError(f"table {name!r} needs positive capacity")
        self.name = name
        self.stage = stage
        self.max_entries = max_entries
        self._entries: Dict[int, Any] = {}
        #: Number of control-plane updates applied (instrumentation).
        self.update_count = 0

    # -- control plane ----------------------------------------------------
    def install(self, key: int, value: Any) -> None:
        """Install or overwrite one entry (control-plane operation)."""
        if key not in self._entries and len(self._entries) >= self.max_entries:
            raise TableError(f"table {self.name!r} full ({self.max_entries} entries)")
        self._entries[key] = value
        self.update_count += 1

    def remove(self, key: int) -> None:
        """Remove one entry; missing keys are an error (operator bug)."""
        if key not in self._entries:
            raise TableError(f"table {self.name!r} has no entry for key {key}")
        del self._entries[key]
        self.update_count += 1

    def entries(self) -> Dict[int, Any]:
        """Snapshot of the installed entries."""
        return dict(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: int) -> bool:
        return key in self._entries

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MatchActionTable {self.name} stage={self.stage} entries={len(self)}>"
