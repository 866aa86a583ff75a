"""Hash units.

Tofino stages contain CRC-based hash units; NetClone uses one to map a
request ID onto a filter-table slot (§3.5).  The NetClone pass
computes it inline: zlib's CRC-32 over the 8 little-endian bytes of
the ID, reduced modulo the unit's bucket count, which matches the
spirit (cheap, well-mixed, deterministic) without modelling the exact
polynomial configuration.
"""

from __future__ import annotations

from repro.errors import PipelineConfigError

__all__ = ["HashUnit"]


class HashUnit:
    """A named hash unit bound to a stage (for resource accounting)."""

    def __init__(self, name: str, stage: int, buckets: int):
        if buckets <= 0:
            raise PipelineConfigError(f"hash unit {name!r} needs positive buckets")
        self.name = name
        self.stage = stage
        self.buckets = buckets
