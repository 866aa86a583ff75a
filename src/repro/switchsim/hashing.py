"""Hash units.

Tofino stages contain CRC-based hash units; NetClone uses one to map a
request ID onto a filter-table slot (§3.5).  We use CRC32 over the
little-endian byte representation, reduced modulo the table size, which
matches the spirit (cheap, well-mixed, deterministic) without modelling
the exact polynomial configuration.
"""

from __future__ import annotations

import zlib

from repro.errors import PipelineConfigError

__all__ = ["HashUnit", "crc32_hash"]


def crc32_hash(value: int, buckets: int) -> int:
    """CRC32 of *value* folded into ``[0, buckets)``."""
    if buckets <= 0:
        raise PipelineConfigError("hash bucket count must be positive")
    data = (value & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
    return zlib.crc32(data) % buckets


class HashUnit:
    """A named hash unit bound to a stage (for resource accounting)."""

    def __init__(self, name: str, stage: int, buckets: int):
        if buckets <= 0:
            raise PipelineConfigError(f"hash unit {name!r} needs positive buckets")
        self.name = name
        self.stage = stage
        self.buckets = buckets
