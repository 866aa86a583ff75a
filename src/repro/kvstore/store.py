"""A real (executed, not mocked) in-memory key-value store.

Worker servers in the KV experiments hold a replica of the full
dataset and actually execute GET/SCAN/SET against it; the *simulated
service time* of each operation comes from a cost model
(:mod:`repro.kvstore.cost`) so that experiment time is decoupled from
wall-clock time.

Values are deterministic functions of the key (16-byte keys, 64-byte
values as in §5.5) generated lazily, so a million-object replica does
not need a gigabyte of RAM per simulated server.

With the C core live, the server (``sim/_ccore.c``) replays a GET or
SCAN on a store whose methods are this class's own: the key check, the
count check and the ``gets``/``scans`` counters, but no value bytes,
since the server discards the result.  Anything else (a SET, a bad key,
an override) calls the methods below, which stay the one definition.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import KVStoreError

__all__ = ["KeyValueStore"]


class KeyValueStore:
    """One server's replica of the object store."""

    KEY_BYTES = 16
    VALUE_BYTES = 64

    def __init__(self, num_keys: int = 1_000_000):
        if num_keys <= 0:
            raise KVStoreError("num_keys must be positive")
        self.num_keys = num_keys
        # Overlay of explicit writes on top of the deterministic base image.
        self._writes: Dict[int, bytes] = {}
        self.gets = 0
        self.scans = 0
        self.sets = 0

    # ------------------------------------------------------------------
    def _base_value(self, key: int) -> bytes:
        # Deterministic 64-byte value derived from the key; identical on
        # every replica, which is what lets cloned reads hit any server.
        seed = key.to_bytes(8, "little")
        return (seed * 8)[: self.VALUE_BYTES]

    def _check_key(self, key: int) -> None:
        if not 0 <= key < self.num_keys:
            raise KVStoreError(f"key {key} outside keyspace of {self.num_keys}")

    # ------------------------------------------------------------------
    def get(self, key: int) -> bytes:
        """Read one object."""
        self._check_key(key)
        self.gets += 1
        override = self._writes.get(key)
        return override if override is not None else self._base_value(key)

    def scan(self, start_key: int, count: int) -> List[bytes]:
        """Read *count* consecutive objects starting at *start_key*."""
        self._check_key(start_key)
        if count <= 0:
            raise KVStoreError("scan count must be positive")
        self.scans += 1
        out = []
        for offset in range(count):
            key = (start_key + offset) % self.num_keys
            override = self._writes.get(key)
            out.append(override if override is not None else self._base_value(key))
        return out

    def set(self, key: int, value: bytes) -> None:
        """Write one object (replica-local; replication is out of scope)."""
        self._check_key(key)
        if len(value) != self.VALUE_BYTES:
            raise KVStoreError(
                f"values are fixed at {self.VALUE_BYTES} bytes, got {len(value)}"
            )
        self.sets += 1
        self._writes[key] = value

    def value_checksum(self, key: int) -> int:
        """Cheap content digest used by integrity tests."""
        return sum(self.get(key)) & 0xFFFF
