"""Service models: what a worker thread actually does per request.

A :class:`ServiceModel` maps a request payload to (a) the base service
time the worker occupies and (b) the executed result / response size.
Synthetic dummy RPCs spin for a client-specified duration (§5.1.2);
KV services execute the operation against a real in-memory store and
charge the cost model's time (§5.5).

With the C core live, the server (``sim/_ccore.c``) replays
:class:`KvService`'s three methods, its cost model's ``service_ns`` and
``JitterModel.apply`` wherever Python would resolve them to these
definitions; a subclass override or a class-level wrapper gets its
Python call.  The replayed ``execute`` builds no value bytes: the server
discards its result.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.errors import WorkloadError
from repro.kvstore.cost import KvCostModel
from repro.kvstore.store import KeyValueStore
from repro.workloads.kv import KvOp, KvRequest
from repro.workloads.synthetic import RpcRequest

__all__ = ["KvService", "ServiceModel", "SyntheticService"]


class ServiceModel:
    """Base class for per-server request execution."""

    #: True when ``base_service_ns`` is exactly ``payload.service_ns``
    #: and ``execute`` is a no-op — lets the server's per-request hot
    #: path skip two method dispatches.
    trivial_spin = False

    #: Payload-independent response size in bytes, or ``None`` when
    #: :meth:`response_size` actually depends on the payload.  Lets the
    #: server skip one method dispatch per response.
    fixed_response_size: Optional[int] = None

    def base_service_ns(self, payload: Any) -> int:
        """Base service time of *payload* (before execution jitter)."""
        raise NotImplementedError

    def execute(self, payload: Any) -> Optional[Any]:
        """Actually perform the operation; returns a result summary."""
        raise NotImplementedError

    def response_size(self, payload: Any) -> int:
        """Wire size of the response carrying the result."""
        raise NotImplementedError


class SyntheticService(ServiceModel):
    """Dummy RPC: spin for the duration carried in the request."""

    RESPONSE_SIZE = 128
    trivial_spin = True
    fixed_response_size = RESPONSE_SIZE

    def base_service_ns(self, payload: RpcRequest) -> int:
        return payload.service_ns

    def execute(self, payload: RpcRequest) -> None:
        return None

    def response_size(self, payload: RpcRequest) -> int:
        return self.RESPONSE_SIZE


class KvService(ServiceModel):
    """Key-value service: executes GET/SCAN/SET on a local replica."""

    RESPONSE_OVERHEAD = 64

    def __init__(self, store: KeyValueStore, cost_model: KvCostModel):
        self.store = store
        self.cost_model = cost_model

    def base_service_ns(self, payload: KvRequest) -> int:
        return self.cost_model.service_ns(payload)

    def execute(self, payload: KvRequest) -> Any:
        if payload.op is KvOp.GET:
            return self.store.get(payload.key)
        if payload.op is KvOp.SCAN:
            values = self.store.scan(payload.key, payload.count)
            # Responses are single packets; summarise like a real server
            # would when the client asked for a digest-style scan.
            return len(values)
        if payload.op is KvOp.SET:
            self.store.set(payload.key, b"\x00" * self.store.VALUE_BYTES)
            return True
        raise WorkloadError(f"unknown op {payload.op!r}")

    def response_size(self, payload: KvRequest) -> int:
        values = min(payload.count, 16) if payload.op is KvOp.SCAN else 1
        return self.RESPONSE_OVERHEAD + values * self.store.VALUE_BYTES
