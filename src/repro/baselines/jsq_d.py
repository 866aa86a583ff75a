"""JSQ(d): client-side power-of-d-choices load balancing (demo plugin).

The client samples ``d`` distinct servers per request and sends to the
one with the fewest of *its own* outstanding requests (ties break
uniformly).  This is the classic power-of-d-choices approximation of
join-shortest-queue using only local knowledge — no cloning, no switch
program, no coordinator — and sits between the random Baseline and the
switch-side RackSched JSQ.

The module doubles as the reference example of the scheme plugin
surface: it registers ``jsq-d3`` purely through
``@SCHEMES.register`` (:mod:`repro.experiments.schemes`), with zero edits to
:mod:`repro.experiments.common`.  The outstanding-count bookkeeping
(including lazy staleness expiry for requests lost to queue overflow)
is shared with bounded-random via
:class:`~repro.baselines.tracking.OutstandingTrackingClient`.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.baselines.tracking import OutstandingTrackingClient
from repro.errors import ExperimentError
from repro.experiments.schemes import SCHEMES, SchemeContext, SchemeSpec

__all__ = ["JsqDClient"]


class JsqDClient(OutstandingTrackingClient):
    """Open-loop client that joins the least-loaded of *d* random servers."""

    def __init__(self, *args: Any, d: int = 3, **kwargs: Any):
        super().__init__(*args, **kwargs)
        if d < 1:
            raise ExperimentError("JSQ(d) needs d >= 1")
        if len(self.server_ips) < d:
            raise ExperimentError(
                f"JSQ(d={d}) needs at least {d} servers, got {len(self.server_ips)}"
            )
        self.d = d

    def _pick_server(self) -> int:
        candidates = self.rng.sample(self.server_ips, self.d)
        best = min(self._outstanding_at[ip] for ip in candidates)
        return self.rng.choice(
            [ip for ip in candidates if self._outstanding_at[ip] == best]
        )


def _jsq_d3_client(ctx: SchemeContext, common: Dict[str, Any]) -> JsqDClient:
    return JsqDClient(server_ips=ctx.server_ips, d=3, **common)


@SCHEMES.register
def _jsq_d3_spec() -> SchemeSpec:
    return SchemeSpec(
        name="jsq-d3",
        description="client-side join-least-outstanding over 3 random choices",
        aliases=("p3c",),
        make_client=_jsq_d3_client,
    )
