"""Bounded-random: random choice with client-side retries (plugin).

The client picks a server uniformly at random, but keeps at most
``bound`` of *its own* requests outstanding per server: a draw that
lands on a saturated server is retried (another uniform draw) up to
``max_retries`` times before the last candidate is used anyway.  This
is the classic "random with a threshold" middle ground between the
Baseline's pure random spraying and JSQ(d)'s always-compare policy —
cheaper than JSQ (most draws never look at a second server) while
still steering around servers the client itself has recently loaded.

Like :mod:`repro.baselines.jsq_d` — with which it shares the
outstanding-count bookkeeping via
:class:`~repro.baselines.tracking.OutstandingTrackingClient` — the
module doubles as a reference plugin: it registers ``bounded-random``
purely through ``@SCHEMES.register`` (:mod:`repro.experiments.schemes`),
with zero edits to :mod:`repro.experiments.common` — and, because
schemes compose with the topology registry, it runs unchanged on the
multi-rack fabrics (``ClusterConfig(scheme="bounded-random",
topology="two_rack")``).
"""

from __future__ import annotations

from typing import Any, Dict

from repro.baselines.tracking import OutstandingTrackingClient
from repro.errors import ExperimentError
from repro.experiments.schemes import SCHEMES, SchemeContext, SchemeSpec

__all__ = ["BoundedRandomClient"]


class BoundedRandomClient(OutstandingTrackingClient):
    """Open-loop client: random server, re-drawn while over the bound."""

    def __init__(
        self, *args: Any, bound: int = 2, max_retries: int = 3, **kwargs: Any
    ):
        super().__init__(*args, **kwargs)
        if bound < 1:
            raise ExperimentError("bounded-random needs bound >= 1")
        if max_retries < 0:
            raise ExperimentError("bounded-random retries cannot be negative")
        self.bound = bound
        self.max_retries = max_retries
        self.retries = 0

    def _pick_server(self) -> int:
        destination = self.rng.choice(self.server_ips)
        for _ in range(self.max_retries):
            if self._outstanding_at[destination] < self.bound:
                break
            self.retries += 1
            destination = self.rng.choice(self.server_ips)
        return destination


def _bounded_random_client(
    ctx: SchemeContext, common: Dict[str, Any]
) -> BoundedRandomClient:
    return BoundedRandomClient(server_ips=ctx.server_ips, **common)


@SCHEMES.register
def _bounded_random_spec() -> SchemeSpec:
    return SchemeSpec(
        name="bounded-random",
        description="random server choice re-drawn while over an outstanding bound",
        aliases=("bounded_random", "brnd"),
        make_client=_bounded_random_client,
    )
