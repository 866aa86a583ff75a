"""Open-loop arrival modulation: MMPP bursts.

The seed's :class:`~repro.apps.client.OpenLoopClient` draws plain
exponential inter-arrival gaps — a homogeneous Poisson process.  Real
datacenter request streams are burstier: traffic arrives in on/off
waves (incast bursts, batch jobs).  :class:`MmppArrivals` is a drop-in
gap generator for that, consumed through the client's
``arrival_process`` hook: a two-state Markov-modulated Poisson
process.  The stream alternates between a calm state and a burst
state whose instantaneous rate is ``burst``× higher; state sojourns
are exponential.  Rate multipliers are normalised so the long-run
average rate equals the nominal rate exactly, which keeps offered load
(the sweep axis) comparable with the Poisson baseline.

The generator spends every gap it emits against the residual sojourn
of its current state.  Because the client consumes gaps in order and
each gap extends simulated time by exactly that amount, state switches
land at the right sim instants even though the client pre-draws gaps
ahead of simulated time.
"""

from __future__ import annotations

import random

from repro.errors import WorkloadError

__all__ = ["MmppArrivals"]


class MmppArrivals:
    """Two-state MMPP gap generator for one open-loop client.

    :param rng: the client's arrival RNG stream.
    :param rate_rps: nominal (long-run average) request rate.
    :param burst: instantaneous-rate ratio burst-state / calm-state
        (> 1); ``burst=8`` means bursts run eight times hotter than
        calm stretches.
    :param high_fraction: long-run fraction of time spent in the burst
        state, in (0, 1).
    :param period_s: mean length of one calm+burst cycle in seconds —
        the burstiness timescale.
    """

    __slots__ = (
        "burst",
        "high_fraction",
        "period_s",
        "rate_rps",
        "rng",
        "_high",
        "_mult_high",
        "_mult_low",
        "_sojourn_high_s",
        "_sojourn_left_s",
        "_sojourn_low_s",
    )

    def __init__(
        self,
        rng: random.Random,
        rate_rps: float,
        burst: float = 8.0,
        high_fraction: float = 0.1,
        period_s: float = 1e-3,
    ):
        if rate_rps <= 0:
            raise WorkloadError("rate_rps must be positive")
        if burst <= 1.0:
            raise WorkloadError("burst must exceed 1 (use Poisson otherwise)")
        if not 0.0 < high_fraction < 1.0:
            raise WorkloadError("high_fraction must lie in (0, 1)")
        if period_s <= 0:
            raise WorkloadError("period_s must be positive")
        self.rng = rng
        self.rate_rps = rate_rps
        self.burst = burst
        self.high_fraction = high_fraction
        self.period_s = period_s
        # Normalise so f·m_high + (1-f)·m_low = 1: the long-run rate is
        # exactly the nominal rate whatever burst/high_fraction say.
        self._mult_low = 1.0 / (high_fraction * burst + (1.0 - high_fraction))
        self._mult_high = burst * self._mult_low
        self._sojourn_high_s = period_s * high_fraction
        self._sojourn_low_s = period_s * (1.0 - high_fraction)
        self._high = False
        self._sojourn_left_s = rng.expovariate(1.0) * self._sojourn_low_s

    def set_rate(self, rate_rps: float) -> None:
        """Retarget the nominal rate (state machine keeps its phase)."""
        if rate_rps <= 0:
            raise WorkloadError("rate_rps must be positive")
        self.rate_rps = rate_rps

    def next_gap(self) -> int:
        """Inter-arrival gap to the next request, integer ns ≥ 1.

        Exact simulation by competing exponentials: a candidate arrival
        is drawn at the current state's instantaneous rate; if it lands
        beyond the state's residual sojourn, time advances to the
        switch and the candidate is redrawn in the new state — valid
        because the Poisson arrival in each state is memoryless.
        """
        rng = self.rng
        gap_s = 0.0
        while True:
            rate = self.rate_rps * (self._mult_high if self._high else self._mult_low)
            candidate_s = rng.expovariate(1.0) / rate
            if candidate_s <= self._sojourn_left_s:
                self._sojourn_left_s -= candidate_s
                gap_s += candidate_s
                return int(gap_s * 1e9) + 1
            gap_s += self._sojourn_left_s
            self._high = not self._high
            mean = self._sojourn_high_s if self._high else self._sojourn_low_s
            self._sojourn_left_s = rng.expovariate(1.0) * mean

