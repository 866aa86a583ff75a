"""Open-loop arrival modulation: MMPP bursts and diurnal waves.

The seed's :class:`~repro.apps.client.OpenLoopClient` draws plain
exponential inter-arrival gaps — a homogeneous Poisson process.  Real
datacenter request streams are burstier: traffic arrives in on/off
waves (incast bursts, batch jobs) and follows slow daily cycles whose
phase differs per tenant.  This module provides drop-in gap generators
for both, consumed through the client's ``arrival_process`` hook:

* :class:`MmppArrivals` — a two-state Markov-modulated Poisson
  process.  The stream alternates between a calm state and a burst
  state whose instantaneous rate is ``burst``× higher; state sojourns
  are exponential.  Rate multipliers are normalised so the long-run
  average rate equals the nominal rate exactly, which keeps offered
  load (the sweep axis) comparable with the Poisson baseline.
* :class:`DiurnalArrivals` — a sinusoidally rate-modulated Poisson
  process, λ(t) = base·(1 + A·sin(2π(t/P + phase))).  Different
  clients get different phases (see
  :class:`~repro.experiments.specs.DiurnalSpec`), modelling tenants
  whose peaks don't align.

Both generators keep an **internal clock** advanced by every gap they
emit.  Because the client consumes gaps in order and each gap extends
simulated time by exactly that amount, the internal clock tracks
simulation time even though the client pre-draws gaps ahead of it —
state sojourns and sine phases land at the right sim instants
regardless of when the draws happen.
"""

from __future__ import annotations

import math
import random

from repro.errors import WorkloadError

__all__ = ["DiurnalArrivals", "MmppArrivals"]


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


class DiurnalArrivals:
    """Sinusoidally modulated Poisson gap generator.

    λ(t) = ``rate_rps``·(1 + ``amplitude``·sin(2π(t/``period_s`` +
    ``phase``))), where *t* is the generator's internal clock.  Each
    gap is drawn exponentially at the rate in force when it starts —
    exact for rates that vary slowly against the mean gap, which holds
    whenever ``period_s`` spans many arrivals (the intended regime;
    amplitudes near 1 with per-gap-scale periods would need thinning).

    The sine integrates to zero over a full period, so the long-run
    average rate equals the nominal rate.
    """

    __slots__ = ("amplitude", "period_s", "phase", "rate_rps", "rng", "_clock_s")

    def __init__(
        self,
        rng: random.Random,
        rate_rps: float,
        amplitude: float = 0.5,
        period_s: float = 2e-3,
        phase: float = 0.0,
    ):
        if rate_rps <= 0:
            raise WorkloadError("rate_rps must be positive")
        if not 0.0 <= amplitude < 1.0:
            raise WorkloadError("amplitude must lie in [0, 1)")
        if period_s <= 0:
            raise WorkloadError("period_s must be positive")
        self.rng = rng
        self.rate_rps = rate_rps
        self.amplitude = amplitude
        self.period_s = period_s
        self.phase = phase % 1.0
        self._clock_s = 0.0

    def set_rate(self, rate_rps: float) -> None:
        """Retarget the nominal rate (the wave keeps its phase)."""
        if rate_rps <= 0:
            raise WorkloadError("rate_rps must be positive")
        self.rate_rps = rate_rps

    def rate_at(self, t_s: float) -> float:
        """Instantaneous rate at internal-clock time *t_s*."""
        wave = math.sin(2.0 * math.pi * (t_s / self.period_s + self.phase))
        return self.rate_rps * (1.0 + self.amplitude * wave)

    def next_gap(self) -> int:
        """Inter-arrival gap to the next request, integer ns ≥ 1."""
        gap_s = self.rng.expovariate(1.0) / self.rate_at(self._clock_s)
        self._clock_s += gap_s
        return int(gap_s * 1e9) + 1
