"""Validate the simulator against closed-form queueing theory.

These tests build small clusters out of the real simulator components
and compare measured means against M/M/1 / M/M/c formulas — pinning
down the event engine, the Poisson arrival process, and the server
model against ground truth.
"""

import math
import random

import pytest

from repro.analysis import (
    cclone_effective_utilisation,
    cloned_exponential_p99,
    erlang_c,
    exponential_p99,
    mm1_mean_wait,
    mmc_mean_wait,
)
from repro.apps.service import SyntheticService
from repro.core import RpcServer
from repro.errors import ExperimentError
from repro.net import Host, Link
from repro.sim import Simulator
from repro.sim.units import ms, us
from repro.workloads import JitterModel, RpcRequest


# ----------------------------------------------------------------------
# Formula self-checks
# ----------------------------------------------------------------------
def test_mm1_known_value():
    # rho = 0.5: Wq = 0.5 / (mu - lambda) = 0.5 / 1 = 0.5 time units.
    assert mm1_mean_wait(1.0, 2.0) == pytest.approx(0.5)


def test_erlang_c_single_server_equals_rho():
    assert erlang_c(1, 0.7) == pytest.approx(0.7)


def test_erlang_c_bounds_and_monotonicity():
    assert erlang_c(10, 0.0) == 0.0
    low = erlang_c(10, 5.0)
    high = erlang_c(10, 9.0)
    assert 0 < low < high < 1


def test_mmc_reduces_to_mm1():
    assert mmc_mean_wait(1, 1.0, 2.0) == pytest.approx(mm1_mean_wait(1.0, 2.0))


def test_exponential_p99_ln100():
    assert exponential_p99(25.0) == pytest.approx(25.0 * math.log(100))


def test_cloned_p99_halves():
    assert cloned_exponential_p99(25.0) == pytest.approx(exponential_p99(25.0) / 2)


def test_cclone_utilisation_doubles():
    assert cclone_effective_utilisation(0.3) == pytest.approx(0.6)


def test_validation():
    with pytest.raises(ExperimentError):
        mm1_mean_wait(2.0, 1.0)
    with pytest.raises(ExperimentError):
        erlang_c(0, 0.5)
    with pytest.raises(ExperimentError):
        erlang_c(2, 2.0)
    with pytest.raises(ExperimentError):
        exponential_p99(-1.0)
    with pytest.raises(ExperimentError):
        exponential_p99(1.0, q=1.5)
    with pytest.raises(ExperimentError):
        cclone_effective_utilisation(-1)


# ----------------------------------------------------------------------
# Simulator vs theory
# ----------------------------------------------------------------------
class MeasuringClient(Host):
    """Poisson generator + sojourn-time measurement, no stack costs."""

    def __init__(self, sim, server_ip, rate_rps, mean_service_us, horizon_ns, seed=9):
        super().__init__(sim, "client", 1, tx_cost_ns=0, rx_cost_ns=0)
        self.server_ip = server_ip
        self.rate = rate_rps
        self.mean_service_ns = mean_service_us * 1000.0
        self.horizon_ns = horizon_ns
        self.rng = random.Random(seed)
        self.sojourn_times = []
        self._seq = 0

    def start(self):
        self.sim.call_after(self._gap(), self._send)

    def _gap(self):
        return int(self.rng.expovariate(1.0) * 1e9 / self.rate) + 1

    def _send(self):
        if self.sim.now >= self.horizon_ns:
            return
        self._seq += 1
        service = int(self.rng.expovariate(1.0 / self.mean_service_ns)) + 1
        payload = RpcRequest(client_id=0, client_seq=self._seq, service_ns=service)
        self.send(
            self.packet_pool.acquire(
                src=self.ip,
                dst=self.server_ip,
                sport=7000,
                dport=7000,
                size=64,
                payload=payload,
                created_at=self.sim.now,
            )
        )
        self.sim.call_after(self._gap(), self._send)

    def handle(self, packet):
        self.sojourn_times.append(self.sim.now - packet.created_at)


def simulate_mmc(num_workers, utilisation, mean_service_us=25.0, horizon_ms=400):
    sim = Simulator()
    server = RpcServer(
        sim,
        name="srv",
        ip=2,
        server_id=0,
        service=SyntheticService(),
        jitter=JitterModel(0.0, 15.0),
        rng=random.Random(1),
        num_workers=num_workers,
        netclone_mode=False,
        tx_cost_ns=0,
        rx_cost_ns=0,
    )
    rate = utilisation * num_workers / (mean_service_us * 1e-6)
    client = MeasuringClient(sim, server.ip, rate, mean_service_us, ms(horizon_ms))
    link = Link(sim, client, server, propagation_ns=0, bandwidth_bps=1e15)
    client.attach_link(link)
    server.attach_link(link)
    client.start()
    sim.run()
    return client.sojourn_times


@pytest.mark.parametrize("utilisation", [0.3, 0.6])
def test_simulated_mm1_matches_theory(utilisation):
    mean_service_us = 25.0
    sojourns = simulate_mmc(1, utilisation)
    assert len(sojourns) > 3000
    measured_mean_us = sum(sojourns) / len(sojourns) / 1000.0
    mu = 1.0 / mean_service_us  # per us
    lam = utilisation * mu
    expected_us = mm1_mean_wait(lam, mu) + mean_service_us
    assert measured_mean_us == pytest.approx(expected_us, rel=0.12)


def test_simulated_mmc_matches_theory():
    mean_service_us = 25.0
    workers, utilisation = 4, 0.7
    sojourns = simulate_mmc(workers, utilisation)
    measured_mean_us = sum(sojourns) / len(sojourns) / 1000.0
    mu = 1.0 / mean_service_us
    lam = utilisation * workers * mu
    expected_us = mmc_mean_wait(workers, lam, mu) + mean_service_us
    assert measured_mean_us == pytest.approx(expected_us, rel=0.12)


def test_simulated_service_p99_matches_exponential():
    sojourns = sorted(simulate_mmc(8, 0.05))  # almost no queueing
    p99_us = sojourns[int(0.99 * len(sojourns))] / 1000.0
    assert p99_us == pytest.approx(exponential_p99(25.0), rel=0.15)
