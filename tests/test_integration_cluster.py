"""End-to-end integration tests across the whole stack.

These run small but complete clusters — clients, programmable switch
with the NetClone program, worker servers — and assert system-level
invariants from DESIGN.md: exactly-one-response delivery, conservation,
cloning/filtering bookkeeping, failure resilience.
"""

from dataclasses import replace

import pytest
from helpers import tiny_config, tiny_scenario

from repro.experiments.common import Cluster, ClusterConfig, run_point
from repro.experiments.specs import KvSpec, make_synthetic_spec
from repro.scenarios.runner import _ScenarioExecution
from repro.sim.units import ms, sec, us


def quick_config(**kwargs):
    defaults = dict(
        scheme="netclone",
        rate_rps=0.4e6,
        warmup_ns=ms(2),
        measure_ns=ms(6),
        drain_ns=ms(3),
        seed=3,
    )
    defaults.update(kwargs)
    return ClusterConfig(**defaults)


def run_cluster(**kwargs):
    cluster = Cluster(quick_config(**kwargs))
    cluster.start()
    cluster.run()
    return cluster


# ----------------------------------------------------------------------
# NetClone end-to-end invariants
# ----------------------------------------------------------------------
def test_netclone_exactly_one_response_per_request():
    cluster = run_cluster()
    for client in cluster.clients:
        assert client.redundant_responses == 0
    assert cluster.recorder.completed_in_window > 0


def _settled_clone_accounting(cluster):
    """``(cloned, redundant)`` once the drain has settled, checking that
    every clone was dropped at a server, filtered at the switch, or
    reached a client as a redundant response — exactly."""
    cluster.sim.run()
    telemetry = cluster.telemetry()
    cloned = telemetry["nc_cloned"]
    redundant = telemetry["redundant"]
    assert cloned == (
        telemetry["clones_dropped"] + telemetry["nc_filtered"] + redundant
    )
    return cloned, redundant


def test_netclone_cloning_and_filtering_bookkeeping():
    """Every completed clone pair costs exactly one filtered response."""
    cloned, redundant = _settled_clone_accounting(run_cluster())
    assert cloned > 0
    assert redundant == 0


@pytest.mark.parametrize("topology", ["star", "two_rack", "spine_leaf"])
@pytest.mark.parametrize(
    "scheme",
    ["netclone", "netclone-nofilter", "netclone-noclonedrop", "netclone-racksched"],
)
@pytest.mark.parametrize("rate_rps", [0.2e6, 3.0e6])
def test_clone_accounting_is_exact(scheme, topology, rate_rps):
    cluster = Cluster(tiny_config(scheme=scheme, topology=topology, rate_rps=rate_rps))
    cluster.start()
    cluster.run()
    cloned, _ = _settled_clone_accounting(cluster)
    assert cloned > 0


def test_netclone_conservation_of_requests():
    """Accepted - responded == 0 for every server after drain."""
    cluster = run_cluster()
    for server in cluster.servers:
        accepted = server.counters.get("requests_accepted")
        responded = server.counters.get("responses_sent")
        assert accepted == responded
        assert server.queue_len == 0
        assert server.busy_workers == 0


def test_netclone_switch_seq_matches_request_count():
    cluster = run_cluster()
    program = cluster.program
    requests_sent = sum(client._seq for client in cluster.clients)
    assert program.seq.peek(0) == requests_sent


def test_netclone_latency_improves_on_baseline_at_low_load():
    netclone = run_point(quick_config(scheme="netclone", rate_rps=0.4e6))
    baseline = run_point(quick_config(scheme="baseline", rate_rps=0.4e6))
    assert netclone.p99_us < baseline.p99_us
    assert netclone.samples > 500


def test_cclone_half_throughput_at_saturation():
    capacity = 6 * 15 / 25e-6
    cclone = run_point(quick_config(scheme="cclone", rate_rps=capacity))
    baseline = run_point(quick_config(scheme="baseline", rate_rps=capacity))
    assert cclone.throughput_rps < 0.62 * baseline.throughput_rps


def test_cclone_redundant_responses_reach_client():
    cluster = run_cluster(scheme="cclone")
    redundant = sum(client.redundant_responses for client in cluster.clients)
    assert redundant > 0  # no in-network filtering for C-Clone


def test_nofilter_redundant_responses_reach_client():
    _, redundant = _settled_clone_accounting(run_cluster(scheme="netclone-nofilter"))
    assert redundant > 0


#: ``LoadPoint.extra`` keys: the telemetry projection every figure reads.
EXTRA_KEYS = {
    "redundant_responses", "clones_dropped", "empty_queue_fraction",
    "state_samples_zero", "state_samples_total", "nc_cloned", "nc_filtered",
    "nc_fingerprint_overwrite", "trunk_util_max", "trunk_util_mean",
    "trunk_tx_bytes", "trunk_drops",
}
#: Scenario checkpoint keys (the scenario golden's snapshot shape).
SNAPSHOT_KEYS = {
    "label", "time_ns", "client_sent", "client_completed",
    "client_outstanding", "redundant", "outstanding", "server_accepted",
    "server_responses", "server_queue", "server_busy", "clones_dropped",
    "switch_program_drops", "switch_drops_down", "switch_failures",
    "switch_recoveries", "link_drops", "host_rx_drops", "trunk_tx_bytes",
    "rack_tx_bytes", "handler_epoch", "program_epochs", "client_epochs",
    "seq_register", "active_servers", "pool_uids", "pool_allocated",
    "pool_free",
}


def _same(value, expected):
    return value == expected or (value != value and expected != expected)


@pytest.mark.parametrize("topology", ["star", "spine_leaf"])
@pytest.mark.parametrize("scheme", ["baseline", "laedge", "netclone"])
def test_extra_and_snapshot_are_projections_of_telemetry(scheme, topology):
    scenario = tiny_scenario(cluster={"scheme": scheme, "topology": topology})
    cluster = Cluster(scenario.config())
    execution = _ScenarioExecution(scenario, cluster)
    at_end = []
    cluster.sim.call_at(
        cluster.config.end_ns, lambda: at_end.append(cluster.telemetry())
    )
    cluster.start()
    cluster.run()
    telemetry = cluster.telemetry()

    extra = cluster.load_point().extra
    coordinator_keys = {"coordinator_queue", "coordinator_cloned"}
    expected_keys = EXTRA_KEYS | (coordinator_keys if scheme == "laedge" else set())
    assert set(extra) == expected_keys
    for key, value in extra.items():
        # Trunk keys are read when the clients stop, the rest now.
        source = at_end[0] if key.startswith("trunk_") else telemetry
        expected = source["redundant" if key == "redundant_responses" else key]
        assert isinstance(value, float)
        assert _same(value, float(expected)), key

    snapshot = execution.snapshot("end")
    assert set(snapshot) == SNAPSHOT_KEYS
    assert snapshot.pop("label") == "end"
    # No failure handler: its two keys are empty.
    assert snapshot.pop("handler_epoch") is None
    assert snapshot.pop("active_servers") is None
    for key, value in snapshot.items():
        assert value == telemetry[key], key


def test_laedge_runs_and_clones_dynamically():
    cluster = run_cluster(scheme="laedge", num_servers=5)
    coordinator = cluster.coordinator
    assert coordinator is not None
    assert coordinator.counters.get("cloned") > 0
    assert coordinator.counters.get("responses_forwarded") > 0
    # The measured clone count table1's dynamic-cloning cell reads.
    extra = cluster.load_point().extra
    assert extra["coordinator_cloned"] == coordinator.counters.get("cloned")
    # Conservation: all forwarded responses reached clients.
    completed = cluster.recorder.completed_in_window
    assert completed > 0


def test_laedge_queues_under_overload():
    capacity = 5 * 15 / 25e-6
    cluster = run_cluster(scheme="laedge", num_servers=5, rate_rps=capacity * 1.5)
    assert cluster.coordinator.counters.get("queued") > 0


def test_racksched_balances_heterogeneous_cluster():
    config = dict(
        workers_per_server=(15, 15, 15, 8, 8, 8),
        rate_rps=2.0e6,
    )
    racksched = run_point(quick_config(scheme="netclone-racksched", **config))
    plain = run_point(quick_config(scheme="netclone", **config))
    # JSQ should not be worse; on an imbalanced cluster it usually wins.
    assert racksched.p99_us <= plain.p99_us * 1.2
    assert racksched.throughput_rps == pytest.approx(plain.throughput_rps, rel=0.1)


def test_kv_workload_end_to_end():
    spec = KvSpec(cost_model="redis", scan_fraction=0.01, num_keys=10_000)
    capacity = 6 * 8 / (spec.mean_service_ns / 1e9)
    point = run_point(
        quick_config(
            workload=spec,
            workers_per_server=8,
            rate_rps=capacity * 0.2,
        )
    )
    assert point.samples > 200
    assert point.p99_us == point.p99_us  # not NaN


def test_bimodal_spec_end_to_end():
    spec = make_synthetic_spec("bimodal")
    point = run_point(quick_config(workload=spec, rate_rps=0.3e6))
    assert point.samples > 200


def test_switch_failure_recovery_no_duplicates():
    """Figure 16's integrity claim: soft state only, no misbehaviour."""
    config = quick_config(
        rate_rps=50e3,
        warmup_ns=0,
        measure_ns=ms(40),
        drain_ns=ms(5),
    )
    cluster = Cluster(config)
    cluster.sim.call_at(ms(10), cluster.switch.fail)
    cluster.sim.call_at(ms(14), cluster.switch.recover, ms(4))
    cluster.start()
    cluster.run()
    # No duplicate deliveries despite the register wipe.
    assert sum(client.redundant_responses for client in cluster.clients) == 0
    # Traffic resumed: completions exist after the recovery instant.
    assert cluster.recorder.completed_in_window > 0
    monitorable = cluster.switch.counters
    assert monitorable.get("rx_dropped_down") > 0  # outage really dropped


def test_seed_determinism():
    a = run_point(quick_config(seed=11))
    b = run_point(quick_config(seed=11))
    c = run_point(quick_config(seed=12))
    assert a.p99_us == b.p99_us
    assert a.samples == b.samples
    # Different seed gives a different (but close) measurement.
    assert (a.p99_us, a.samples) != (c.p99_us, c.samples)


def test_scheme_validation():
    with pytest.raises(Exception):
        ClusterConfig(scheme="carrier-pigeon")


def test_worker_counts_validation():
    with pytest.raises(Exception):
        quick_config(workers_per_server=(15, 15)).worker_counts()
