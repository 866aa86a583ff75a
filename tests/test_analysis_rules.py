"""detlint rule engine: a positive and a seeded-violation pair per rule.

Mirrors ``test_scenario_invariants.py``'s structure: the positive side
is idiomatic code each rule must accept, the negative side plants the
exact hazard and asserts the exact message.  A second parametrized pass
re-lints every violation with the rule *disabled* and asserts silence —
so each seeded-violation test genuinely depends on its rule being
registered and enabled.

Also here: suppression and baseline round-trips, the signature-gating
helper the CLI and tools share, and the runtime sanitizers (planted
packet leak, every scheme leak-free, RNG draw accounting).
"""

import gc
import os
import sys

import pytest
from helpers import RecordingSwitch, tiny_config

from repro.analysis import (
    RULES,
    filter_baselined,
    lint_source,
    load_baseline,
    write_baseline,
)
from repro.errors import ExperimentError
from repro.experiments.registry import UNREQUESTED, gate_harness_axes
from repro.sim.sanitize import (
    CountingRandom,
    SanitizingPacketPool,
    SanitizingRngRegistry,
    build_report,
    diff_draw_counts,
)
from repro.sim.units import ms

SIM_MODULE = "repro.sim.fake"
PLAIN_MODULE = "repro.charts.fake"


def _lint(source, module=PLAIN_MODULE, rules=None):
    return lint_source(source, path="fake.py", module=module, rules=rules)


def _only(findings, rule):
    hits = [finding for finding in findings if finding.rule == rule]
    assert len(hits) == 1, findings
    return hits[0]


# ----------------------------------------------------------------------
# Seeded violations: (rule, module, source, exact message)
# ----------------------------------------------------------------------
VIOLATIONS = [
    (
        "unseeded-random",
        PLAIN_MODULE,
        "import random\nvalue = random.random()\n",
        "module-level random.random() draws from the shared global "
        "stream; draw from a named RngRegistry stream instead",
    ),
    (
        "unseeded-random",
        PLAIN_MODULE,
        "import numpy as np\npick = np.random.choice([1, 2])\n",
        "module-level numpy.random.choice() draws from numpy's shared "
        "global stream; use RngRegistry.numpy_stream instead",
    ),
    (
        "wall-clock",
        SIM_MODULE,
        "import time\ndef stamp(sim):\n    return time.time()\n",
        f"wall-clock read time.time() inside {SIM_MODULE}; "
        "simulated components must take time from sim.now",
    ),
    (
        "unordered-iteration",
        SIM_MODULE,
        "def drain(events):\n    for event in set(events):\n        event()\n",
        "iterating a set has hash-seed-dependent order; sort it (or keep "
        "a list/deque) before it can feed scheduling or RNG draws",
    ),
    (
        "unordered-iteration",
        SIM_MODULE,
        "def track(table, obj):\n    table[id(obj)] = obj\n",
        "id()-keyed mapping makes ordering depend on object addresses; "
        "key by a stable field (uid, name, index) instead",
    ),
    (
        "env-read",
        SIM_MODULE,
        "import os\ndef knob():\n    return os.environ.get('REPRO_X')\n",
        "os.environ.get() inside knob() makes per-call behaviour "
        "depend on ambient process state; read configuration once at "
        "import or cluster-build time",
    ),
    (
        "packet-leak",
        PLAIN_MODULE,
        "def burst(pool):\n    pool.acquire(1, 2, 3, 4, 64)\n",
        "pool.acquire(...) result is discarded in burst(); the packet "
        "can never be released",
    ),
    (
        "packet-leak",
        PLAIN_MODULE,
        "def burst(pool):\n"
        "    packet = pool.acquire(1, 2, 3, 4, 64)\n"
        "    packet.size = 128\n",
        "packet acquired into 'packet' is neither released nor "
        "handed off on any path of burst()",
    ),
    # A dotted receiver inside a method, and an async def.
    (
        "packet-leak",
        PLAIN_MODULE,
        "class Burst:\n"
        "    def burst(self):\n"
        "        self.pool.acquire(1, 2, 3, 4, 64)\n",
        "self.pool.acquire(...) result is discarded in Burst.burst(); the "
        "packet can never be released",
    ),
    (
        "packet-leak",
        PLAIN_MODULE,
        "async def burst(pool):\n"
        "    packet = pool.acquire(1, 2, 3, 4, 64)\n"
        "    packet.size = 128\n",
        "packet acquired into 'packet' is neither released nor "
        "handed off on any path of burst()",
    ),
    (
        "spec-lambda",
        PLAIN_MODULE,
        "spec = specs.TopologySpec('t', lambda ctx: None)\n",
        "lambda inside TopologySpec(...) cannot pickle to sweep "
        "worker processes; use a module-level function",
    ),
    (
        "spec-lambda",
        PLAIN_MODULE,
        "spec = SchemeSpec(name='x', make_clients=lambda ctx: [])\n",
        "lambda inside SchemeSpec(...) cannot pickle to sweep "
        "worker processes; use a module-level function",
    ),
    (
        "param-guard",
        PLAIN_MODULE,
        "def make_policy(params):\n    return params.get('p', 0.5)\n",
        "plugin factory make_policy() reads params without rejecting "
        "unknown keys; a typoed knob silently runs defaults — "
        "validate with a known-key check",
    ),
    (
        "epoch-stamp",
        PLAIN_MODULE,
        "def push(tor, pairs):\n    tor.install_group_table(build(pairs))\n",
        "group table installed without a .with_epoch() stamp; tables "
        "are told apart by epoch, so an unstamped install that keeps "
        "the group count looks like no change",
    ),
]

_IDS = [f"{rule}-{index}" for index, (rule, _, _, _) in enumerate(VIOLATIONS)]


@pytest.mark.parametrize("rule,module,source,message", VIOLATIONS, ids=_IDS)
def test_seeded_violation_fires_with_exact_message(rule, module, source, message):
    finding = _only(_lint(source, module=module), rule)
    assert finding.message == message
    assert finding.line >= 1 and finding.path == "fake.py"


@pytest.mark.parametrize("rule,module,source,message", VIOLATIONS, ids=_IDS)
def test_seeded_violation_silent_when_rule_disabled(rule, module, source, message):
    enabled = [name for name in RULES.names() if name != rule]
    assert not [
        finding
        for finding in _lint(source, module=module, rules=enabled)
        if finding.rule == rule
    ]


# ----------------------------------------------------------------------
# Positives: idiomatic code every rule must accept
# ----------------------------------------------------------------------
POSITIVES = [
    # Owned, seeded streams are the sanctioned randomness.
    "import random\nrng = random.Random(7)\nvalue = rng.random()\n",
    "import numpy as np\nrng = np.random.default_rng(7)\n",
    # Simulated time comes from the simulator.
    "def stamp(sim):\n    return sim.now\n",
    # Sorted sets and stable keys are fine in sim packages.
    "def drain(events):\n    for event in sorted(set(events)):\n        event()\n",
    "def track(table, packet):\n    table[packet.uid] = packet\n",
    # Module-level env reads configure once at import.
    "import os\nFLAG = os.environ.get('REPRO_X')\n",
    # Released, returned, or handed-off packets are all owned paths.
    "def burst(pool):\n"
    "    packet = pool.acquire(1, 2, 3, 4, 64)\n"
    "    packet.release()\n",
    "def burst(pool):\n    return pool.acquire(1, 2, 3, 4, 64)\n",
    "def burst(self, pool):\n"
    "    packet = pool.acquire(1, 2, 3, 4, 64)\n"
    "    self.send(packet)\n",
    # Scheduling a callback is clean under every rule.
    "def arm(sim, cb):\n    sim.call_at(5, cb)\n",
    # Module-level factories pickle; guarded params reject typos.
    "spec = SchemeSpec(name='x', make_clients=build_clients)\n",
    "def make_policy(params):\n"
    "    check_params(params, {'p'})\n"
    "    return params.get('p', 0.5)\n",
    # The registry method form: ``_call_name`` reads the attribute.
    "def make_policy(params):\n"
    "    PLACEMENTS.check_params(params, ('p',), 'x')\n"
    "    return params.get('p', 0.5)\n",
    # Stamped tables, directly or via a local.
    "def push(tor, base, epoch):\n"
    "    tor.install_group_table(base.with_epoch(epoch))\n",
    "def push(tor, base, epoch):\n"
    "    table = base.with_epoch(epoch)\n"
    "    tor.install_group_table(table)\n",
]


@pytest.mark.parametrize("source", POSITIVES)
def test_idiomatic_code_is_clean(source):
    assert _lint(source, module=SIM_MODULE) == []


def test_sim_scoped_rules_ignore_other_packages():
    wall = "import time\ndef stamp(sim):\n    return time.time()\n"
    assert _lint(wall, module="repro.charts.export") == []
    assert _only(_lint(wall, module="repro.net.fake"), "wall-clock")


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------
def test_inline_suppression_silences_named_rule():
    source = (
        "import random\n"
        "value = random.random()  # detlint: ignore[unseeded-random] -- demo\n"
    )
    assert _lint(source) == []


def test_inline_suppression_is_rule_specific():
    source = (
        "import random\n"
        "value = random.random()  # detlint: ignore[wall-clock] -- wrong rule\n"
    )
    assert _only(_lint(source), "unseeded-random")


def test_bare_ignore_silences_every_rule_on_the_line():
    source = "import random\nvalue = random.random()  # detlint: ignore\n"
    assert _lint(source) == []


def test_skip_file_silences_the_whole_file():
    source = (
        "# detlint: skip-file\n"
        "import random\n"
        "value = random.random()\n"
        "def burst(pool):\n    pool.acquire(1, 2, 3, 4, 64)\n"
    )
    assert _lint(source) == []


# ----------------------------------------------------------------------
# Baseline round-trip
# ----------------------------------------------------------------------
def test_baseline_round_trip(tmp_path):
    source = "import random\nvalue = random.random()\n"
    findings = _lint(source)
    path = str(tmp_path / "baseline.json")
    write_baseline(findings, path)
    fresh, matched = filter_baselined(findings, load_baseline(path))
    assert fresh == [] and matched == len(findings) == 1


def test_baseline_survives_line_shifts_but_not_new_findings(tmp_path):
    original = "import random\nvalue = random.random()\n"
    path = str(tmp_path / "baseline.json")
    write_baseline(_lint(original), path)
    # Same finding, pushed two lines down: still baselined (fingerprints
    # carry no line numbers).
    shifted = "import random\n\n\nvalue = random.random()\n"
    fresh, matched = filter_baselined(_lint(shifted), load_baseline(path))
    assert fresh == [] and matched == 1
    # A second, distinct draw is a new finding.
    grown = shifted + "def roll():\n    return random.random()\n"
    fresh, matched = filter_baselined(_lint(grown), load_baseline(path))
    assert matched == 1
    assert [finding.scope for finding in fresh] == ["roll"]


def test_baseline_matching_is_multiset():
    source = "import random\na = random.random()\nb = random.random()\n"
    findings = _lint(source)
    assert len(findings) == 2
    # One baseline entry covers one of the identical pair, not both.
    fresh, matched = filter_baselined(findings, [findings[0].fingerprint()])
    assert matched == 1 and len(fresh) == 1


def test_missing_baseline_is_empty(tmp_path):
    assert load_baseline(str(tmp_path / "absent.json")) == []


# ----------------------------------------------------------------------
# Shared harness-capability gating (CLI + tools)
# ----------------------------------------------------------------------
def _harness_with_axes(scale, seed, workload=None, metrics="exact"):
    return {"workload": workload, "metrics": metrics}


def _harness_without_axes(scale, seed):
    return {}


def test_gate_passes_requested_axis_through():
    kwargs = gate_harness_axes(
        _harness_with_axes, "fake", requested={"workload": "mmpp"}
    )
    assert kwargs == {"workload": "mmpp"}


def test_gate_supplies_default_for_declared_unrequested_axis():
    kwargs = gate_harness_axes(
        _harness_with_axes,
        "fake",
        requested={"metrics": UNREQUESTED},
        defaults={"metrics": "exact"},
    )
    assert kwargs == {"metrics": "exact"}


def test_gate_omits_unrequested_axis_without_default():
    assert gate_harness_axes(
        _harness_with_axes, "fake", requested={"workload": UNREQUESTED}
    ) == {}


def test_gate_errors_on_unaware_harness():
    with pytest.raises(ExperimentError, match="has no --metrics axis"):
        gate_harness_axes(
            _harness_without_axes, "fake", requested={"metrics": "sketch"}
        )


def test_gate_none_is_a_real_value():
    # workload=None selects the harness's default spec — it must be
    # passed, not treated as "unrequested".
    def collect(scale, workload="mmpp"):
        return workload

    kwargs = gate_harness_axes(collect, "fig18", requested={"workload": None})
    assert kwargs == {"workload": None}


# ----------------------------------------------------------------------
# Runtime sanitizers
# ----------------------------------------------------------------------
def test_packet_ledger_catches_a_planted_leak():
    pool = SanitizingPacketPool()
    kept = pool.acquire(1, 2, 3, 4, 64)
    leaked = pool.acquire(5, 6, 7, 8, 64)
    kept.release()
    report = build_report(pool, SanitizingRngRegistry(7))
    assert not report.clean
    assert report.acquired == 2 and report.retired == 1
    [(uid, site)] = report.packet_leaks
    assert uid == leaked.uid
    assert site.startswith("test_analysis_rules.py:")
    assert f"leaked packet uid={uid} acquired at {site}" in report.format()


def test_packet_ledger_clean_when_everything_released():
    pool = SanitizingPacketPool()
    for _ in range(3):
        packet = pool.acquire(1, 2, 3, 4, 64)
        packet.release()
    report = build_report(pool, SanitizingRngRegistry(7))
    assert report.clean and report.acquired == report.retired == 3
    assert report.foreign_releases == 0


def test_packet_ledger_tracks_recycled_lives():
    pool = SanitizingPacketPool()
    first = pool.acquire(1, 2, 3, 4, 64)
    first.release()
    second = pool.acquire(1, 2, 3, 4, 64)
    # Same object recycled, new life: only the open life is a leak.
    assert second is first
    report = build_report(pool, SanitizingRngRegistry(7))
    assert [uid for uid, _ in report.packet_leaks] == [second.uid]


def test_packet_ledger_counts_leaks_whose_objects_were_freed():
    # Dropped leaks are garbage-collected and later acquires may reuse
    # their addresses; a freed address must not retire an open life.
    pool = SanitizingPacketPool()
    for _ in range(100):
        pool.acquire(1, 2, 3, 4, 64)
    gc.collect()
    for _ in range(100):
        pool.acquire(1, 2, 3, 4, 64).release()
    report = build_report(pool, SanitizingRngRegistry(7))
    assert len(report.packet_leaks) == 100
    assert not report.clean


def test_counting_random_counts_derived_draws():
    rng = CountingRandom(7)
    rng.random()
    rng.expovariate(1.0)
    rng.randrange(10)
    assert rng.draws >= 3
    plain = CountingRandom(7)
    plain.random()
    plain.expovariate(1.0)
    plain.randrange(10)
    # Determinism: same seed, same draw count, same values.
    assert plain.draws == rng.draws


def test_draw_counts_identical_across_same_seed_runs():
    def run(seed):
        rngs = SanitizingRngRegistry(seed)
        rngs.stream("client").expovariate(2.0)
        rngs.stream("server").random()
        rngs.stream("server").random()
        return rngs.draw_counts()

    assert run(7) == run(7)
    assert diff_draw_counts(run(7), run(7)) == []


def test_diff_draw_counts_names_divergent_streams():
    first = {"client": 4, "server": 2}
    second = {"client": 4, "server": 3, "extra": 1}
    assert diff_draw_counts(first, second) == ["extra", "server"]


def test_sanitized_cluster_run_is_clean(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    from repro.experiments.common import Cluster, ClusterConfig

    config = ClusterConfig(
        scheme="netclone",
        num_servers=2,
        num_clients=2,
        rate_rps=10_000,
        warmup_ns=1_000_000,
        measure_ns=4_000_000,
        drain_ns=2_000_000,
    )
    cluster = Cluster(config)
    assert isinstance(cluster.packet_pool, SanitizingPacketPool)
    cluster.start()
    cluster.run()
    report = cluster.sanitize_check()
    assert report is not None and report.clean
    assert report.acquired > 0 and report.draw_counts
    assert report.draw_digest  # stable digest, usable for run-vs-run diffs


def _line():
    """The caller's current line number."""
    return sys._getframe(1).f_lineno


def test_sanitizer_ledger_sees_test_and_switch_pass_leaks(monkeypatch):
    # On the C core the pass copies the clone, the server acquires its
    # response and the client builds its request with no Python frame,
    # and the pool is a C type; the ledger must still admit all three
    # (the sanitizer's acquire override sees them), name the module
    # that acquired them on either engine (the C core tags its
    # acquires), and retire releases (the C release appends through
    # the ledger list).
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    from repro.core import MSG_REQ, NETCLONE_UDP_PORT, VIRTUAL_SERVICE_IP, NetCloneHeader
    from repro.experiments.common import Cluster
    from repro.net.packet import PacketPool
    from repro.workloads.synthetic import RpcRequest

    cluster = Cluster(tiny_config(topology="star"))
    pool = cluster.packet_pool
    assert isinstance(pool, SanitizingPacketPool)
    leaked, leak_line = pool.acquire(1, 2, 3, 4, 64), _line()
    request = pool.acquire(
        1, VIRTUAL_SERVICE_IP, NETCLONE_UDP_PORT, NETCLONE_UDP_PORT, 64,
        None, NetCloneHeader(MSG_REQ, grp=0),
    )
    switch = RecordingSwitch()
    cluster.tors[0]._fast_apply(request, switch)
    request.release()
    (clone,) = switch.copies
    other = PacketPool()
    other._next_uid = 1_000_000
    stray = other.acquire(1, 2, 3, 4, 64)
    stray.pool = pool
    stray.release()
    # A response the server sends into a sink that never releases it.
    server = cluster.servers[0]
    sent = []
    server.send = sent.append
    server.handle(
        pool.acquire(
            1, server.ip, NETCLONE_UDP_PORT, NETCLONE_UDP_PORT, 64,
            RpcRequest(0, 0, 1_000), NetCloneHeader(MSG_REQ),
        )
    )
    cluster.sim.run()
    (response,) = sent
    # A request the client builds and nobody sends.
    (unsent,) = cluster.clients[0].build_packets(RpcRequest(0, 1, 1_000))

    report = cluster.sanitize_report()
    here = os.path.basename(__file__)
    [
        (leak_uid, leak_site), (clone_uid, clone_site),
        (response_uid, response_site), (unsent_uid, unsent_site),
    ] = report.packet_leaks
    assert (leak_uid, leak_site) == (leaked.uid, f"{here}:{leak_line}")
    assert clone_uid == clone.uid and clone_site.startswith("program.py:")
    assert response_uid == response.uid and response_site.startswith("server.py:")
    assert unsent_uid == unsent.uid and unsent_site.startswith("client.py:")
    assert report.acquired == 6 and report.retired == 2
    assert report.foreign_releases == 1
    assert pool.released == 3


def test_every_scheme_is_leak_free_and_recycles(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    from repro.experiments.common import Cluster
    from repro.experiments.schemes import SCHEMES

    def run(scheme, topology):
        cluster = Cluster(
            tiny_config(
                scheme=scheme,
                topology=topology,
                warmup_ns=ms(2),
                measure_ns=ms(5),
                drain_ns=ms(3),
            )
        )
        cluster.start()
        cluster.run()
        return cluster

    for topology in ("star", "spine_leaf"):
        for scheme in SCHEMES.names():
            cluster = run(scheme, topology)
            report = cluster.sanitize_report()
            assert report.clean, (scheme, topology, report.format())
            pool = cluster.packet_pool
            assert pool.allocated * 4 < pool.uid_count, (scheme, topology)
    # Uid streams are per cluster: the same experiment twice in one
    # process hands out the same number of packet lives.
    first, second = run("laedge", "star"), run("laedge", "star")
    assert first.packet_pool.uid_count == second.packet_pool.uid_count


def test_sanitized_run_point_drains_an_overloaded_point(monkeypatch):
    # C-Clone doubles the offered load past capacity, so requests are
    # still queued at the servers when the window closes; run_point
    # drains them before the ledger check instead of calling them leaks.
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    from repro.experiments.common import run_point

    point = run_point(tiny_config(scheme="cclone", rate_rps=0.6e6))
    assert point.samples > 0


def test_unsanitized_cluster_pays_nothing(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    from repro.experiments.common import Cluster, ClusterConfig
    from repro.net.packet import PacketPool

    config = ClusterConfig(
        scheme="netclone",
        num_servers=2,
        num_clients=2,
        rate_rps=10_000,
        warmup_ns=1_000_000,
        measure_ns=2_000_000,
        drain_ns=1_000_000,
    )
    cluster = Cluster(config)
    assert type(cluster.packet_pool) is PacketPool
    assert cluster.sanitize_report() is None and cluster.sanitize_check() is None
