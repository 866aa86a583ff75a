"""Scenario runner: timed events on a live cluster + invariant report.

:func:`run_scenario` builds the scenario's cluster exactly the way the
hand-written drills did — fabric, monitors, failure handler — then
schedules every spec event on the simulator (``sim.at``; same-time
events apply in spec order), snapshots telemetry at each checkpoint,
runs the timeline, drains the event queue dry, and reduces the whole
run to a :class:`ScenarioReport`: plain data (picklable, JSON-able,
bit-comparable across worker processes) carrying the checkpoint
series, the throughput/trunk timeline, and one
:class:`~repro.scenarios.invariants.InvariantResult` per library
invariant.

The report's ``final`` snapshot is taken *after* the drain (with every
in-flight packet delivered or dropped and every pre-drawn arrival
released back to the pool), which is what the stuck-request,
conservation and packet-leak checks need; the last checkpoint
(``label="end"``) is taken at the configured horizon, which is what a
drill prints — the two are distinct on purpose.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.errors import ExperimentError
from repro.experiments.common import Cluster
from repro.metrics.links import TrunkByteMonitor
from repro.scenarios.invariants import (
    InvariantResult,
    ReportView,
    compute_unreachable,
    evaluate_invariants,
)
from repro.scenarios.spec import Scenario, ScenarioEvent
from repro.sim.monitor import IntervalMonitor

__all__ = ["ScenarioReport", "ScenarioRun", "run_scenario"]


@dataclass
class ScenarioReport:
    """Structured pass/fail outcome of one scenario run (plain data)."""

    scenario: str
    seed: int
    scale: float
    scheme: str
    topology: str
    placement: str
    events: List[Dict[str, Any]]
    checkpoints: List[Dict[str, Any]]
    final: Dict[str, Any]
    timeline: Dict[str, Any]
    meta: Dict[str, Any]
    invariants: List[InvariantResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """Whether every applicable invariant held."""
        return all(result.passed for result in self.invariants)

    @property
    def failures(self) -> List[InvariantResult]:
        return [result for result in self.invariants if not result.passed]

    def invariant(self, name: str) -> InvariantResult:
        for result in self.invariants:
            if result.name == name:
                return result
        raise ExperimentError(f"report carries no invariant {name!r}")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "scale": self.scale,
            "scheme": self.scheme,
            "topology": self.topology,
            "placement": self.placement,
            "passed": self.passed,
            "events": [dict(event) for event in self.events],
            "checkpoints": [dict(snap) for snap in self.checkpoints],
            "final": dict(self.final),
            "timeline": dict(self.timeline),
            "meta": dict(self.meta),
            "invariants": [result.to_dict() for result in self.invariants],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ScenarioReport":
        """Rebuild a report from :meth:`to_dict` output (sweep cells,
        pinned goldens).  The redundant ``passed`` key is recomputed."""
        return cls(
            scenario=data["scenario"],
            seed=data["seed"],
            scale=data["scale"],
            scheme=data["scheme"],
            topology=data["topology"],
            placement=data["placement"],
            events=[dict(event) for event in data["events"]],
            checkpoints=[dict(snap) for snap in data["checkpoints"]],
            final=dict(data["final"]),
            timeline=dict(data["timeline"]),
            meta=dict(data["meta"]),
            invariants=[
                InvariantResult(
                    name=inv["name"],
                    applicable=inv["applicable"],
                    passed=inv["passed"],
                    violations=list(inv["violations"]),
                )
                for inv in data["invariants"]
            ],
        )

    def summary(self) -> str:
        """One line per invariant, prefixed by the overall verdict."""
        lines = [
            f"scenario {self.scenario!r}: "
            f"{'PASS' if self.passed else 'FAIL'} "
            f"(scheme={self.scheme}, topology={self.topology}, "
            f"placement={self.placement}, seed={self.seed})"
        ]
        for result in self.invariants:
            if not result.applicable:
                status = "n/a "
            else:
                status = "ok  " if result.passed else "FAIL"
            lines.append(f"  [{status}] {result.name}")
            for violation in result.violations:
                lines.append(f"         - {violation}")
        return "\n".join(lines)


@dataclass
class ScenarioRun:
    """Live handle on a finished run (not picklable — holds the cluster).

    Drills print from here: ``completions`` is the per-window
    completion monitor, ``trunks`` the per-trunk byte timeline, and
    ``end`` the horizon snapshot (what the cluster looked like when
    the configured timeline ended, before the drain).
    """

    scenario: Scenario
    cluster: Cluster
    handler: Optional[Any]
    completions: IntervalMonitor
    trunks: TrunkByteMonitor
    report: ScenarioReport

    @property
    def end(self) -> Dict[str, Any]:
        return self.report.checkpoints[-1]


class _ScenarioExecution:
    """One scenario bound to one built cluster (internal)."""

    def __init__(self, scenario: Scenario, cluster: Cluster):
        self.scenario = scenario
        self.cluster = cluster
        self.fabric = cluster.topology
        self.handler = (
            cluster.failure_handler() if scenario.needs_handler else None
        )
        self.checkpoints: List[Dict[str, Any]] = []
        self.applied: List[Dict[str, Any]] = []
        #: Live-server tracking for rack-local applicability.
        self._live = [True] * cluster.config.num_servers
        self._min_rack_live = self._rack_live_floor()
        self._check_targets()

    # ------------------------------------------------------------------
    def _check_targets(self) -> None:
        """Bounds only a built fabric can check (spines, racks, ToRs)."""
        fabric = self.fabric
        num_spines = len(getattr(fabric, "spines", ()))
        for event in self.scenario.events:
            p = event.param_dict()
            if "spine" in p and p["spine"] >= num_spines:
                raise ExperimentError(
                    f"{event.action} targets spine {p['spine']} but the "
                    f"fabric has {num_spines}"
                )
            if "rack" in p and p["rack"] >= fabric.num_racks:
                raise ExperimentError(
                    f"{event.action} targets rack {p['rack']} but the "
                    f"fabric has {fabric.num_racks}"
                )
            if "tor" in p and p["tor"] >= len(self.cluster.tors):
                raise ExperimentError(
                    f"{event.action} targets ToR {p['tor']} but the fabric "
                    f"has {len(self.cluster.tors)}"
                )

    def _rack_live_floor(self) -> int:
        """Min live-server count over racks that have servers at all."""
        per_rack: Dict[int, int] = {}
        for sid, rack in enumerate(self.cluster.server_racks):
            if self._live[sid]:
                per_rack[rack] = per_rack.get(rack, 0) + 1
            else:
                per_rack.setdefault(rack, 0)
        return min(per_rack.values()) if per_rack else 0

    def _note_liveness(self, sid: int, alive: bool) -> None:
        self._live[sid] = alive
        self._min_rack_live = min(self._min_rack_live, self._rack_live_floor())

    # ------------------------------------------------------------------
    # Event application (same-time events run in spec order: they were
    # registered with sim.at in spec order and ties break by sequence).
    # ------------------------------------------------------------------
    def apply(self, event: ScenarioEvent) -> None:
        getattr(self, f"_apply_{event.action}")(**event.param_dict())
        self.applied.append(event.to_dict())

    def _apply_kill_server(self, server: int) -> None:
        victim = self.cluster.servers[server]
        self.fabric.fail_host(victim)
        self.handler.remove_server(server)
        self._note_liveness(server, False)

    def _apply_restore_server(self, server: int) -> None:
        victim = self.cluster.servers[server]
        self.fabric.restore_host(victim)
        self.handler.restore_server(server)
        self._note_liveness(server, True)

    def _apply_withdraw_spine(self, spine: int) -> None:
        self.fabric.withdraw_spine(spine)

    def _apply_fail_spine(self, spine: int) -> None:
        self.fabric.spines[spine].fail()

    def _apply_restore_spine(self, spine: int, reinit_ns: int) -> None:
        self.fabric.restore_spine(spine, reinit_ns)

    def _apply_drain_rack(self, rack: int) -> None:
        for sid in self.handler.drain_rack(rack):
            self._note_liveness(sid, False)

    def _apply_restore_rack(self, rack: int) -> None:
        for sid in self.handler.restore_rack(rack):
            self._note_liveness(sid, True)

    def _apply_load_surge(self, factor: float, duration_ns: int) -> None:
        base_rates = [client.rate_rps for client in self.cluster.clients]
        for client in self.cluster.clients:
            client.set_rate(client.rate_rps * factor)
        self.cluster.sim.call_after(duration_ns, self._end_surge, base_rates)

    def _end_surge(self, base_rates: List[float]) -> None:
        for client, rate in zip(self.cluster.clients, base_rates):
            client.set_rate(rate)

    def _apply_push_tables(self) -> None:
        self.handler.push_tables()

    def _apply_wipe_switch(self, tor: int, down_ns: int, reinit_ns: int) -> None:
        switch = self.cluster.tors[tor]
        switch.fail()
        self.cluster.sim.call_after(down_ns, switch.recover, reinit_ns)

    # ------------------------------------------------------------------
    def snapshot(self, label: str) -> Dict[str, Any]:
        """Plain-data telemetry at the current simulated instant."""
        cluster = self.cluster
        fabric = self.fabric
        handler = self.handler
        clients = cluster.clients
        servers = cluster.servers
        client_completed = [
            client.responses_received - client.redundant_responses
            for client in clients
        ]
        link_drops = sum(
            link.drop_count for star in fabric.stars for link in star.links
        ) + sum(link.drop_count for link in fabric.trunks)
        snap: Dict[str, Any] = {
            "label": label,
            "time_ns": cluster.sim.now,
            "client_sent": [client._seq for client in clients],
            "client_completed": client_completed,
            "client_outstanding": [client.outstanding for client in clients],
            "redundant": sum(c.redundant_responses for c in clients),
            "outstanding": sum(c.outstanding for c in clients),
            "server_accepted": [
                s.counters.get("requests_accepted") for s in servers
            ],
            "server_responses": [
                s.counters.get("responses_sent") for s in servers
            ],
            "server_queue": [s.queue_len for s in servers],
            "server_busy": [s.busy_workers for s in servers],
            "clones_dropped": sum(
                s.counters.get("clones_dropped") for s in servers
            ),
            # Program drops minus duplicate-response filtering: packets
            # the pipeline dropped because their target left the address
            # table mid-rebuild (nc_unknown_server and kin) — real
            # in-network losses, unlike the intentional filter drops.
            "switch_program_drops": sum(
                sw.counters.get("dropped_by_program")
                - sw.counters.get("nc_filtered")
                for sw in cluster.switches
            ),
            "switch_drops_down": sum(
                sw.counters.get("rx_dropped_down") for sw in cluster.switches
            ),
            "switch_failures": sum(
                sw.counters.get("failures") for sw in cluster.switches
            ),
            "switch_recoveries": sum(
                sw.counters.get("recoveries") for sw in cluster.switches
            ),
            "link_drops": link_drops,
            "host_rx_drops": sum(
                host.nic.rx_dropped
                for host in (*clients, *servers, cluster.coordinator)
                if host is not None
            ),
            "trunk_tx_bytes": sum(link.tx_bytes for link in fabric.trunks),
            "rack_tx_bytes": self._rack_tx_bytes(),
            "handler_epoch": handler.epoch if handler is not None else None,
            "program_epochs": [program.table_epoch for program in cluster.programs],
            "client_epochs": [
                getattr(getattr(client, "group_table", None), "epoch", None)
                for client in clients
            ],
            "seq_register": self._seq_register(),
            "active_servers": (
                list(handler.active_server_ids) if handler is not None else None
            ),
            "pool_uids": cluster.packet_pool.uid_count,
            "pool_allocated": cluster.packet_pool.allocated,
            "pool_free": cluster.packet_pool.free_count,
        }
        return snap

    def _rack_tx_bytes(self) -> List[float]:
        uplinks = getattr(self.fabric, "uplinks", None)
        if uplinks is None:
            return []
        return [
            float(sum(link.bytes_from(tor) for link in uplinks[t]))
            for t, tor in enumerate(self.fabric.tors)
        ]

    def _seq_register(self) -> Optional[int]:
        seq = getattr(self.cluster.program, "seq", None)
        if seq is None:
            return None
        return seq.peek(0)

    def take_checkpoint(self, label: str) -> None:
        self.checkpoints.append(self.snapshot(label))


def _checkpoint_schedule(scenario: Scenario) -> List[tuple]:
    """(time_ns, label) pairs; defaults to one snapshot per event time."""
    if scenario.checkpoints_ns:
        return [(t, f"checkpoint@{t}ns") for t in scenario.checkpoints_ns]
    by_time: Dict[int, List[str]] = {}
    for event in scenario.events:
        by_time.setdefault(event.time_ns, []).append(event.action)
    return [
        (t, "after " + "+".join(actions)) for t, actions in sorted(by_time.items())
    ]


def run_scenario(
    scenario: Scenario,
    scale: float = 1.0,
    seed: Optional[int] = None,
    drain_limit: Optional[int] = None,
) -> ScenarioRun:
    """Execute *scenario* end to end; returns the live run handle.

    ``scale < 1`` shrinks the offered rate (the timeline is absolute);
    ``seed`` overrides the spec's root seed; ``drain_limit`` bounds the
    post-horizon drain (fuzz harnesses set it so a livelocked run
    *reports* a stuck-request violation instead of hanging the suite).
    """
    config = scenario.config(scale=scale, seed=seed)
    cluster = Cluster(config)
    completions = IntervalMonitor(
        window_ns=scenario.report_window_ns, horizon_ns=config.measure_ns
    )
    cluster.recorder.completion_monitor = completions
    trunks = TrunkByteMonitor(
        cluster.sim,
        cluster.topology.trunks,
        scenario.report_window_ns,
        config.measure_ns,
    )
    execution = _ScenarioExecution(scenario, cluster)
    sim = cluster.sim
    for event in scenario.events:
        sim.call_at(event.time_ns, execution.apply, event)
    # Checkpoints registered after events: a same-time snapshot sees
    # the event's effect (sequence numbers break the tie in our favor).
    for time_ns, label in _checkpoint_schedule(scenario):
        sim.call_at(time_ns, execution.take_checkpoint, label)
    cluster.start()
    cluster.run()
    execution.take_checkpoint("end")

    # Drain: clients stopped at end_ns, so the queue empties — unless
    # something livelocks, which drain_limit converts into a reported
    # violation rather than a hung process.
    drain_events = sim.run(max_events=drain_limit)
    drained = sim.peek() is None
    for client in cluster.clients:
        client.flush_predrawn()  # release pre-drawn packets to the pool
    # Under REPRO_SANITIZE=1 the pool's ledger must be empty now: every
    # life acquired over the whole run (failure events included) came
    # back.  A leak fails the scenario with the acquiring call site.
    cluster.sanitize_check()

    final = execution.snapshot("settled")
    final["unreachable"] = compute_unreachable(
        cluster,
        (
            list(execution.handler.active_server_ids)
            if execution.handler is not None
            else list(range(config.num_servers))
        ),
    )

    meta = {
        "num_racks": cluster.topology.num_racks,
        "num_servers": config.num_servers,
        "client_racks": list(cluster.client_racks),
        "server_racks": list(cluster.server_racks),
        "min_rack_live": execution._min_rack_live,
        "drained": drained,
        "drain_events": drain_events,
        "has_handler": execution.handler is not None,
        "horizon_ns": config.end_ns,
        "total_ns": config.total_ns,
    }
    timeline = {
        "window_ns": scenario.report_window_ns,
        "window_starts_ms": [s * 1e3 for s in trunks.window_starts_sec()],
        "rates_per_sec": completions.rates_per_second(),
        "trunk_deltas": trunks.deltas(),
        "trunk_total": trunks.total_per_window(),
    }
    report = ScenarioReport(
        scenario=scenario.name,
        seed=config.seed,
        scale=scale,
        scheme=config.scheme,
        topology=config.topology,
        placement=config.placement,
        events=execution.applied,
        checkpoints=execution.checkpoints,
        final=final,
        timeline=timeline,
        meta=meta,
    )
    view = ReportView.from_report(report)
    report.invariants = evaluate_invariants(view, skip=scenario.skip_invariants)
    return ScenarioRun(
        scenario=scenario,
        cluster=cluster,
        handler=execution.handler,
        completions=completions,
        trunks=trunks,
        report=report,
    )
