"""Cluster construction and measurement driver.

This module turns a :class:`ClusterConfig` into a simulated testbed —
the fabric (ToR switches, optionally spines), client hosts, worker
servers (plus a coordinator host when the scheme deploys one) — runs
it, and reduces the run to a :class:`~repro.metrics.sweep.LoadPoint`.
:meth:`Cluster.telemetry` is the one reader of component counters: a
point's ``extra`` and a scenario checkpoint are projections of it.

Neither schemes, topologies nor placements are hardcoded here:
:class:`Cluster` is generic assembly driven by three plugin
registries — ``SCHEMES`` (:mod:`repro.experiments.schemes`; what runs:
clients, switch programs, coordinators), ``TOPOLOGIES``
(:mod:`repro.experiments.topologies`; what it runs on: single-rack
star, two-rack trunk, spine-leaf Clos) and ``PLACEMENTS``
(:mod:`repro.experiments.placements`; where request redundancy lands:
which candidate pairs each ToR's group table holds).  Any
scheme composes with any topology and placement: the scheme's switch
program is installed once per ToR with that rack's §3.7 switch ID and
that rack's placement-built group table, so the SWID gate keeps
exactly one ToR responsible for each client's requests and clients
draw group IDs valid on their own ToR.  ``repro-netclone schemes`` /
``topologies`` / ``placements`` list the axes, and new entries
self-register from their own modules (see the how-to in
:mod:`repro.experiments`) without touching this file.
"""

from __future__ import annotations

import gc

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.apps.client import OpenLoopClient
from repro.core.placement import PlacementContext
from repro.errors import ExperimentError
from repro.experiments.executor import SweepExecutor
from repro.experiments.placements import PLACEMENTS, PlacementSpec
from repro.experiments.schemes import SCHEMES, SchemeContext, SchemeSpec
from repro.experiments.specs import WorkloadSpec, make_synthetic_spec
from repro.experiments.topologies import TOPOLOGIES, TopologyContext, TopologySpec
from repro.metrics.latency import LatencyRecorder
from repro.metrics.sweep import LoadPoint, SweepResult
from repro.net.host import Host
from repro.net.packet import PacketPool
from repro.net.topology import Fabric
from repro.sim import sanitize
from repro.sim.core import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.units import ms
from repro.workloads.distributions import JitterModel

__all__ = [
    "Cluster",
    "ClusterConfig",
    "run_point",
    "run_sweep",
]


#: Slowdown of an interfered server execution (§5.1.2).
JITTER_FACTOR = 15.0

#: Per-packet host stack costs (VMA-like kernel bypass), in ns.
CLIENT_TX_NS = 350
CLIENT_RX_NS = 650
SERVER_TX_NS = 700
SERVER_RX_NS = 500


@dataclass
class ClusterConfig:
    """Everything needed to build and measure one operating point."""

    scheme: str = "netclone"
    #: Registered fabric name, optionally with inline parameters in the
    #: CLI form ``"spine_leaf:spines=4,spine_policy=least-loaded"``;
    #: None means the default single-rack star (so harnesses can pass
    #: an optional CLI override straight through).  Inline parameters
    #: are merged into ``topology_params`` (inline wins) and the field
    #: normalises to the bare canonical name.
    topology: Optional[str] = "star"
    #: Knobs for the topology builder: ``racks``, ``spines``,
    #: ``spine_policy`` and ``trunk_bandwidth_bps`` for ``spine_leaf``
    #: (``star`` and ``two_rack`` take none).
    topology_params: Dict[str, Any] = field(default_factory=dict)
    #: Registered placement policy governing which candidate pairs each
    #: ToR's group table holds (``global`` | ``rack-local`` |
    #: ``rack-weighted``), optionally with inline parameters in the CLI
    #: form ``"rack-weighted:p=0.7"``; None means ``global`` — the
    #: seed's bit-identical single global table.  Inline parameters are
    #: merged into ``placement_params`` (inline wins) and the field
    #: normalises to the bare canonical name.
    placement: Optional[str] = "global"
    #: Free-form knobs for the placement policy (e.g. ``p`` for
    #: ``rack-weighted``).
    placement_params: Dict[str, Any] = field(default_factory=dict)
    workload: Optional[WorkloadSpec] = None
    num_servers: int = 6
    workers_per_server: Union[int, Sequence[int]] = 15
    num_clients: int = 2
    rate_rps: float = 1.0e6
    #: Probability that a server execution suffers interference and
    #: runs :data:`JITTER_FACTOR` times its base service time.
    jitter_p: float = 0.01
    warmup_ns: int = ms(10)
    measure_ns: int = ms(40)
    drain_ns: int = ms(5)
    seed: int = 1
    #: Latency-metrics backend: ``"exact"`` keeps every sample (the
    #: seed's bit-identical recorder), ``"sketch"`` streams samples
    #: into a mergeable O(buckets) quantile sketch and attaches its
    #: serialized form to the resulting LoadPoint — the only mode that
    #: survives 100M+-request points (see :mod:`repro.metrics.sketch`).
    metrics: str = "exact"

    # NetClone data-plane parameters (§4.1 defaults).
    num_filter_tables: int = 2
    filter_slots: int = 1 << 17

    def __post_init__(self) -> None:
        # Resolves aliases and raises ExperimentError on unknown names.
        self.scheme = SCHEMES.get(self.scheme).name
        for field_name, params_name, registry, default in _PARAM_AXES:
            name, inline = registry.parse(getattr(self, field_name) or default)
            setattr(self, field_name, name)
            if inline:
                # A fresh dict: the params may be shared across
                # dataclasses.replace() copies and must not be mutated.
                setattr(self, params_name, {**getattr(self, params_name), **inline})
        # Build (and discard) the policy once so a typoed knob fails
        # here with a diagnosable error, not deep inside a sweep worker
        # — and never silently runs the policy defaults.
        PLACEMENTS.get(self.placement).make_policy(dict(self.placement_params))
        if self.metrics not in ("exact", "sketch"):
            raise ExperimentError(
                f"unknown metrics mode {self.metrics!r} "
                "(choose 'exact' or 'sketch')"
            )
        if self.workload is None:
            self.workload = make_synthetic_spec("exp", mean_us=25.0)
        elif isinstance(self.workload, str):
            # Registered workload name, optionally with inline params
            # ("mmpp:burst=8") — same syntax as the topology/placement
            # axes; resolved once here so sweep replace() copies share
            # the spec object (and the executor ships it per worker).
            from repro.experiments.workloads_registry import make_workload_spec

            self.workload = make_workload_spec(self.workload)
        if self.num_servers < 2:
            raise ExperimentError("experiments need at least two servers")
        if self.num_clients < 1:
            raise ExperimentError("experiments need at least one client")
        if self.rate_rps <= 0:
            raise ExperimentError("offered load must be positive")

    # ------------------------------------------------------------------
    def worker_counts(self) -> List[int]:
        """Per-server worker-thread counts (homogeneous or explicit)."""
        if isinstance(self.workers_per_server, int):
            return [self.workers_per_server] * self.num_servers
        counts = list(self.workers_per_server)
        if len(counts) != self.num_servers:
            raise ExperimentError(
                f"{len(counts)} worker counts for {self.num_servers} servers"
            )
        return counts

    @property
    def end_ns(self) -> int:
        """End of the measurement window."""
        return self.warmup_ns + self.measure_ns

    @property
    def total_ns(self) -> int:
        """Total simulated time including drain."""
        return self.end_ns + self.drain_ns


#: ``(field, params field, registry, default)`` of each config axis
#: that takes inline ``"name:key=val,..."`` parameters.
_PARAM_AXES = (
    ("topology", "topology_params", TOPOLOGIES, "star"),
    ("placement", "placement_params", PLACEMENTS, "global"),
)


class Cluster:
    """A built testbed, ready to run.

    ``topology`` is the registry-built :class:`~repro.net.topology.Fabric`;
    ``switch`` remains the primary (first) ToR for single-rack code and
    counter drills, while ``tors``/``switches`` expose the whole fabric.
    """

    def __init__(self, config: ClusterConfig):
        self.config = config
        self.scheme_spec: SchemeSpec = SCHEMES.get(config.scheme)
        self.topology_spec: TopologySpec = TOPOLOGIES.get(config.topology)
        self.placement_spec: PlacementSpec = PLACEMENTS.get(config.placement)
        # Built before any simulation state so a bad placement param
        # fails fast with a diagnosable error, whatever the scheme.
        self.placement = self.placement_spec.make_policy(
            dict(config.placement_params)
        )
        self.sim = Simulator()
        # REPRO_SANITIZE=1 swaps in the ledgered pool and draw-counting
        # registry from repro.sim.sanitize; seeds and uid streams are
        # identical either way, so sanitized runs measure the same
        # experiment and merely know where every packet went.
        sanitizing = sanitize.enabled()
        self.rngs: RngRegistry = (
            sanitize.SanitizingRngRegistry(config.seed)
            if sanitizing
            else RngRegistry(config.seed)
        )
        #: Per-cluster packet recycler and uid authority: every client
        #: request and server response cycles through it, and uid
        #: streams restart at 1 for each built cluster.
        self.packet_pool: PacketPool = (
            sanitize.SanitizingPacketPool() if sanitizing else PacketPool()
        )
        self.recorder = LatencyRecorder(
            warmup_ns=config.warmup_ns, end_ns=config.end_ns, mode=config.metrics
        )
        self.topology: Fabric = self.topology_spec.make_fabric(
            TopologyContext(sim=self.sim, config=config)
        )
        # Telemetry at end_ns feeds the trunk keys of ``extra``: counting
        # the drain's response tail (or dividing by a window that
        # includes the drain) would misstate utilization either way.
        self._end_telemetry: Optional[Dict[str, Any]] = None
        self.sim.call_at(config.end_ns, self._capture_end_telemetry)
        self.tors: List[Any] = list(self.topology.tors)
        self.switches: List[Any] = list(self.topology.switches)
        self.switch = self.tors[0]
        self.servers: List[Any] = []
        self.clients: List[OpenLoopClient] = []
        self.coordinator: Optional[Host] = None
        self.programs: List[Any] = []
        self.program: Optional[Any] = None
        self.group_tables: List[Any] = []
        self.server_racks: List[int] = []
        self.client_racks: List[int] = []
        self._build()

    # ------------------------------------------------------------------
    def _build(self) -> None:
        from repro.core.server import RpcServer

        config = self.config
        spec = self.scheme_spec
        fabric = self.topology
        jitter = JitterModel(config.jitter_p, JITTER_FACTOR)
        context = SchemeContext(cluster=self, config=config)

        # A coordinator's address must exist before servers (they
        # redirect their responses to it).
        if spec.needs_coordinator:
            context.coordinator_ip = fabric.allocate_ip("coordinator", 0)

        worker_counts = config.worker_counts()
        for index in range(config.num_servers):
            server = RpcServer(
                self.sim,
                name=f"srv{index + 1}",
                ip=fabric.allocate_ip("server", index),
                server_id=index,
                service=config.workload.make_service(index),
                jitter=jitter,
                rng=self.rngs.stream(f"server{index}"),
                num_workers=worker_counts[index],
                netclone_mode=spec.netclone_mode,
                reply_to_ip=context.coordinator_ip,
                tx_cost_ns=SERVER_TX_NS,
                rx_cost_ns=SERVER_RX_NS,
                packet_pool=self.packet_pool,
            )
            fabric.attach(server, "server", index)
            self.servers.append(server)
        context.server_ips = [server.ip for server in self.servers]
        context.server_racks = fabric.racks_of("server", config.num_servers)
        self.server_racks = list(context.server_racks)
        self.client_racks = fabric.racks_of("client", config.num_clients)

        if spec.make_coordinator is not None:
            self.coordinator = spec.make_coordinator(context)
            fabric.attach(self.coordinator, "coordinator", 0)

        if spec.make_program is not None:
            # One program instance per ToR (registers are per switch);
            # the 1-based rack number is the §3.7 switch ID the SWID
            # gate compares against, and each ToR installs the group
            # table the cluster's placement policy builds for its rack.
            placement_ctx = PlacementContext(
                server_racks=tuple(context.server_racks),
                num_racks=fabric.num_racks,
            )
            for rack, tor in enumerate(self.tors):
                context.switch_id = rack + 1
                table = self.placement.group_table(placement_ctx, rack)
                context.group_table = table
                context.group_tables.append(table)
                program = spec.make_program(context)
                tor.install_program(program)
                self.programs.append(program)
            context.switch_id = 1
            self.program = self.programs[0]
            context.program = self.program
            context.group_table = context.group_tables[0]
            self.group_tables = context.group_tables

        per_client_rate = config.rate_rps / config.num_clients
        for index in range(config.num_clients):
            context.client_index = index
            common = dict(
                sim=self.sim,
                name=f"client{index + 1}",
                ip=fabric.allocate_ip("client", index),
                client_id=index,
                workload=config.workload.make_workload(
                    self.rngs.stream(f"workload{index}")
                ),
                rate_rps=per_client_rate,
                recorder=self.recorder,
                rng=self.rngs.stream(f"client{index}"),
                stop_at_ns=config.end_ns,
                tx_cost_ns=CLIENT_TX_NS,
                rx_cost_ns=CLIENT_RX_NS,
                packet_pool=self.packet_pool,
            )
            # Open-loop arrival modulation (MMPP bursts) draws from its
            # own RNG stream, so workloads without a process stay
            # draw-for-draw identical to the seed's plain-Poisson client.
            arrivals = config.workload.make_arrival_process(
                self.rngs.stream(f"arrivals{index}"), per_client_rate
            )
            if arrivals is not None:
                common["arrival_process"] = arrivals
            client = spec.make_client(context, common)
            fabric.attach(client, "client", index)
            self.clients.append(client)

        if spec.post_build is not None:
            spec.post_build(context)

    # ------------------------------------------------------------------
    def failure_handler(self) -> "ServerFailureHandler":
        """A placement-consistent §3.6 failure handler for this cluster.

        The handler knows the cluster's placement policy, the fabric's
        rack→server map and every ToR's program, so removing (or
        restoring) a server re-derives **one group table per ToR** and
        pushes epoch-stamped tables to each rack's clients — a
        ``rack-local`` deployment stays rack-local across server
        failures.  Its updates go through a fresh
        :class:`~repro.switchsim.controlplane.ControlPlane` on this
        cluster's simulator.
        """
        from repro.core.failures import ServerFailureHandler
        from repro.switchsim.controlplane import ControlPlane

        if not self.programs:
            raise ExperimentError(
                f"scheme {self.config.scheme!r} installs no switch program; "
                "there are no group/address tables to rebuild"
            )
        context = PlacementContext(
            server_racks=tuple(self.server_racks),
            num_racks=self.topology.num_racks,
        )
        return ServerFailureHandler(
            ControlPlane(self.sim),
            clients=self.clients,
            programs=self.programs,
            placement=self.placement,
            context=context,
            client_racks=self.client_racks,
        )

    # ------------------------------------------------------------------
    def _capture_end_telemetry(self) -> None:
        self._end_telemetry = self.telemetry()

    def start(self) -> None:
        """Arm every client's arrival process."""
        for client in self.clients:
            client.start()

    def run(self, until: Optional[int] = None) -> None:
        """Run to *until* (default: the configured total duration).

        The generational GC is paused for the duration of the event
        loop: the hot path recycles packets through pools and frees
        everything else by refcount (event tuples, headers, pass
        contexts are acyclic), so generation scans find nothing and
        their mark passes are pure overhead at millions of events per
        point.  Normal collection resumes when the loop returns.
        """
        was_enabled = gc.isenabled()
        if was_enabled:
            gc.disable()
        try:
            self.sim.run(until=self.config.total_ns if until is None else until)
        finally:
            if was_enabled:
                gc.enable()

    # ------------------------------------------------------------------
    def sanitize_report(self) -> Optional["sanitize.SanitizerReport"]:
        """The sanitizer ledgers' view of this run, or ``None`` when off.

        Clients holding pre-drawn arrival packets flush them first —
        those are legitimately out of the pool, not leaks.
        """
        pool = self.packet_pool
        if not isinstance(pool, sanitize.SanitizingPacketPool):
            return None
        for client in self.clients:
            client.flush_predrawn()
        return sanitize.build_report(pool, self.rngs)

    def sanitize_check(self) -> Optional["sanitize.SanitizerReport"]:
        """Raise :class:`~repro.sim.sanitize.SanitizerError` on leaks."""
        report = self.sanitize_report()
        if report is not None and not report.clean:
            raise sanitize.SanitizerError(report.format())
        return report

    # ------------------------------------------------------------------
    def telemetry(self) -> Dict[str, Any]:
        """Every component counter at the current instant, as plain data.

        The one reader of client, server, switch, link, pool and
        program counters: ``load_point().extra`` and the scenario
        checkpoints are projections of this flat dict.  Per-host lists
        follow ``clients``/``servers`` order; trunk utilization is the
        offered share of line rate over the run so far.
        """
        clients = self.clients
        servers = self.servers
        switches = self.switches
        fabric = self.topology
        trunks = fabric.trunks
        pool = self.packet_pool
        now = self.sim.now
        utilizations = [link.utilization(max(1, now)) for link in trunks]
        uplinks = getattr(fabric, "uplinks", None)
        seq = getattr(self.program, "seq", None)

        def switch_sum(key: str) -> int:
            return sum(switch.counters.get(key) for switch in switches)

        telemetry: Dict[str, Any] = {
            "time_ns": now,
            "client_sent": [client._seq for client in clients],
            "client_completed": [
                client.responses_received - client.redundant_responses
                for client in clients
            ],
            "client_outstanding": [client.outstanding for client in clients],
            "redundant": sum(client.redundant_responses for client in clients),
            "outstanding": sum(client.outstanding for client in clients),
            "server_accepted": [
                server.counters.get("requests_accepted") for server in servers
            ],
            "server_responses": [
                server.counters.get("responses_sent") for server in servers
            ],
            "server_queue": [server.queue_len for server in servers],
            "server_busy": [server.busy_workers for server in servers],
            "clones_dropped": sum(
                server.counters.get("clones_dropped") for server in servers
            ),
            "empty_queue_fraction": _mean_or_nan(
                [server.empty_queue_fraction() for server in servers]
            ),
            "state_samples_zero": sum(server.state_samples_zero for server in servers),
            "state_samples_total": sum(
                server.state_samples_total for server in servers
            ),
            # Program drops minus duplicate-response filtering: packets
            # the pipeline dropped because their target left the address
            # table mid-rebuild (nc_unknown_server and kin) — real
            # in-network losses, unlike the intentional filter drops.
            "switch_program_drops": (
                switch_sum("dropped_by_program") - switch_sum("nc_filtered")
            ),
            # Fresh arrivals (rx_dropped_down) and recirculated copies
            # (dropped_down) that met a powered-off switch.
            "switch_drops_down": (
                switch_sum("rx_dropped_down") + switch_sum("dropped_down")
            ),
            "switch_failures": switch_sum("failures"),
            "switch_recoveries": switch_sum("recoveries"),
            "nc_cloned": switch_sum("nc_cloned"),
            "nc_filtered": switch_sum("nc_filtered"),
            "nc_fingerprint_overwrite": switch_sum("nc_fingerprint_overwrite"),
            "link_drops": sum(
                link.drop_count for star in fabric.stars for link in star.links
            )
            + sum(link.drop_count for link in trunks),
            "host_rx_drops": sum(
                host.rx_dropped
                for host in (*clients, *servers, self.coordinator)
                if host is not None
            ),
            "trunk_tx_bytes": sum(link.tx_bytes for link in trunks),
            "trunk_drops": sum(link.drop_count for link in trunks),
            "trunk_util_max": max(utilizations, default=0.0),
            "trunk_util_mean": (
                sum(utilizations) / len(utilizations) if utilizations else 0.0
            ),
            "rack_tx_bytes": (
                []
                if uplinks is None
                else [
                    float(sum(link.bytes_from(tor) for link in uplinks[t]))
                    for t, tor in enumerate(fabric.tors)
                ]
            ),
            "program_epochs": [program.table_epoch for program in self.programs],
            "client_epochs": [
                getattr(getattr(client, "group_table", None), "epoch", None)
                for client in clients
            ],
            "seq_register": seq.peek(0) if seq is not None else None,
            "pool_uids": pool.uid_count,
            "pool_allocated": pool.allocated,
            "pool_free": pool.free_count,
        }
        coordinator = self.coordinator
        queue_len = getattr(coordinator, "queue_len", None)
        if queue_len is not None:
            telemetry["coordinator_queue"] = queue_len
            telemetry["coordinator_cloned"] = coordinator.counters.get("cloned")
        return telemetry

    def load_point(self) -> LoadPoint:
        """Reduce the finished run to one measured point.

        ``extra`` projects :meth:`telemetry` as floats; its trunk keys
        come from the ``end_ns`` snapshot, unless the run never got
        that far (e.g. a timeline experiment stopped early) — then
        from what ran.
        """
        recorder = self.recorder
        now = self.telemetry()
        end = self._end_telemetry if self._end_telemetry is not None else now
        extra = {key: float(now[source]) for key, source in _EXTRA_KEYS.items()}
        extra.update((key, float(end[key])) for key in _TRUNK_KEYS)
        extra.update(
            (key, float(now[key])) for key in _COORDINATOR_KEYS if key in now
        )
        return LoadPoint(
            offered_rps=recorder.offered_rps(),
            throughput_rps=recorder.throughput_rps(),
            p50_us=recorder.p50_us(),
            p99_us=recorder.p99_us(),
            p999_us=recorder.p999_us(),
            mean_us=recorder.mean_us(),
            samples=len(recorder),
            extra=extra,
            latency_sketch=recorder.sketch_bytes(),
        )


#: ``LoadPoint.extra`` key → the :meth:`Cluster.telemetry` key it reads.
_EXTRA_KEYS = {
    "redundant_responses": "redundant",
    "clones_dropped": "clones_dropped",
    "empty_queue_fraction": "empty_queue_fraction",
    "state_samples_zero": "state_samples_zero",
    "state_samples_total": "state_samples_total",
    "nc_cloned": "nc_cloned",
    "nc_filtered": "nc_filtered",
    "nc_fingerprint_overwrite": "nc_fingerprint_overwrite",
}
_TRUNK_KEYS = ("trunk_util_max", "trunk_util_mean", "trunk_tx_bytes", "trunk_drops")
_COORDINATOR_KEYS = ("coordinator_queue", "coordinator_cloned")


def _mean_or_nan(values: Sequence[float]) -> float:
    cleaned = [v for v in values if v == v]
    if not cleaned:
        return float("nan")
    return sum(cleaned) / len(cleaned)


# ----------------------------------------------------------------------
def run_point(config: ClusterConfig) -> LoadPoint:
    """Build, run and reduce one operating point.

    Under ``REPRO_SANITIZE=1`` the point is also checked against the
    sanitizer ledgers — a leaked packet fails the point with the
    acquiring call site in the error.  The check runs once the point
    is reduced and the simulator has run until its queue empties
    (clients stopped at ``end_ns``): requests an overloaded point still
    holds in server queues or on the wire finish and come back instead
    of counting as leaks.
    """
    cluster = Cluster(config)
    cluster.start()
    cluster.run()
    point = cluster.load_point()
    if isinstance(cluster.packet_pool, sanitize.SanitizingPacketPool):
        cluster.sim.run()
        cluster.sanitize_check()
    return point


def run_sweep(
    config: ClusterConfig, offered_loads_rps: Sequence[float], jobs: int = 1
) -> SweepResult:
    """Measure one throughput-latency curve of ``config.scheme``.

    *config* provides everything but the rate; each load re-runs an
    independent cluster with the same seed so the points differ only
    in offered load.  With ``jobs > 1`` the points run in parallel
    worker processes; results are bit-identical to the serial path
    because every point seeds its own RNG registry.
    """
    panels = _sweep_grid(
        {None: (config, list(offered_loads_rps))},
        [config.scheme],
        jobs,
    )
    return panels[None][config.scheme]


def _sweep_grid(
    panels: Dict[Any, Tuple[ClusterConfig, Sequence[float]]],
    schemes: Sequence[str],
    jobs: int,
) -> Dict[Any, Dict[str, SweepResult]]:
    """Every panel × scheme × load point as one executor batch.

    *panels* maps a panel key to its config and offered loads.  The
    result maps each panel key to one curve per scheme, keyed by the
    names the caller passed (aliases intact); the curve labels use the
    canonical names the configs resolved to.
    """
    schemes = list(schemes)
    canonical = [SCHEMES.get(scheme).name for scheme in schemes]
    point_configs = [
        replace(config, scheme=name, rate_rps=rate)
        for config, loads in panels.values()
        for name in canonical
        for rate in loads
    ]
    points = iter(SweepExecutor(jobs).run_points(point_configs))
    results: Dict[Any, Dict[str, SweepResult]] = {}
    for key, (config, loads) in panels.items():
        curves = results[key] = {}
        for scheme, name in zip(schemes, canonical):
            curve = curves[scheme] = SweepResult(
                scheme=name, workload=config.workload.name
            )
            for _ in loads:
                curve.add(next(points))
    return results
