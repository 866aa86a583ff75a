"""Cluster construction and measurement driver.

This module turns a :class:`ClusterConfig` into a simulated testbed —
the fabric (ToR switches, optionally spines), client hosts, worker
servers (plus a coordinator host when the scheme deploys one) — runs
it, and reduces the run to a :class:`~repro.metrics.sweep.LoadPoint`.

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
from repro.experiments.executor import SweepExecutor, resolve_executor
from repro.experiments.placements import PLACEMENTS, PlacementSpec
from repro.experiments.schemes import SCHEMES, SchemeContext, SchemeSpec
from repro.experiments.specs import WorkloadSpec, make_synthetic_spec
from repro.experiments.topologies import TOPOLOGIES, TopologyContext, TopologySpec
from repro.metrics.latency import LatencyRecorder
from repro.metrics.links import trunk_summary
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
    "sweep_override_kwargs",
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
    #: Free-form knobs for the topology builder (e.g. ``racks``,
    #: ``spines``, ``spine_policy`` for ``spine_leaf``; rack placement
    #: for ``two_rack``).
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
        # Trunk stats are captured when the clients stop: counting the
        # drain's response tail (or dividing by a window that includes
        # the drain) would misstate utilization either way.
        self._trunk_stats: Optional[Dict[str, float]] = None
        self.sim.call_at(config.end_ns, self._capture_trunk_stats)
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
        make_arrivals = getattr(config.workload, "make_arrival_process", None)
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
            if make_arrivals is not None:
                # Open-loop arrival modulation (MMPP bursts, diurnal
                # tenants) draws from its own RNG stream, so workloads
                # without a process stay draw-for-draw identical to
                # the seed's plain-Poisson client.
                arrivals = make_arrivals(
                    self.rngs.stream(f"arrivals{index}"), per_client_rate, index
                )
                if arrivals is not None:
                    common["arrival_process"] = arrivals
            client = spec.make_client(context, common)
            fabric.attach(client, "client", index)
            self.clients.append(client)

        if spec.post_build is not None:
            spec.post_build(context)

    # ------------------------------------------------------------------
    def failure_handler(
        self,
        control_plane: Optional[Any] = None,
        op_latency_ns: Optional[int] = None,
    ) -> "ServerFailureHandler":
        """A placement-consistent §3.6 failure handler for this cluster.

        The handler knows the cluster's placement policy, the fabric's
        rack→server map and every ToR's program, so removing (or
        restoring) a server re-derives **one group table per ToR** and
        pushes epoch-stamped tables to each rack's clients — a
        ``rack-local`` deployment stays rack-local across server
        failures.  *control_plane* defaults to a fresh
        :class:`~repro.switchsim.controlplane.ControlPlane` on this
        cluster's simulator (*op_latency_ns* overrides its latency).
        """
        from repro.core.failures import ServerFailureHandler
        from repro.switchsim.controlplane import ControlPlane

        if not self.programs:
            raise ExperimentError(
                f"scheme {self.config.scheme!r} installs no switch program; "
                "there are no group/address tables to rebuild"
            )
        if control_plane is None:
            kwargs = {} if op_latency_ns is None else {"op_latency_ns": op_latency_ns}
            control_plane = ControlPlane(self.sim, **kwargs)
        context = PlacementContext(
            server_racks=tuple(self.server_racks),
            num_racks=self.topology.num_racks,
        )
        return ServerFailureHandler(
            control_plane,
            clients=self.clients,
            programs=self.programs,
            placement=self.placement,
            context=context,
            client_racks=self.client_racks,
        )

    # ------------------------------------------------------------------
    def _capture_trunk_stats(self) -> None:
        self._trunk_stats = trunk_summary(self.topology.trunks, self.config.end_ns)

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
    def load_point(self) -> LoadPoint:
        """Reduce the finished run to one measured point."""
        recorder = self.recorder
        extra: Dict[str, float] = {
            "redundant_responses": float(
                sum(client.redundant_responses for client in self.clients)
            ),
            "clones_dropped": float(
                sum(server.counters.get("clones_dropped") for server in self.servers)
            ),
            "empty_queue_fraction": _mean_or_nan(
                [server.empty_queue_fraction() for server in self.servers]
            ),
            "state_samples_zero": float(
                sum(server.state_samples_zero for server in self.servers)
            ),
            "state_samples_total": float(
                sum(server.state_samples_total for server in self.servers)
            ),
        }
        for key in ("nc_cloned", "nc_filtered", "nc_fingerprint_overwrite"):
            extra[key] = float(
                sum(switch.counters.get(key) for switch in self.switches)
            )
        # The end_ns snapshot, unless the run never got that far (e.g.
        # a timeline experiment stopped early) — then measure what ran.
        extra.update(
            self._trunk_stats
            if self._trunk_stats is not None
            else trunk_summary(self.topology.trunks, max(1, self.sim.now))
        )
        coordinator = self.coordinator
        queue_len = getattr(coordinator, "queue_len", None)
        if queue_len is not None:
            extra["coordinator_queue"] = float(queue_len)
            extra["coordinator_cloned"] = float(coordinator.counters.get("cloned"))
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


def _mean_or_nan(values: Sequence[float]) -> float:
    cleaned = [v for v in values if v == v]
    if not cleaned:
        return float("nan")
    return sum(cleaned) / len(cleaned)


# ----------------------------------------------------------------------
def sweep_override_kwargs(
    config: ClusterConfig,
    topology: Optional[str] = None,
    placement: Optional[str] = None,
) -> Dict[str, Any]:
    """``replace()`` kwargs applying sweep-level topology/placement overrides.

    An override may carry inline params ("spine_leaf:spines=4,...",
    "rack-weighted:p=0.7"); each point config's ``__post_init__`` folds
    those into its params field.  When an override names a *different*
    entry than the config, the config's params belong to the old one
    and are dropped — otherwise e.g. leftover ``spines`` would trip the
    ``star`` builder's unknown-parameter check.
    """
    requested = {"topology": topology, "placement": placement}
    kwargs: Dict[str, Any] = {}
    for field_name, params_name, registry, default in _PARAM_AXES:
        current = getattr(config, field_name)
        chosen = requested[field_name]
        if chosen is None:
            chosen = current
        name, inline = registry.parse(chosen or default)
        if name != current:
            kwargs.update({field_name: name, params_name: inline})
        else:
            kwargs[field_name] = chosen
    return kwargs


def run_point(config: ClusterConfig) -> LoadPoint:
    """Build, run and reduce one operating point.

    Under ``REPRO_SANITIZE=1`` the point is also checked against the
    sanitizer ledgers — a leaked packet fails the point with the
    acquiring call site in the error.
    """
    cluster = Cluster(config)
    cluster.start()
    cluster.run()
    point = cluster.load_point()
    cluster.sanitize_check()
    return point


def run_sweep(
    config: ClusterConfig,
    offered_loads_rps: Sequence[float],
    scheme: Optional[str] = None,
    jobs: Optional[int] = None,
    executor: Optional[SweepExecutor] = None,
    topology: Optional[str] = None,
    placement: Optional[str] = None,
) -> SweepResult:
    """Measure one throughput-latency curve.

    *config* provides everything but the rate (and optionally the
    scheme, topology and placement); each load re-runs an independent
    cluster with the same seed so curves differ only in offered load.
    With ``jobs > 1`` (or an explicit *executor*) the points run in
    parallel worker processes; results are bit-identical to the serial
    path because every point seeds its own RNG registry.
    """
    chosen = scheme if scheme is not None else config.scheme
    panels = _sweep_grid(
        {None: (config, list(offered_loads_rps))},
        [chosen],
        resolve_executor(executor, jobs),
        topology,
        placement,
    )
    return panels[None][chosen]


def _sweep_grid(
    panels: Dict[Any, Tuple[ClusterConfig, Sequence[float]]],
    schemes: Sequence[str],
    executor: SweepExecutor,
    topology: Optional[str] = None,
    placement: Optional[str] = None,
) -> Dict[Any, Dict[str, SweepResult]]:
    """Every panel × scheme × load point as one executor batch.

    *panels* maps a panel key to its config and offered loads.  The
    result maps each panel key to one curve per scheme, keyed by the
    names the caller passed (aliases intact); the curve labels use the
    canonical names the configs resolved to.  *topology* / *placement*
    override every panel's fabric and group placement.
    """
    schemes = list(schemes)
    canonical = [SCHEMES.get(scheme).name for scheme in schemes]
    point_configs: List[ClusterConfig] = []
    for config, loads in panels.values():
        overrides = sweep_override_kwargs(config, topology, placement)
        point_configs.extend(
            replace(config, scheme=name, rate_rps=rate, **overrides)
            for name in canonical
            for rate in loads
        )
    points = iter(executor.run_points(point_configs))
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
