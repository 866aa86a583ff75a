"""Scheme plugin registry.

A *scheme* is everything that varies between load-balancing/cloning
variants when a cluster is assembled: which client class to build,
whether the switch runs a program (and which), whether a coordinator
host exists, and any post-build adjustments.  :class:`SchemeSpec`
bundles those choices declaratively and the registry maps scheme names
(and aliases) to specs, so :class:`~repro.experiments.common.Cluster`
is generic assembly code and new schemes are self-registering plugins.

Registering a scheme::

    from repro.experiments.schemes import SchemeSpec, register_scheme

    @register_scheme
    def _my_scheme() -> SchemeSpec:
        return SchemeSpec(
            name="my-scheme",
            description="one line for `repro-netclone schemes`",
            make_client=lambda ctx, common: MyClient(
                server_ips=ctx.server_ips, **common
            ),
        )

``register_scheme`` also accepts a :class:`SchemeSpec` directly.  The
paper's eight schemes are registered at the bottom of this module;
extra plugin modules listed in :data:`PLUGIN_MODULES` are imported
lazily on first lookup so they never burden import time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ExperimentError
from repro.experiments.plugin_registry import PluginRegistry

__all__ = [
    "PLUGIN_MODULES",
    "SchemeContext",
    "SchemeSpec",
    "describe_schemes",
    "get_scheme",
    "iter_schemes",
    "register_scheme",
    "registered_modules",
    "scheme_names",
    "unregister_scheme",
]

#: Modules imported lazily on registry access so self-registering
#: plugin schemes that live outside this package become visible without
#: the core ever importing them eagerly (or them importing the core).
#: Append to this list at any time; not-yet-imported entries load on
#: the next lookup.
PLUGIN_MODULES: List[str] = [
    "repro.baselines.jsq_d",
    "repro.baselines.bounded_random",
    "repro.baselines.cclone",
]


@dataclass
class SchemeContext:
    """Build-time state handed to every :class:`SchemeSpec` hook.

    ``cluster`` is the partially built
    :class:`~repro.experiments.common.Cluster` (its ``sim``, ``rngs``,
    ``topology`` — a registry-built fabric — ``servers``, ``tors`` and
    ``switch`` are available); ``config`` is its
    :class:`~repro.experiments.common.ClusterConfig`.

    ``make_program`` hooks run once per ToR: ``switch_id`` holds the
    1-based rack number of the ToR currently being programmed (what
    the §3.7 SWID gate compares against) and ``group_table`` the
    :class:`~repro.core.placement.GroupTable` the cluster's placement
    policy built for that ToR (what its program installs).
    ``program`` is the primary (first) ToR's program once all are
    installed, and ``group_tables`` collects every ToR's table in rack
    order.  ``make_client`` hooks run once per client with
    ``client_index`` set; :meth:`client_group_table` resolves the
    table of that client's local ToR.
    """

    cluster: Any
    config: Any
    server_ips: List[int] = field(default_factory=list)
    coordinator_ip: Optional[int] = None
    program: Optional[Any] = None
    switch_id: int = 1
    #: Rack of each server ID (the fabric's placement map).
    server_racks: List[int] = field(default_factory=list)
    #: Per-ToR group tables in rack order (empty for program-less schemes).
    group_tables: List[Any] = field(default_factory=list)
    #: The table of the ToR currently being programmed.
    group_table: Optional[Any] = None
    #: Index of the client currently being built.
    client_index: int = 0

    def client_group_table(self) -> Optional[Any]:
        """The group table of the current client's local ToR.

        Clients draw group IDs valid on the switch that stamps their
        requests — their own rack's ToR — so each rack may run a
        different placement-aware pair set.
        """
        if not self.group_tables:
            return None
        rack = self.cluster.topology.rack_of("client", self.client_index)
        return self.group_tables[rack]


@dataclass
class SchemeSpec:
    """Declarative description of one load-balancing/cloning scheme.

    Only ``name``, ``description`` and ``make_client`` are mandatory;
    everything else defaults to the plain ``baseline`` shape (no
    switch program, no coordinator, servers speak plain RPC).
    """

    #: Canonical scheme name (what ``ClusterConfig.scheme`` normalises to).
    name: str
    #: One-line description shown by ``repro-netclone schemes``.
    description: str
    #: ``(ctx, common) -> OpenLoopClient`` — build one client; *common*
    #: carries the shared constructor kwargs (sim, name, ip, workload,
    #: rate, recorder, rng, ...).
    make_client: Callable[[SchemeContext, Dict[str, Any]], Any]
    #: Alternative lookup names.
    aliases: Tuple[str, ...] = ()
    #: Servers parse/emit the NetClone header and piggyback state.
    netclone_mode: bool = False
    #: ``ctx -> program`` installed on the ToR switch (None: plain L3).
    make_program: Optional[Callable[[SchemeContext], Any]] = None
    #: ``ctx -> Host`` — build the coordinator host (its IP is
    #: pre-allocated as ``ctx.coordinator_ip`` before servers exist).
    make_coordinator: Optional[Callable[[SchemeContext], Any]] = None
    #: ``ctx -> None`` — run after servers/program/clients are built.
    post_build: Optional[Callable[[SchemeContext], None]] = None
    #: Module that registered the spec (filled in by ``register_scheme``;
    #: used to re-import plugins inside sweep worker processes).
    module: Optional[str] = None

    @property
    def needs_coordinator(self) -> bool:
        """Whether the scheme deploys a coordinator host."""
        return self.make_coordinator is not None


_IMPL = PluginRegistry(
    kind="scheme",
    spec_type=SchemeSpec,
    plugin_modules=PLUGIN_MODULES,
    factory_field="make_client",
)
#: Shared with :class:`PluginRegistry` (tests reset entries here).
_loaded_plugins = _IMPL._loaded_plugins


def register_scheme(spec_or_factory):
    """Register a scheme; usable as a decorator or called directly.

    Accepts either a :class:`SchemeSpec` or a zero-argument factory
    returning one (the decorator form).  Duplicate names or aliases
    raise :class:`~repro.errors.ExperimentError`.
    """
    return _IMPL.register(spec_or_factory)


def unregister_scheme(name: str) -> None:
    """Remove a scheme (and its aliases); mainly for tests."""
    _IMPL.unregister(name)


def get_scheme(name: str) -> SchemeSpec:
    """The spec registered under *name* (aliases resolve)."""
    return _IMPL.get(name)


def scheme_names() -> Tuple[str, ...]:
    """Canonical names of every registered scheme, in registration order."""
    return _IMPL.names()


def iter_schemes() -> List[SchemeSpec]:
    """Every registered spec, in registration order."""
    return _IMPL.specs()


def describe_schemes() -> List[str]:
    """``name — description`` lines (aliases in parentheses)."""
    return _IMPL.describe()


def registered_modules() -> Tuple[str, ...]:
    """Modules that registered schemes (for sweep worker re-imports)."""
    return _IMPL.registered_modules()


# ----------------------------------------------------------------------
# The paper's schemes.  Client/program classes are imported inside the
# hooks: specs are looked up long after import time, and this keeps the
# registry importable from plugin modules without cycles.
# ----------------------------------------------------------------------
def _baseline_client(ctx: SchemeContext, common: Dict[str, Any]):
    from repro.baselines.random_lb import BaselineClient

    return BaselineClient(server_ips=ctx.server_ips, **common)


def _cclone_client(ctx: SchemeContext, common: Dict[str, Any]):
    from repro.baselines.cclone import CCloneClient

    return CCloneClient(server_ips=ctx.server_ips, **common)


def _laedge_client(ctx: SchemeContext, common: Dict[str, Any]):
    from repro.baselines.laedge import LaedgeClient

    return LaedgeClient(coordinator_ip=ctx.coordinator_ip, **common)


def _laedge_coordinator(ctx: SchemeContext):
    from repro.baselines.laedge import LaedgeCoordinator

    config = ctx.config
    slots = config.laedge_slots_per_server
    if slots is None:
        slots = max(config.worker_counts())
    return LaedgeCoordinator(
        ctx.cluster.sim,
        name="coordinator",
        ip=ctx.coordinator_ip,
        server_ips=list(ctx.server_ips),
        rng=ctx.cluster.rngs.stream("coordinator"),
        slots_per_server=slots,
        cpu_cost_ns=config.coordinator_cpu_ns,
    )


def _netclone_client(ctx: SchemeContext, common: Dict[str, Any]):
    from repro.core.client import NetCloneClient

    if ctx.program is None:
        raise ExperimentError(
            f"scheme {ctx.config.scheme!r} builds NetClone clients but "
            "installed no switch program"
        )
    return NetCloneClient(
        group_table=ctx.client_group_table(),
        num_filter_tables=ctx.config.num_filter_tables,
        **common,
    )


def _program_kwargs(ctx: SchemeContext) -> Dict[str, Any]:
    return dict(
        server_ips=list(ctx.server_ips),
        num_filter_tables=ctx.config.num_filter_tables,
        filter_slots=ctx.config.filter_slots,
        switch_id=ctx.switch_id,
        group_table=ctx.group_table,
    )


def _netclone_program(ctx: SchemeContext):
    from repro.core.program import NetCloneProgram

    return NetCloneProgram(**_program_kwargs(ctx))


def _netclone_nofilter_program(ctx: SchemeContext):
    from repro.core.program import NetCloneProgram

    return NetCloneProgram(filtering_enabled=False, **_program_kwargs(ctx))


def _racksched_program(ctx: SchemeContext):
    from repro.core.racksched import RackSchedProgram

    return RackSchedProgram(**_program_kwargs(ctx))


def _netclone_racksched_program(ctx: SchemeContext):
    from repro.core.racksched import NetCloneRackSchedProgram

    return NetCloneRackSchedProgram(**_program_kwargs(ctx))


def _accept_stale_clones(ctx: SchemeContext) -> None:
    # Ablation: keep state piggybacking but accept stale clones.
    for server in ctx.cluster.servers:
        server.drop_stale_clones = False


register_scheme(
    SchemeSpec(
        name="baseline",
        description="random server choice, no cloning (plain L3 switch)",
        make_client=_baseline_client,
        module=__name__,
    )
)

register_scheme(
    SchemeSpec(
        name="cclone",
        description="static client-side cloning, d = 2",
        make_client=_cclone_client,
        module=__name__,
    )
)

register_scheme(
    SchemeSpec(
        name="laedge",
        description="coordinator-based dynamic cloning",
        make_client=_laedge_client,
        make_coordinator=_laedge_coordinator,
        module=__name__,
    )
)

register_scheme(
    SchemeSpec(
        name="netclone",
        description="NetClone switch program (cloning + filtering)",
        make_client=_netclone_client,
        netclone_mode=True,
        make_program=_netclone_program,
        module=__name__,
    )
)

register_scheme(
    SchemeSpec(
        name="netclone-nofilter",
        description="NetClone with response filtering disabled (Fig. 15)",
        make_client=_netclone_client,
        netclone_mode=True,
        make_program=_netclone_nofilter_program,
        module=__name__,
    )
)

register_scheme(
    SchemeSpec(
        name="netclone-noclonedrop",
        description="NetClone without the server-side stale-clone drop",
        make_client=_netclone_client,
        netclone_mode=True,
        make_program=_netclone_program,
        post_build=_accept_stale_clones,
        module=__name__,
    )
)

register_scheme(
    SchemeSpec(
        name="racksched",
        description="switch JSQ power-of-two, no cloning",
        make_client=_netclone_client,
        netclone_mode=True,
        make_program=_racksched_program,
        module=__name__,
    )
)

register_scheme(
    SchemeSpec(
        name="netclone-racksched",
        description="NetClone + RackSched integration (§3.7)",
        make_client=_netclone_client,
        netclone_mode=True,
        make_program=_netclone_racksched_program,
        module=__name__,
    )
)
