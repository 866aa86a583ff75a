"""Declarative chaos-scenario specs.

A :class:`Scenario` is a typed list of timed operator events — the
§3.6 vocabulary (switch power cycles that wipe soft state, spine
withdraw/fail/restore, server kill/restore, rack drains, load surges,
rolling table pushes) — against one cluster configuration.  The
runner snapshots telemetry after each distinct event time and at the
horizon; a spec has no schedule of its own.  Specs are plain data:
loadable from a dict or a TOML file, picklable, and validated **at
construction** so a typoed action name, an out-of-range server id or
an event scheduled past the horizon fails with a diagnosable error
before any simulation state exists.  Every time field is an integer
nanosecond count (``at_ns``, ``down_ns``, ``duration_ns``,
``report_window_ns``, ...).

The event vocabulary (see :data:`EVENT_TYPES` for parameters):

``kill_server``      power a server off *and* submit the control-plane
                     removal (access link down + placement-consistent
                     per-ToR table rebuild)
``restore_server``   the symmetric power-on + control-plane restore
``withdraw_spine``   hitless route withdrawal (traffic drains off)
``fail_spine``       power a spine off without withdrawing it first
                     (in-flight packets become the drop window)
``restore_spine``    routes (and power, if failed) come back after an
                     optional re-initialisation delay
``drain_rack``       hitless control-plane removal of every live
                     server in a rack (rack maintenance)
``restore_rack``     restore every drained/killed server of a rack
``load_surge``       multiply every client's offered rate for a fixed
                     duration (pre-drawn arrivals are flushed)
``push_tables``      rolling placement-table push: fresh epoch on
                     every ToR and client, no liveness change
``wipe_switch``      ToR power cycle: down for ``down_ns``, then back
                     with **every register wiped** and an optional
                     port/ASIC re-init delay (the paper's Figure 16)

Events at the same timestamp apply in list order.  Events that drive
the control plane (``kill_server``/``restore_server``/``drain_rack``/
``restore_rack``/``push_tables``) need a scheme that installs a switch
program and delegates group construction to the placement policy —
checked here, at spec time.
"""

from __future__ import annotations

import tomllib

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.coerce import REQUIRED, Fields, coerce_fields, count, finite_float
from repro.coerce import mapping, name, ns
from repro.errors import ExperimentError
from repro.sim.units import ms

__all__ = [
    "EVENT_TYPES",
    "HANDLER_ACTIONS",
    "Scenario",
    "ScenarioEvent",
    "event_action_names",
]


@dataclass(frozen=True)
class _EventType:
    """Static description of one event action."""

    #: Declared parameters: ``{name: (coercer, default)}``.
    params: Fields
    #: One-line description (shown by ``repro-netclone scenarios``).
    description: str
    #: Needs a :class:`~repro.core.failures.ServerFailureHandler`.
    needs_handler: bool = False
    #: Only meaningful on fabrics with spines (spine_leaf).
    needs_spines: bool = False


#: A server, spine, rack or ToR index.
_INDEX = count(ge=0)

EVENT_TYPES: Dict[str, _EventType] = {
    "kill_server": _EventType(
        params={"server": (_INDEX, REQUIRED)},
        description="power a server off + control-plane removal",
        needs_handler=True,
    ),
    "restore_server": _EventType(
        params={"server": (_INDEX, REQUIRED)},
        description="power a server on + control-plane restore",
        needs_handler=True,
    ),
    "withdraw_spine": _EventType(
        params={"spine": (_INDEX, REQUIRED)},
        description="hitless spine route withdrawal",
        needs_spines=True,
    ),
    "fail_spine": _EventType(
        params={"spine": (_INDEX, REQUIRED)},
        description="power a spine off without withdrawing routes",
        needs_spines=True,
    ),
    "restore_spine": _EventType(
        params={"spine": (_INDEX, REQUIRED), "reinit_ns": (ns(), 0)},
        description="restore a spine's routes (and power) after reinit",
        needs_spines=True,
    ),
    "drain_rack": _EventType(
        params={"rack": (_INDEX, REQUIRED)},
        description="hitless control-plane drain of a whole rack",
        needs_handler=True,
    ),
    "restore_rack": _EventType(
        params={"rack": (_INDEX, REQUIRED)},
        description="restore every removed server of a rack",
        needs_handler=True,
    ),
    "load_surge": _EventType(
        params={
            "factor": (finite_float(gt=0), REQUIRED),
            "duration_ns": (ns(gt=0), REQUIRED),
        },
        description="multiply every client's offered rate for a duration",
    ),
    "push_tables": _EventType(
        params={},
        description="rolling placement-table push (fresh epoch, no change)",
        needs_handler=True,
    ),
    "wipe_switch": _EventType(
        params={
            "tor": (_INDEX, 0),
            "down_ns": (ns(gt=0), REQUIRED),
            "reinit_ns": (ns(), 0),
        },
        description="ToR power cycle; registers wiped on recovery",
    ),
}

#: Actions that drive the server-failure control plane.
HANDLER_ACTIONS = frozenset(
    name for name, etype in EVENT_TYPES.items() if etype.needs_handler
)

#: Actions that only exist on spine-leaf fabrics.
SPINE_ACTIONS = frozenset(
    name for name, etype in EVENT_TYPES.items() if etype.needs_spines
)

#: Actions that change which servers are live (for static applicability
#: analysis, e.g. whether rack-local trunks can be expected silent).
LIVENESS_ACTIONS = frozenset(
    {"kill_server", "restore_server", "drain_rack", "restore_rack"}
)


def event_action_names() -> Tuple[str, ...]:
    """Registered event actions, sorted."""
    return tuple(sorted(EVENT_TYPES))


@dataclass(frozen=True)
class ScenarioEvent:
    """One timed operator action."""

    time_ns: int
    action: str
    params: Tuple[Tuple[str, Any], ...] = ()

    def param_dict(self) -> Dict[str, Any]:
        return dict(self.params)

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"at_ns": self.time_ns, "action": self.action}
        out.update(self.params)
        return out


#: Every event's action and time; its other keys are the action's params.
_ACTION = name(event_action_names())
_AT_NS = {"at_ns": (ns(), REQUIRED)}


def _make_event(raw: Any) -> ScenarioEvent:
    """Validate and normalise one event mapping (``at_ns``, ``action``,
    the action's declared parameters)."""
    raw = mapping(raw, "event")
    action = _ACTION(raw.pop("action", None), "event: action")
    params = coerce_fields(raw, {**_AT_NS, **EVENT_TYPES[action].params}, action)
    time_ns = params.pop("at_ns")
    return ScenarioEvent(time_ns=time_ns, action=action, params=tuple(params.items()))


def _events(value: Any, label: str) -> List[ScenarioEvent]:
    if not isinstance(value, (list, tuple)):
        raise ExperimentError(f"{label}={value!r} is not a list of events")
    return [e if isinstance(e, ScenarioEvent) else _make_event(e) for e in value]


#: The declared fields of a spec (the :meth:`Scenario.from_dict` shape).
SCENARIO_FIELDS: Fields = {
    "name": (name(), ""),
    "description": (name(empty=True), ""),
    "cluster": (mapping, {}),
    "events": (_events, ()),
    "report_window_ns": (ns(gt=0), ms(25)),
}


@dataclass
class Scenario:
    """A validated chaos scenario: cluster + timed events.

    ``cluster`` holds :class:`~repro.experiments.common.ClusterConfig`
    keyword arguments (scheme/topology/placement/rates/windows/seed);
    it is built once during validation so every config error surfaces
    here.
    """

    name: str
    description: str = ""
    cluster: Dict[str, Any] = field(default_factory=dict)
    events: List[ScenarioEvent] = field(default_factory=list)
    #: Window of the throughput / trunk-byte timeline in the report.
    report_window_ns: int = ms(25)

    def __post_init__(self) -> None:
        owner = f"scenario {self.name!r}"
        self.__dict__.update(coerce_fields(vars(self), SCENARIO_FIELDS, owner, "field"))
        config = self.config()  # validates scheme/topology/placement/...
        horizon = config.total_ns
        for event in self.events:
            if event.time_ns >= horizon:
                raise ExperimentError(
                    f"scenario {self.name!r}: {event.action} at "
                    f"{event.time_ns} ns is past the {horizon} ns horizon"
                )
        # Stable sort: same-time events keep their list order.
        self.events = sorted(self.events, key=lambda e: e.time_ns)
        self._check_cross_constraints(config)

    # ------------------------------------------------------------------
    def _check_cross_constraints(self, config: Any) -> None:
        """Event/config consistency checkable without a built fabric."""
        from repro.experiments.schemes import SCHEMES

        spec = SCHEMES.get(config.scheme)
        if self.needs_handler:
            if spec.make_program is None:
                raise ExperimentError(
                    f"scenario {self.name!r} drives the server-failure "
                    f"control plane but scheme {config.scheme!r} installs "
                    "no switch program (no tables to rebuild)"
                )
        for event in self.events:
            p = event.param_dict()
            if event.action in SPINE_ACTIONS and config.topology != "spine_leaf":
                raise ExperimentError(
                    f"scenario {self.name!r}: {event.action} needs a "
                    f"spine_leaf fabric, not {config.topology!r}"
                )
            if "server" in p and p["server"] >= config.num_servers:
                raise ExperimentError(
                    f"scenario {self.name!r}: {event.action} targets server "
                    f"{p['server']} but the cluster has {config.num_servers}"
                )

    # ------------------------------------------------------------------
    def config(self, scale: float = 1.0, seed: Optional[int] = None) -> Any:
        """A fresh :class:`ClusterConfig` for this scenario.

        ``scale < 1`` shrinks the *offered rate* (never the timeline —
        event times are absolute, so compressing the horizon would
        reorder the story); ``seed`` overrides the spec's seed.
        """
        from repro.experiments.common import CLUSTER_FIELDS, ClusterConfig
        from repro.experiments.harness import SCALE

        kwargs = dict(self.cluster)
        if seed is not None:
            kwargs["seed"] = seed
        owner = f"scenario {self.name!r} cluster"
        config = ClusterConfig(**coerce_fields(kwargs, CLUSTER_FIELDS, owner, "field"))
        if SCALE(scale, "scale") < 1.0:
            config = replace(config, rate_rps=config.rate_rps * scale)
        return config

    @property
    def needs_handler(self) -> bool:
        """Whether any event drives the server-failure control plane."""
        return any(event.action in HANDLER_ACTIONS for event in self.events)

    def with_overrides(
        self,
        topology: Optional[str] = None,
        placement: Optional[str] = None,
    ) -> "Scenario":
        """A re-validated copy on another fabric and/or group placement.

        The copy re-runs full validation, so an incompatible
        combination (e.g. a spine scenario on a star fabric) fails
        before any cluster is built.  An override drops the params
        of the entry it replaces.
        """
        cluster = dict(self.cluster)
        if topology is not None:
            cluster["topology"] = topology
            cluster.pop("topology_params", None)
        if placement is not None:
            cluster["placement"] = placement
            cluster.pop("placement_params", None)
        return replace(self, cluster=cluster, events=list(self.events))

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """A plain-data form that round-trips through :meth:`from_dict`."""
        return {
            "name": self.name,
            "description": self.description,
            "cluster": dict(self.cluster),
            "events": [event.to_dict() for event in self.events],
            "report_window_ns": self.report_window_ns,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Scenario":
        """Build and validate a scenario from a plain mapping.

        The keys are :data:`SCENARIO_FIELDS`; every event gives its
        time as ``at_ns``.
        """
        owner = "scenario spec"
        if isinstance(data, Mapping):
            owner = f"scenario {data.get('name', '')!r}"
        return cls(**coerce_fields(data, SCENARIO_FIELDS, owner, "field"))

    @classmethod
    def from_toml_file(cls, path: Any) -> "Scenario":
        """Load a TOML scenario file (see :meth:`from_dict` for the shape)."""
        try:
            with open(path, "rb") as fh:
                data = tomllib.load(fh)
        except OSError as exc:
            raise ExperimentError(
                f"cannot read scenario file {path}: {exc.strerror}"
            ) from None
        except tomllib.TOMLDecodeError as exc:
            raise ExperimentError(f"invalid scenario TOML in {path}: {exc}") from None
        return cls.from_dict(data)
