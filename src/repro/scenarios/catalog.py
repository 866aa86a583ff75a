"""Built-in chaos-scenario catalog.

The three hand-written failure drills (``examples/switch_failure_drill
.py``) expressed as declarative specs, plus compound scenarios that
compose the same §3.6 vocabulary into harder stories: rolling spine
maintenance, cascading server failures across racks, a kill racing an
in-flight control-plane rebuild, a load surge riding through a table
push, and a whole-rack drain.

Every entry is written as the plain-dict form :meth:`Scenario.from_dict`
accepts — the same shape a TOML spec file parses to — so the catalog
doubles as the spec-format reference.  ``repro-netclone scenarios``
lists it; ``repro-netclone run-scenario <name>`` runs one entry through
:func:`repro.scenarios.runner.run_scenario` with the invariant library
enforced.

The first three entries are pinned to the drill constants (timings,
rates, seeds, report windows): the drill script runs *these* specs, so
its output is byte-identical to the historical hand-rolled version.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.errors import ExperimentError
from repro.scenarios.spec import Scenario
from repro.sim.units import ms

__all__ = [
    "CATALOG_SPECS",
    "catalog",
    "catalog_names",
    "describe_catalog",
    "get_scenario",
]


def _drill_cluster(**overrides: Any) -> Dict[str, Any]:
    """The drills' shared cluster shape (seed 5, 120 kRPS, no warmup)."""
    cluster: Dict[str, Any] = {
        "scheme": "netclone",
        "rate_rps": 120e3,
        "warmup_ns": 0,
        "drain_ns": ms(20),
        "seed": 5,
    }
    cluster.update(overrides)
    return cluster


#: name -> plain-dict spec (the :meth:`Scenario.from_dict` shape).
CATALOG_SPECS: Dict[str, Dict[str, Any]] = {
    # -- Drill 1: the paper's Figure 16 ToR power cycle ----------------
    "tor-power-cycle": {
        "name": "tor-power-cycle",
        "description": (
            "ToR powered off at 200 ms, back at 280 ms with every "
            "register wiped (soft state only): throughput gap, clean "
            "recovery, no duplicate deliveries"
        ),
        "cluster": _drill_cluster(measure_ns=ms(600)),
        "report_window_ns": ms(20),
        "events": [
            {
                "at_ns": ms(200),
                "action": "wipe_switch",
                "down_ns": ms(80),
                "reinit_ns": ms(60),
            },
        ],
    },
    # -- Drill 2: spine withdraw -> fail -> restore --------------------
    "spine-flap": {
        "name": "spine-flap",
        "description": (
            "spine 0 withdrawn (hitless) at 150 ms, powered off at "
            "250 ms, restored at 350 ms: traffic drains onto the "
            "sibling spine within one window and spreads back"
        ),
        "cluster": _drill_cluster(
            topology="spine_leaf",
            topology_params={"racks": 2, "spines": 2},
            measure_ns=ms(500),
        ),
        "events": [
            {"at_ns": ms(150), "action": "withdraw_spine", "spine": 0},
            {"at_ns": ms(250), "action": "fail_spine", "spine": 0},
            {"at_ns": ms(350), "action": "restore_spine", "spine": 0,
             "reinit_ns": ms(10)},
        ],
    },
    # -- Drill 3: server fail -> placement-aware rebuild -> restore ----
    "server-fail-restore": {
        "name": "server-fail-restore",
        "description": (
            "server 0 powered off + control-plane removed at 150 ms, "
            "restored at 300 ms under rack-local placement: every "
            "rebuild keeps clones in-rack, trunks stay silent"
        ),
        "cluster": _drill_cluster(
            topology="spine_leaf",
            topology_params={"racks": 2, "spines": 2},
            placement="rack-local",
            num_servers=6,
            measure_ns=ms(450),
        ),
        "events": [
            {"at_ns": ms(150), "action": "kill_server", "server": 0},
            {"at_ns": ms(300), "action": "restore_server", "server": 0},
        ],
    },
    # -- Compound: rolling spine maintenance ---------------------------
    "rolling-spine-maintenance": {
        "name": "rolling-spine-maintenance",
        "description": (
            "three spines withdrawn and restored one after another "
            "(hitless rolling upgrade): throughput holds and no "
            "request is ever stuck or duplicated"
        ),
        "cluster": _drill_cluster(
            topology="spine_leaf",
            topology_params={"racks": 2, "spines": 3},
            measure_ns=ms(450),
            seed=7,
        ),
        "events": [
            {"at_ns": ms(100), "action": "withdraw_spine", "spine": 0},
            {"at_ns": ms(180), "action": "restore_spine", "spine": 0,
             "reinit_ns": ms(5)},
            {"at_ns": ms(200), "action": "withdraw_spine", "spine": 1},
            {"at_ns": ms(280), "action": "restore_spine", "spine": 1,
             "reinit_ns": ms(5)},
            {"at_ns": ms(300), "action": "withdraw_spine", "spine": 2},
            {"at_ns": ms(380), "action": "restore_spine", "spine": 2,
             "reinit_ns": ms(5)},
        ],
    },
    # -- Compound: cascading server failures across racks --------------
    "cascading-server-failures": {
        "name": "cascading-server-failures",
        "description": (
            "two servers in different racks die 40 ms apart and come "
            "back staggered; every rack keeps >= 3 live servers, so "
            "rack-local placement must keep the trunks silent "
            "throughout the cascade"
        ),
        "cluster": _drill_cluster(
            topology="spine_leaf",
            topology_params={"racks": 2, "spines": 2},
            placement="rack-local",
            num_servers=8,
            measure_ns=ms(450),
            seed=11,
        ),
        "events": [
            {"at_ns": ms(120), "action": "kill_server", "server": 0},
            {"at_ns": ms(160), "action": "kill_server", "server": 3},
            {"at_ns": ms(260), "action": "restore_server", "server": 0},
            {"at_ns": ms(300), "action": "restore_server", "server": 3},
        ],
    },
    # -- Compound: a second kill racing the first rebuild --------------
    "kill-during-rebuild": {
        "name": "kill-during-rebuild",
        "description": (
            "servers 0 and 2 (same rack) die 0.4 ms apart — inside the "
            "1 ms control-plane latency, so the second removal races "
            "the first rebuild; the rack legally falls back to global "
            "pairs until both restores land, then a rolling table push "
            "re-asserts the final epoch"
        ),
        "cluster": _drill_cluster(
            topology="spine_leaf",
            topology_params={"racks": 2, "spines": 2},
            placement="rack-local",
            num_servers=6,
            measure_ns=ms(450),
            seed=13,
        ),
        "events": [
            {"at_ns": ms(150), "action": "kill_server", "server": 0},
            {"at_ns": ms(150.4), "action": "kill_server", "server": 2},
            {"at_ns": ms(280), "action": "restore_server", "server": 2},
            {"at_ns": ms(300), "action": "restore_server", "server": 0},
            {"at_ns": ms(360), "action": "push_tables"},
        ],
    },
    # -- Compound: load surge riding through a table push --------------
    "load-surge": {
        "name": "load-surge",
        "description": (
            "every client's offered rate triples for 100 ms while a "
            "rolling table push lands mid-surge: pre-drawn arrivals "
            "are flushed twice and the epoch swap stays atomic under "
            "pressure"
        ),
        "cluster": _drill_cluster(
            rate_rps=100e3,
            measure_ns=ms(400),
            seed=17,
        ),
        "events": [
            {"at_ns": ms(150), "action": "load_surge", "factor": 3.0,
             "duration_ns": ms(100)},
            {"at_ns": ms(200), "action": "push_tables"},
        ],
    },
    # -- Compound: whole-rack drain and restore ------------------------
    "rack-drain": {
        "name": "rack-drain",
        "description": (
            "rack 1 hitlessly drained at 150 ms (servers stay powered, "
            "steering stops) and restored at 300 ms: no drops, no "
            "stuck requests, epochs move forward only"
        ),
        "cluster": _drill_cluster(
            topology="spine_leaf",
            topology_params={"racks": 2, "spines": 2},
            num_servers=6,
            measure_ns=ms(450),
            seed=19,
        ),
        "events": [
            {"at_ns": ms(150), "action": "drain_rack", "rack": 1},
            {"at_ns": ms(300), "action": "restore_rack", "rack": 1},
        ],
    },
}


def catalog_names() -> Tuple[str, ...]:
    """Catalog entries in definition order (drills first)."""
    return tuple(CATALOG_SPECS)


def get_scenario(name: str) -> Scenario:
    """Build (and validate) one catalog scenario by name."""
    spec = CATALOG_SPECS.get(name)
    if spec is None:
        known = ", ".join(catalog_names())
        raise ExperimentError(f"unknown scenario {name!r}; known: {known}")
    return Scenario.from_dict(spec)


def catalog() -> List[Scenario]:
    """Every catalog scenario, built and validated."""
    return [get_scenario(name) for name in catalog_names()]


def describe_catalog() -> List[str]:
    """``name — description`` lines for the CLI listing."""
    lines = []
    for name, spec in CATALOG_SPECS.items():
        description = " ".join(str(spec.get("description", "")).split())
        lines.append(f"{name} — {description}")
    return lines
