"""Spec-layer validation: every malformed scenario fails at construction."""

import pytest

from helpers import tiny_scenario

from repro.errors import ExperimentError
from repro.scenarios import (
    EVENT_TYPES,
    Scenario,
    ScenarioEvent,
    event_action_names,
)
from repro.sim.units import ms


def _kill(at_ns=ms(1.5), server=0):
    return {"at_ns": at_ns, "action": "kill_server", "server": server}


# ----------------------------------------------------------------------
# Event validation
# ----------------------------------------------------------------------
def test_unknown_action_rejected():
    with pytest.raises(ExperimentError, match="event: action='explode' must be one of"):
        tiny_scenario(events=[{"at_ns": ms(1), "action": "explode"}])


def test_missing_required_parameter_rejected():
    with pytest.raises(ExperimentError, match="missing required parameter"):
        tiny_scenario(events=[{"at_ns": ms(1), "action": "kill_server"}])


def test_unknown_parameter_rejected():
    with pytest.raises(ExperimentError, match="unknown kill_server parameter"):
        tiny_scenario(events=[_kill() | {"blast_radius": 3}])


def test_non_integer_index_rejected():
    with pytest.raises(ExperimentError, match="server='zero' is not an int"):
        tiny_scenario(
            events=[{"at_ns": ms(1), "action": "kill_server", "server": "zero"}]
        )


def test_precision_losing_float_rejected():
    with pytest.raises(ExperimentError, match="server=0.5 is not an int"):
        tiny_scenario(
            events=[{"at_ns": ms(1), "action": "kill_server", "server": 0.5}]
        )


def test_fractional_event_time_rejected():
    with pytest.raises(ExperimentError, match=r"push_tables: at_ns=1500000.9 is not an int"):
        tiny_scenario(events=[{"at_ns": 1500000.9, "action": "push_tables"}])
    # An integral float is the same time, as for every int parameter.
    (event,) = tiny_scenario(
        events=[{"at_ns": 1500000.0, "action": "push_tables"}]
    ).events
    assert event.time_ns == 1_500_000


@pytest.mark.parametrize("window", ["25ms", 2.5e6 + 0.5, float("inf"), None])
def test_non_integer_report_window_rejected(window):
    with pytest.raises(ExperimentError, match="'tiny': report_window_ns="):
        tiny_scenario(report_window_ns=window)


def test_negative_index_rejected():
    with pytest.raises(ExperimentError, match="non-negative"):
        tiny_scenario(events=[_kill(server=-1)])


def test_event_past_horizon_rejected():
    # tiny_scenario horizon: 1 + 3 + 1 = 5 ms.
    with pytest.raises(ExperimentError, match="past the .* horizon"):
        tiny_scenario(events=[_kill(at_ns=ms(5))])


def test_server_index_out_of_range_rejected():
    with pytest.raises(ExperimentError, match="targets server 7"):
        tiny_scenario(events=[_kill(server=7)])


def test_spine_event_needs_spine_leaf():
    with pytest.raises(ExperimentError, match="needs a spine_leaf fabric"):
        tiny_scenario(
            events=[{"at_ns": ms(1), "action": "withdraw_spine", "spine": 0}]
        )


def test_handler_event_needs_switch_program():
    with pytest.raises(ExperimentError, match="installs no switch program"):
        tiny_scenario(events=[_kill()], cluster={"scheme": "cclone"})


def test_load_surge_semantics():
    with pytest.raises(ExperimentError, match="factor must be positive"):
        tiny_scenario(
            events=[{"at_ns": ms(1), "action": "load_surge", "factor": 0.0,
                     "duration_ns": ms(1)}]
        )
    with pytest.raises(ExperimentError, match="duration_ns must be positive"):
        tiny_scenario(
            events=[{"at_ns": ms(1), "action": "load_surge", "factor": 2.0,
                     "duration_ns": 0}]
        )


def test_wipe_switch_semantics():
    with pytest.raises(ExperimentError, match="down_ns must be positive"):
        tiny_scenario(
            events=[{"at_ns": ms(1), "action": "wipe_switch", "down_ns": 0}]
        )


def test_event_time_forms_are_exclusive():
    # at_ns is the one form of an event time: it is required, and any
    # other time key is an unknown parameter of the action.
    with pytest.raises(ExperimentError, match="missing required parameter 'at_ns'"):
        tiny_scenario(events=[{"action": "push_tables"}])
    with pytest.raises(ExperimentError, match="unknown push_tables parameter"):
        tiny_scenario(
            events=[{"at_ns": ms(1), "at_us": 1000, "action": "push_tables"}]
        )


def test_events_sorted_stably_by_time():
    scenario = tiny_scenario(
        events=[
            {"at_ns": ms(2), "action": "push_tables"},
            {"at_ns": ms(1), "action": "kill_server", "server": 0},
            {"at_ns": ms(1), "action": "restore_server", "server": 0},
        ]
    )
    assert [e.time_ns for e in scenario.events] == [ms(1), ms(1), ms(2)]
    # Same-time events keep their list order (kill before restore).
    assert [e.action for e in scenario.events[:2]] == [
        "kill_server", "restore_server",
    ]


# ----------------------------------------------------------------------
# Scenario-level validation
# ----------------------------------------------------------------------
def test_empty_name_rejected():
    with pytest.raises(ExperimentError, match="non-empty name"):
        tiny_scenario(name="  ")


def test_unknown_scenario_field_rejected():
    with pytest.raises(ExperimentError, match="unknown scenario 'x' field"):
        Scenario.from_dict({"name": "x", "clutser": {}})


def test_config_scale_shrinks_rate_only():
    scenario = tiny_scenario(events=[_kill()])
    full = scenario.config()
    half = scenario.config(scale=0.5)
    assert half.rate_rps == pytest.approx(full.rate_rps * 0.5)
    # The timeline is absolute: horizon and windows never shrink.
    assert half.total_ns == full.total_ns
    assert scenario.config(seed=123).seed == 123
    with pytest.raises(ExperimentError, match="scale must be positive"):
        scenario.config(scale=-1.0)


def test_needs_handler_derived_from_events():
    assert tiny_scenario(events=[_kill()]).needs_handler
    assert not tiny_scenario(
        events=[{"at_ns": ms(1), "action": "wipe_switch", "down_ns": ms(1)}]
    ).needs_handler


# ----------------------------------------------------------------------
# Overrides (the sweep axis) and round-trips
# ----------------------------------------------------------------------
def test_with_overrides_revalidates():
    scenario = tiny_scenario(
        events=[{"at_ns": ms(1), "action": "withdraw_spine", "spine": 0}],
        cluster={
            "topology": "spine_leaf",
            "topology_params": {"racks": 2, "spines": 2},
        },
    )
    # Moving a spine scenario onto a star fabric must fail loudly.
    with pytest.raises(ExperimentError, match="needs a spine_leaf fabric"):
        scenario.with_overrides(topology="star")
    # A compatible override keeps events and drops stale fabric params.
    moved = tiny_scenario(events=[_kill()]).with_overrides(
        placement="rack-local"
    )
    assert moved.cluster["placement"] == "rack-local"
    assert [e.action for e in moved.events] == ["kill_server"]


def test_dict_round_trip():
    scenario = tiny_scenario(
        events=[_kill(), {"at_ns": ms(3), "action": "push_tables"}],
        report_window_ns=ms(2),
        description="round trip",
    )
    clone = Scenario.from_dict(scenario.to_dict())
    assert clone.to_dict() == scenario.to_dict()


def test_toml_round_trip(tmp_path):
    path = tmp_path / "toml-spec.toml"
    path.write_text("""
name = "toml-spec"
description = "spec from TOML"

[cluster]
scheme = "netclone"
num_servers = 3
workers_per_server = 4
rate_rps = 2e5
warmup_ns = 1_000_000
measure_ns = 3_000_000
drain_ns = 1_000_000
seed = 7

[[events]]
at_ns = 1_500_000
action = "kill_server"
server = 0

[[events]]
at_ns = 3_000_000
action = "restore_server"
server = 0
""")
    scenario = Scenario.from_toml_file(path)
    assert scenario.name == "toml-spec"
    assert [e.action for e in scenario.events] == [
        "kill_server", "restore_server",
    ]
    assert scenario.events[0].time_ns == 1_500_000
    assert Scenario.from_dict(scenario.to_dict()).to_dict() == scenario.to_dict()


def test_invalid_toml_rejected(tmp_path):
    path = tmp_path / "broken.toml"
    path.write_text("name = [unclosed")
    with pytest.raises(ExperimentError, match="invalid scenario TOML"):
        Scenario.from_toml_file(path)


def test_event_vocabulary_is_documented():
    # Every action carries a description and a param table; the ISSUE's
    # nine-action vocabulary (plus restore_rack) is all present.
    assert set(event_action_names()) == set(EVENT_TYPES) == {
        "kill_server", "restore_server", "withdraw_spine", "fail_spine",
        "restore_spine", "drain_rack", "restore_rack", "load_surge",
        "push_tables", "wipe_switch",
    }
    for etype in EVENT_TYPES.values():
        assert etype.description


def test_scenario_event_param_dict():
    event = ScenarioEvent(ms(1), "kill_server", (("server", 2),))
    assert event.param_dict() == {"server": 2}
    assert event.to_dict() == {
        "at_ns": ms(1), "action": "kill_server", "server": 2,
    }
