"""The one input plane: declared coercers and the tables that use them.

Every user-supplied value — a scenario's ``[cluster]`` keys, event
parameters, ``at_ns`` and ``report_window_ns``, an inline plugin
parameter, a CLI flag — goes through :mod:`repro.coerce`.  These tests
pin the coercers' rules, check that every config field and event
parameter declares one, and fuzz each entry point: a value either
builds a valid object or ends in ``ExperimentError`` (exit 2 with one
line for the CLI), and no number is silently changed.
"""

import contextlib
import io
import math
import os
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.coerce import (
    REQUIRED,
    coerce_fields,
    count,
    finite_float,
    fraction,
    name,
    ns,
    parse_text,
)
from repro.errors import ExperimentError
from repro.experiments.common import _COERCERS, CLUSTER_FIELDS, ClusterConfig
from repro.experiments.executor import SweepExecutor
from repro.experiments.placements import PLACEMENTS
from repro.experiments.topologies import TOPOLOGIES
from repro.experiments.workloads_registry import WORKLOADS
from repro.scenarios import EVENT_TYPES, Scenario
from repro.sim.units import ms

BAD_SCENARIOS = sorted(
    (Path(__file__).parent / "data" / "bad_scenarios").glob("*.toml")
)

#: Any scalar a TOML file or a Python caller could hand over.
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=12),
)


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _run_cli(argv):
    """``main(argv)`` → (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


# ----------------------------------------------------------------------
# The coercers
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "coercer, value, expected",
    [
        (count(), 3, 3),
        (count(), 3.0, 3),
        (count(), -7, -7),
        (ns(), 1_500_000.0, 1_500_000),
        (ns(gt=0), 1, 1),
        (finite_float(gt=0), 2, 2),
        (finite_float(), 2.5e9, 2.5e9),
        (fraction(), 0, 0),
        (fraction(gt=0, lt=1), 0.5, 0.5),
        (name(), "ecmp", "ecmp"),
        (name(empty=True), "", ""),
        (name(("exact", "sketch")), "sketch", "sketch"),
    ],
)
def test_coercer_accepts_and_keeps_valid_values(coercer, value, expected):
    result = coercer(value, "field")
    assert result == expected and type(result) is type(expected)


@pytest.mark.parametrize(
    "coercer, value, message",
    [
        (count(), True, "field=True is not an int"),
        (count(), 2.5, "field=2.5 is not an int"),
        (count(), math.inf, "field=inf is not an int"),
        (count(), "4", "field='4' is not an int"),
        (count(ge=2), 1, "field must be >= 2, not 1"),
        (ns(), -1, "field must be non-negative, not -1"),
        (ns(gt=0), 0, "field must be positive, not 0"),
        (finite_float(), math.nan, "field=nan is not a finite number"),
        (finite_float(), 10**400, "is not a finite number"),
        (finite_float(), False, "field=False is not a finite number"),
        (finite_float(gt=1), 1.0, "field must be > 1, not 1.0"),
        (fraction(), 1.5, r"field must be in \[0, 1\], not 1.5"),
        (fraction(gt=0, lt=1), 1, r"field must be in \(0, 1\), not 1"),
        (name(), "  ", "field='  ' is not a non-empty name"),
        (name(), 3, "field=3 is not a non-empty name"),
        (name(("exact", "sketch")), "exactly", "must be one of exact, sketch"),
    ],
)
def test_coercer_rejects_naming_the_field(coercer, value, message):
    with pytest.raises(ExperimentError, match=message):
        coercer(value, "field")


def test_coerce_fields_applies_the_table():
    table = {"a": (count(), REQUIRED), "b": (finite_float(), 1.5)}
    assert coerce_fields({"a": 2.0}, table, "thing") == {"a": 2, "b": 1.5}
    with pytest.raises(ExperimentError, match="thing: missing required parameter 'a'"):
        coerce_fields({}, table, "thing")
    with pytest.raises(ExperimentError) as excinfo:
        coerce_fields({"a": 1, "z": 0, 7: 0}, table, "thing", noun="field")
    assert str(excinfo.value) == "unknown thing field(s) 'z', 7; known: a, b"
    with pytest.raises(ExperimentError, match="thing: a='3' is not an int"):
        coerce_fields({"a": "3"}, table, "thing")
    with pytest.raises(ExperimentError, match="thing must be a table"):
        coerce_fields([1], table, "thing")


def test_parse_text_reads_numbers_only():
    assert parse_text("4") == 4 and parse_text("2.5e9") == 2.5e9
    assert math.isnan(parse_text("nan"))
    assert parse_text("least-loaded") == "least-loaded"
    assert parse_text(7) == 7
    # Only the inline form is text: a params mapping keeps its types.
    assert TOPOLOGIES.resolve("spine_leaf:racks=3")[1]["racks"] == 3
    with pytest.raises(ExperimentError, match="racks='3' is not an int"):
        TOPOLOGIES.resolve("spine_leaf", {"racks": "3"})


# ----------------------------------------------------------------------
# Every input is declared
# ----------------------------------------------------------------------
def test_every_cluster_field_and_event_parameter_has_one_coercer():
    names = [f.name for f in fields(ClusterConfig)]
    assert list(_COERCERS) == names
    assert list(CLUSTER_FIELDS) == names
    assert all(callable(CLUSTER_FIELDS[key][0]) for key in names)
    for action, etype in EVENT_TYPES.items():
        for key, entry in etype.params.items():
            assert len(entry) == 2 and callable(entry[0]), (action, key)


# ----------------------------------------------------------------------
# Scenario specs
# ----------------------------------------------------------------------
_CLUSTER = {
    "scheme": "netclone",
    "topology": "spine_leaf",
    "topology_params": {"racks": 2, "spines": 2},
    "num_servers": 4,
    "workers_per_server": 4,
    "rate_rps": 0.2e6,
    "warmup_ns": ms(1),
    "measure_ns": ms(3),
    "drain_ns": ms(1),
    "seed": 7,
}

#: A valid value for every required event parameter.
_REQUIRED_PARAMS = {
    "server": 0,
    "spine": 0,
    "rack": 0,
    "factor": 2.0,
    "duration_ns": ms(1),
    "down_ns": ms(1),
}


def _spec(cluster=None, events=(), **scenario_fields):
    spec = {
        "name": "fuzz",
        "cluster": {**_CLUSTER, **(cluster or {})},
        "events": list(events),
        "report_window_ns": ms(1),
    }
    spec.update(scenario_fields)
    return spec


@settings(max_examples=300, deadline=None)
@given(
    key=st.sampled_from(sorted(set(CLUSTER_FIELDS) - {"workload"})),
    value=SCALARS,
)
def test_cluster_field_values_build_or_raise_experiment_error(key, value):
    try:
        config = Scenario.from_dict(_spec(cluster={key: value})).config()
    except ExperimentError:
        return
    if _is_number(value):
        assert getattr(config, key) == value


@settings(max_examples=300, deadline=None)
@given(
    action=st.sampled_from(sorted(EVENT_TYPES)),
    pick=st.integers(min_value=0),
    value=SCALARS,
)
def test_event_values_build_or_raise_experiment_error(action, pick, value):
    event = {"at_ns": ms(1), "action": action}
    params = EVENT_TYPES[action].params
    event.update(
        {key: _REQUIRED_PARAMS[key] for key, (_, dflt) in params.items() if dflt is REQUIRED}
    )
    keys = ["at_ns", *params]
    key = keys[pick % len(keys)]
    event[key] = value
    try:
        (built,) = Scenario.from_dict(_spec(events=[event])).events
    except ExperimentError:
        return
    if _is_number(value):
        got = built.time_ns if key == "at_ns" else built.param_dict()[key]
        assert got == value


@settings(max_examples=100, deadline=None)
@given(value=SCALARS)
def test_report_window_values_build_or_raise_experiment_error(value):
    try:
        scenario = Scenario.from_dict(_spec(report_window_ns=value))
    except ExperimentError:
        return
    assert scenario.report_window_ns == value


# ----------------------------------------------------------------------
# Inline plugin parameters
# ----------------------------------------------------------------------
_PLUGIN_PARAMS = [
    (registry, spec.name, key)
    for registry in (TOPOLOGIES, PLACEMENTS, WORKLOADS)
    for spec in registry.specs()
    for key in spec.params
]


@settings(max_examples=300, deadline=None)
@given(
    target=st.sampled_from(_PLUGIN_PARAMS),
    text=st.text(max_size=12),
    value=SCALARS,
)
def test_inline_params_resolve_or_raise_experiment_error(target, text, value):
    registry, spec_name, key = target
    try:
        _, params = registry.resolve(f"{spec_name}:{key}={text}")
    except ExperimentError:
        pass
    else:
        if "," not in text:
            expected = parse_text(text.strip())
            if _is_number(expected):
                assert params[key] == expected
    try:
        _, params = registry.resolve(spec_name, {key: value})
    except ExperimentError:
        return
    if _is_number(value):
        assert params[key] == value


# ----------------------------------------------------------------------
# The command line
# ----------------------------------------------------------------------
@settings(max_examples=200, deadline=None)
@given(
    flag=st.sampled_from(
        ["--scale", "--jobs", "--seed", "--topology", "--placement", "--workload"]
    ),
    text=st.text(max_size=12),
)
def test_cli_flag_values_list_or_exit_2_with_one_line(flag, text):
    code, out = _run_cli(["schemes", f"{flag}={text}"])
    assert code in (0, 2)
    if code == 2:
        assert len(out.splitlines()) == 1


@pytest.mark.parametrize(
    "path", BAD_SCENARIOS, ids=[path.stem for path in BAD_SCENARIOS]
)
def test_malformed_scenario_file_exits_2_naming_the_field(path):
    code, out = _run_cli(["run-scenario", str(path)])
    assert code == 2
    (line,) = out.splitlines()
    field = "num_server" if path.stem == "unknown_key" else path.stem
    assert f"{field}" in line and "Traceback" not in out


@pytest.mark.parametrize(
    "argv, message",
    [
        (["fig15", "--scale", "nan"], "--scale=nan is not a finite number"),
        (
            ["run-scenario", "load-surge", "--scale", "nan"],
            "--scale=nan is not a finite number",
        ),
        (["fig15", "--jobs", "-3"], "--jobs must be non-negative, not -3"),
        (["fig15", "--seed", "1.5"], "--seed=1.5 is not an int"),
    ],
)
def test_cli_flag_errors_exit_2_with_one_line(argv, message):
    assert _run_cli(argv) == (2, message + "\n")


def test_sweep_executor_jobs():
    assert SweepExecutor(0).jobs == (os.cpu_count() or 1)
    assert SweepExecutor(3).jobs == 3
    with pytest.raises(ExperimentError, match="jobs must be non-negative"):
        SweepExecutor(-3)


def test_cli_scale_is_read_as_a_float(tmp_path):
    # ``--scale 1`` reports as 1.0, as the float the flag always held.
    spec = tmp_path / "tiny.toml"
    spec.write_text(
        'name = "tiny-scale"\n'
        "report_window_ns = 1_000_000\n"
        "[cluster]\n"
        "num_servers = 3\nworkers_per_server = 4\nnum_clients = 2\n"
        "rate_rps = 0.2e6\nwarmup_ns = 1_000_000\nmeasure_ns = 3_000_000\n"
        "drain_ns = 1_000_000\nseed = 7\n"
    )
    reports = tmp_path / "reports"
    argv = ["run-scenario", str(spec), "--scale", "1", "--report-dir", str(reports)]
    assert _run_cli(argv)[0] == 0
    text = (reports / "tiny-scale.json").read_text()
    assert '"scale": 1.0,' in text


# ----------------------------------------------------------------------
# Inline params pinned on a figure's fabric
# ----------------------------------------------------------------------
def test_spine_leaf_params_types_the_pinned_inline_values():
    from repro.experiments.harness import spine_leaf_params

    params = spine_leaf_params(
        "spine_leaf:spines=4,racks=3,trunk_bandwidth_bps=2.5e9", "x", racks=2
    )
    assert params == {"racks": 3, "spines": 4, "trunk_bandwidth_bps": 2.5e9}
    assert type(params["racks"]) is int and type(params["spines"]) is int
    assert spine_leaf_params(None, "x", racks=2, spines=4) == {"racks": 2, "spines": 4}
    with pytest.raises(ExperimentError, match="spines=4.5 is not an int"):
        spine_leaf_params("spine_leaf:spines=4.5", "x")


@pytest.mark.parametrize(
    "argv",
    [
        # The README's fig18 example, and numeric pins on fig18 and fig19.
        ["fig18", "--topology", "spine_leaf:spines=4,spine_policy=least-loaded"],
        ["fig18", "--topology", "spine_leaf:trunk_bandwidth_bps=2.5e9"],
        ["fig19", "--topology", "spine_leaf:racks=3"],
    ],
    ids=["fig18-readme", "fig18-trunk", "fig19-racks"],
)
def test_figures_run_with_numeric_inline_topology_params(argv):
    code, out = _run_cli(argv + ["--scale", "0.02"])
    assert code == 0, out
    assert "shape checks:" in out
