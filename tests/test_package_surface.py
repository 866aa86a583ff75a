"""Sanity checks on the public API surface and error hierarchy."""

import importlib
import os
import re
from dataclasses import replace

import pytest

import repro
from repro import errors


PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.apps",
    "repro.baselines",
    "repro.core",
    "repro.experiments",
    "repro.kvstore",
    "repro.metrics",
    "repro.net",
    "repro.sim",
    "repro.switchsim",
    "repro.workloads",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_package_imports_and_exports_resolve(name):
    module = importlib.import_module(name)
    for symbol in getattr(module, "__all__", []):
        assert hasattr(module, symbol), f"{name}.{symbol} missing"


def test_version_is_pep440ish():
    assert repro.__version__.count(".") == 2
    assert all(part.isdigit() for part in repro.__version__.split("."))


def test_every_error_derives_from_repro_error():
    for name in dir(errors):
        obj = getattr(errors, name)
        if isinstance(obj, type) and issubclass(obj, Exception) and obj is not Exception:
            assert issubclass(obj, errors.ReproError), name


def test_error_hierarchy_specifics():
    assert issubclass(errors.StageAccessError, errors.SwitchError)
    assert issubclass(errors.SchedulingError, errors.SimulationError)
    assert issubclass(errors.CodecError, errors.NetworkError)
    # One except clause catches everything the library raises.
    with pytest.raises(errors.ReproError):
        raise errors.TableError("x")


def test_top_level_quickstart_symbols():
    assert repro.Simulator
    assert repro.NetCloneProgram
    assert repro.NetCloneClient
    assert repro.RpcServer
    assert repro.NetCloneHeader


def _readme_block(language):
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        return re.search(rf"```{language}\n(.*?)```", fh.read(), re.S).group(1)


def test_readme_library_example_runs(monkeypatch):
    """The README's ``run_sweep`` example, run as written at tiny scale.

    Only the measurement windows shrink (every ``ClusterConfig`` the
    snippet builds gets sub-10 ms windows) and ``jobs=4`` becomes
    ``jobs=1``; the imports, the config and the call are the README's.
    """
    import repro.experiments.common as common
    from repro.sim.units import ms

    snippet = _readme_block("python")
    assert "run_sweep(config," in snippet and "jobs=4" in snippet
    full_size = common.ClusterConfig
    monkeypatch.setattr(
        common,
        "ClusterConfig",
        lambda **kwargs: replace(
            full_size(**kwargs), warmup_ns=ms(1), measure_ns=ms(3), drain_ns=ms(1)
        ),
    )
    namespace = {}
    exec(snippet.replace("jobs=4", "jobs=1"), namespace)
    result = namespace["result"]
    assert result.scheme == "netclone"
    assert len(result.points) == 3
    assert all(point.samples > 0 for point in result.points)


def test_readme_toml_scenario_runs(tmp_path):
    """The README's TOML scenario, loaded from a file and run at scale 0.05."""
    from repro.scenarios import Scenario, run_scenario

    path = tmp_path / "my-drill.toml"
    path.write_text(_readme_block("toml"), encoding="utf-8")
    scenario = Scenario.from_toml_file(path)
    assert scenario.name == "my-drill"
    assert [e.action for e in scenario.events] == ["kill_server", "restore_server"]
    report = run_scenario(scenario, scale=0.05).report
    assert report.passed, report.summary()
