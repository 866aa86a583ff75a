"""The ``PluginRegistry`` contract, checked on every registry instance.

Schemes, topologies, placements, workloads, spine policies, figure
harnesses and detlint rules all live on one
:class:`~repro.experiments.plugin_registry.PluginRegistry` class, and
callers use the instances directly.  Each test here runs
once per instance with a throwaway spec, so an axis cannot drift from
the shared behaviour: aliases, duplicate rejection, unknown-name
errors, the register/unregister round trip, the listing lines, and
(for the four plugin axes) the inline ``name:key=val`` syntax, and
(for the three with parameters) the declared-table resolution.
"""

import pytest

from repro.analysis import RULES
from repro.coerce import count, name
from repro.errors import ExperimentError
from repro.experiments.placements import PLACEMENTS
from repro.experiments.registry import EXPERIMENTS
from repro.experiments.schemes import SCHEMES
from repro.experiments.topologies import SPINE_POLICIES, TOPOLOGIES
from repro.experiments.workloads_registry import WORKLOADS

REGISTRIES = {
    "scheme": SCHEMES,
    "topology": TOPOLOGIES,
    "placement": PLACEMENTS,
    "workload": WORKLOADS,
    "spine_policy": SPINE_POLICIES,
    "experiment": EXPERIMENTS,
    "rule": RULES,
}
AXES = ("scheme", "topology", "placement", "workload")

NAME = "contract-test-entry"


def _factory(*args):
    raise AssertionError("contract specs are never built")


def make_spec(registry, name=NAME, aliases=(), description="contract test"):
    # An experiment spec holds two callables: its collect and its render.
    callables = {registry.factory_field: _factory}
    if registry is EXPERIMENTS:
        callables["collect"] = _factory
    return registry.spec_type(
        name=name, description=description, aliases=aliases, **callables
    )


def _scoped(registry):
    """Yield *registry*, then unregister whatever the test added."""
    before = set(registry.names())
    yield registry
    for name in set(registry.names()) - before:
        registry.unregister(name)


@pytest.fixture(params=sorted(REGISTRIES))
def registry(request):
    yield from _scoped(REGISTRIES[request.param])


@pytest.fixture(params=AXES)
def axis(request):
    yield from _scoped(REGISTRIES[request.param])


def test_alias_resolves_to_the_canonical_name(registry):
    spec = make_spec(registry, aliases=("contract-alias",))
    registry.register(spec)
    assert registry.get("contract-alias") is spec
    assert registry.get("contract-alias").name == NAME
    assert "contract-alias" not in registry.names()


def test_duplicate_name_or_alias_is_rejected(registry):
    registry.register(make_spec(registry, aliases=("contract-alias",)))
    taken = (
        make_spec(registry),  # same name
        make_spec(registry, name="contract-other", aliases=(NAME,)),
        make_spec(registry, name="contract-alias"),
        make_spec(registry, name="contract-other", aliases=("contract-alias",)),
    )
    for spec in taken:
        with pytest.raises(ExperimentError, match="already registered"):
            registry.register(spec)
    # A rejected spec leaves nothing behind.
    assert "contract-other" not in registry.names()
    with pytest.raises(ExperimentError):
        registry.get("contract-other")


def test_unknown_name_error_lists_the_registered_names(registry):
    with pytest.raises(ExperimentError) as excinfo:
        registry.get("no-such-entry")
    message = str(excinfo.value)
    assert f"unknown {registry.kind} 'no-such-entry'" in message
    for name in registry.names():
        assert repr(name) in message


def test_register_unregister_round_trip(registry):
    before = registry.names()
    spec = make_spec(registry, aliases=("contract-alias",))
    assert registry.register(spec) is spec
    assert registry.names() == before + (NAME,)
    assert registry.specs()[-1] is spec
    # The module is taken from the factory and ships to sweep workers.
    assert spec.module == __name__
    assert __name__ in registry.registered_modules()
    registry.unregister(NAME)
    assert registry.names() == before
    assert __name__ not in registry.registered_modules()
    for key in (NAME, "contract-alias"):
        with pytest.raises(ExperimentError):
            registry.get(key)
    with pytest.raises(ExperimentError, match="cannot unregister unknown"):
        registry.unregister(NAME)


def test_decorator_form_registers_the_returned_spec(registry):
    @registry.register
    def _contract_spec():
        return make_spec(registry)

    assert registry.get(NAME).name == NAME
    assert registry.get(NAME).module == __name__


def test_register_rejects_non_spec_factory(registry):
    with pytest.raises(ExperimentError, match=registry.spec_type.__name__):
        registry.register(lambda: 42)


def test_describe_lines(registry):
    registry.register(
        make_spec(registry, aliases=("contract-a", "contract-b"), description="one")
    )
    registry.register(make_spec(registry, name="contract-plain", description="two"))
    lines = registry.describe()
    assert len(lines) == len(registry.names())
    assert lines[-2:] == [
        f"{NAME} (aka contract-a, contract-b) — one",
        "contract-plain — two",
    ]


def test_parse_and_canonical_round_trip(axis):
    axis.register(make_spec(axis, aliases=("contract-alias",)))
    value = "contract-alias:zeta=2.5,alpha=3,mode=fast"
    parsed, params = axis.parse(value)
    assert (parsed, params) == (NAME, {"zeta": "2.5", "alpha": "3", "mode": "fast"})
    canonical = axis.canonical(value)
    assert canonical == f"{NAME}:alpha=3,mode=fast,zeta=2.5"
    assert axis.parse(canonical) == (parsed, params)
    assert axis.canonical(canonical) == canonical
    assert axis.parse("contract-alias") == (NAME, {})
    with pytest.raises(ExperimentError, match=f"malformed {axis.kind} parameter"):
        axis.parse("contract-alias:alpha")
    with pytest.raises(ExperimentError, match=f"unknown {axis.kind}"):
        axis.parse("no-such-entry:alpha=1")


@pytest.mark.parametrize("kind", ["topology", "placement", "workload"])
def test_resolve_applies_the_declared_params_table(kind):
    registry = REGISTRIES[kind]
    for _ in _scoped(registry):
        registry.register(
            registry.spec_type(
                name=NAME,
                description="contract test",
                aliases=("contract-alias",),
                params={"alpha": (count(ge=0), 1), "beta": (name(), "b")},
                **{registry.factory_field: _factory},
            )
        )
        assert registry.resolve("contract-alias") == (NAME, {"alpha": 1, "beta": "b"})
        # Inline text is typed, and wins over the params mapping.
        assert registry.resolve("contract-alias:alpha=3", {"alpha": 2, "beta": "c"}) == (
            NAME,
            {"alpha": 3, "beta": "c"},
        )
        with pytest.raises(ExperimentError) as excinfo:
            registry.resolve(NAME, {"zeta": 1, "eta": 2, "alpha": 3})
        assert str(excinfo.value) == (
            f"unknown {NAME} {kind} parameter(s) 'eta', 'zeta'; known: alpha, beta"
        )
        with pytest.raises(ExperimentError) as excinfo:
            registry.resolve(f"{NAME}:alpha=2.5")
        assert str(excinfo.value) == f"{NAME} {kind}: alpha=2.5 is not an int"
