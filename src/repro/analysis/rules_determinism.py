"""Determinism rules: hazards that break bit-identical reproduction.

Four rules, all rooted in the project's RNG discipline (every draw
comes from a named :class:`~repro.sim.rng.RngRegistry` stream) and its
simulated clock (time is ``sim.now``, never the wall):

* ``unseeded-random`` — module-level ``random.*`` / ``numpy.random.*``
  draws share hidden global state with everything else in the process;
* ``wall-clock`` — ``time.time()``-style reads inside the simulation
  packages leak host time into simulated trajectories;
* ``unordered-iteration`` — iterating a ``set`` (or keying a dict by
  ``id()``) feeds hash/address order into whatever consumes the loop;
* ``env-read`` — ``os.environ`` reads inside functions of the
  simulation packages make per-call behaviour depend on ambient state.
"""

from __future__ import annotations

import ast

from repro.analysis.core import RULES, RuleContext, RuleSpec

__all__ = [
    "ENV_READ",
    "UNORDERED_ITERATION",
    "UNSEEDED_RANDOM",
    "WALL_CLOCK",
]

UNSEEDED_RANDOM = "unseeded-random"
WALL_CLOCK = "wall-clock"
UNORDERED_ITERATION = "unordered-iteration"
ENV_READ = "env-read"

#: ``random.Random(seed)`` constructs an owned, seedable stream — the
#: sanctioned escape hatch; everything else on the module is shared
#: global state.  ``SystemRandom`` is deliberately absent: it is
#: unseedable by construction.
_ALLOWED_RANDOM = {"Random"}
#: numpy constructors that produce owned, seeded generators.
_ALLOWED_NP_RANDOM = {
    "default_rng",
    "Generator",
    "SeedSequence",
    "RandomState",
    "PCG64",
    "Philox",
    "MT19937",
    "SFC64",
}
_WALL_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.date.today",
}


class _UnseededRandomChecker:
    def visit_Call(self, node: ast.Call, ctx: RuleContext) -> None:
        dotted = ctx.imports.resolve(node.func)
        if dotted is None:
            return
        if dotted.startswith("random."):
            tail = dotted.partition(".")[2]
            if "." not in tail and tail not in _ALLOWED_RANDOM:
                ctx.report(
                    node,
                    f"module-level {dotted}() draws from the shared global "
                    "stream; draw from a named RngRegistry stream instead",
                )
        elif dotted.startswith("numpy.random."):
            tail = dotted.rpartition(".")[2]
            if tail not in _ALLOWED_NP_RANDOM:
                ctx.report(
                    node,
                    f"module-level {dotted}() draws from numpy's shared "
                    "global stream; use RngRegistry.numpy_stream instead",
                )


class _WallClockChecker:
    def visit_Call(self, node: ast.Call, ctx: RuleContext) -> None:
        if not ctx.in_sim_package():
            return
        dotted = ctx.imports.resolve(node.func)
        if dotted in _WALL_CLOCK_CALLS:
            ctx.report(
                node,
                f"wall-clock read {dotted}() inside {ctx.module}; "
                "simulated components must take time from sim.now",
            )


def _is_set_expression(node: ast.AST) -> bool:
    if isinstance(node, ast.Set) or isinstance(node, ast.SetComp):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


def _is_id_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "id"
    )


class _UnorderedIterationChecker:
    _SET_MESSAGE = (
        "iterating a set has hash-seed-dependent order; sort it (or keep "
        "a list/deque) before it can feed scheduling or RNG draws"
    )
    _ID_MESSAGE = (
        "id()-keyed mapping makes ordering depend on object addresses; "
        "key by a stable field (uid, name, index) instead"
    )

    def _check_iter(self, iterable: ast.AST, ctx: RuleContext) -> None:
        if _is_set_expression(iterable):
            ctx.report(iterable, self._SET_MESSAGE)

    def visit_For(self, node: ast.For, ctx: RuleContext) -> None:
        if ctx.in_sim_package():
            self._check_iter(node.iter, ctx)

    def visit_comprehension(self, node: ast.comprehension, ctx: RuleContext) -> None:
        if ctx.in_sim_package():
            self._check_iter(node.iter, ctx)

    def visit_Subscript(self, node: ast.Subscript, ctx: RuleContext) -> None:
        if ctx.in_sim_package() and _is_id_call(node.slice):
            ctx.report(node, self._ID_MESSAGE)

    def visit_Dict(self, node: ast.Dict, ctx: RuleContext) -> None:
        if not ctx.in_sim_package():
            return
        for key in node.keys:
            if key is not None and _is_id_call(key):
                ctx.report(key, self._ID_MESSAGE)


class _EnvReadChecker:
    def _report(self, node: ast.AST, what: str, ctx: RuleContext) -> None:
        ctx.report(
            node,
            f"{what} inside {ctx.qualname}() makes per-call behaviour "
            "depend on ambient process state; read configuration once at "
            "import or cluster-build time",
        )

    def visit_Call(self, node: ast.Call, ctx: RuleContext) -> None:
        if not ctx.in_sim_package() or ctx.current_function is None:
            return
        dotted = ctx.imports.resolve(node.func)
        if dotted == "os.getenv":
            self._report(node, "os.getenv()", ctx)
        elif dotted == "os.environ.get":
            self._report(node, "os.environ.get()", ctx)

    def visit_Subscript(self, node: ast.Subscript, ctx: RuleContext) -> None:
        if not ctx.in_sim_package() or ctx.current_function is None:
            return
        if ctx.imports.resolve(node.value) == "os.environ":
            self._report(node, "os.environ[...]", ctx)


RULES.register(
    RuleSpec(
        name=UNSEEDED_RANDOM,
        description="module-level random/np.random calls bypass the named "
        "RngRegistry streams every component must draw from",
        make_checker=_UnseededRandomChecker,
        severity="error",
        module=__name__,
    )
)

RULES.register(
    RuleSpec(
        name=WALL_CLOCK,
        description="wall-clock reads (time.time, datetime.now, ...) inside "
        "sim/net/core/scenarios leak host time into simulated trajectories",
        make_checker=_WallClockChecker,
        severity="error",
        module=__name__,
    )
)

RULES.register(
    RuleSpec(
        name=UNORDERED_ITERATION,
        description="set iteration / id()-keyed dicts inside the simulation "
        "packages feed hash or address order into whatever consumes them",
        make_checker=_UnorderedIterationChecker,
        severity="warning",
        module=__name__,
    )
)

RULES.register(
    RuleSpec(
        name=ENV_READ,
        description="os.environ reads inside sim/net/core/scenarios "
        "functions tie per-call behaviour to ambient process state",
        make_checker=_EnvReadChecker,
        severity="warning",
        module=__name__,
    )
)
