"""Plugin/config rules: hazards in the registry and control planes.

* ``spec-lambda`` — ``*Spec(...)`` constructions carrying a lambda
  cannot pickle to sweep worker processes; the failure surfaces later,
  inside the executor, far from the spec that caused it;
* ``epoch-stamp`` — ``install_group_table`` with a table that was
  never ``.with_epoch()``-stamped hides a rebuild: programs and
  clients report the epoch they hold, so an unstamped rebuild that
  keeps the group count looks like "no change".
"""

from __future__ import annotations

import ast
from typing import List, Optional

from repro.analysis.core import RULES, RuleContext, RuleSpec

__all__ = ["EPOCH_STAMP", "SPEC_LAMBDA"]

SPEC_LAMBDA = "spec-lambda"
EPOCH_STAMP = "epoch-stamp"


def _call_name(node: ast.Call) -> Optional[str]:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _own_nodes(fn: ast.AST) -> List[ast.AST]:
    nodes: List[ast.AST] = []
    stack: List[ast.AST] = list(getattr(fn, "body", []))
    while stack:
        node = stack.pop()
        nodes.append(node)
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
        ):
            continue
        stack.extend(ast.iter_child_nodes(node))
    return nodes


class _SpecLambdaChecker:
    def visit_Call(self, node: ast.Call, ctx: RuleContext) -> None:
        name = _call_name(node)
        if name is None or not name.endswith("Spec"):
            return
        for value in list(node.args) + [kw.value for kw in node.keywords]:
            if isinstance(value, ast.Lambda):
                ctx.report(
                    value,
                    f"lambda inside {name}(...) cannot pickle to sweep "
                    "worker processes; use a module-level function",
                )


class _EpochStampChecker:
    def visit_Call(self, node: ast.Call, ctx: RuleContext) -> None:
        if not (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "install_group_table"
            and node.args
        ):
            return
        arg = node.args[0]
        if self._stamped(arg):
            return
        if isinstance(arg, ast.Name) and self._name_ok(arg.id, node, ctx):
            return
        ctx.report(
            node,
            "group table installed without a .with_epoch() stamp; tables "
            "are told apart by epoch, so an unstamped install that keeps "
            "the group count looks like no change",
        )

    @staticmethod
    def _stamped(node: ast.AST) -> bool:
        return any(
            isinstance(sub, ast.Attribute) and sub.attr == "with_epoch"
            for sub in ast.walk(node)
        )

    def _name_ok(self, name: str, call: ast.Call, ctx: RuleContext) -> bool:
        fn = ctx.current_function
        if fn is None:
            return False
        args = fn.args
        if name in {
            arg.arg
            for arg in (
                list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
            )
        }:
            return True  # stamped (or not) by the caller; out of scope here
        for node in _own_nodes(fn):
            if (
                isinstance(node, ast.Assign)
                and any(
                    isinstance(target, ast.Name) and target.id == name
                    for target in node.targets
                )
                and self._stamped(node.value)
            ):
                return True
        return False


RULES.register(
    RuleSpec(
        name=SPEC_LAMBDA,
        description="lambdas inside *Spec(...) constructions break pickling "
        "to sweep worker processes",
        make_checker=_SpecLambdaChecker,
        severity="error",
        module=__name__,
    )
)

RULES.register(
    RuleSpec(
        name=EPOCH_STAMP,
        description="install_group_table calls whose table bypasses "
        "with_epoch stamping (the PR-5 stale-table aliasing hazard)",
        make_checker=_EpochStampChecker,
        severity="error",
        module=__name__,
    )
)
