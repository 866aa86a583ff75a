"""Resource rules: acquire-without-release hazard classes.

* ``packet-leak`` — a ``PacketPool.acquire`` result that is neither
  released nor handed off starves the free list and (worse) silently
  shifts every later uid if someone "fixes" it, breaking goldens.

The checker is a deliberately intra-function heuristic: returning,
storing, or passing an acquired packet counts as an ownership hand-off
(the receiver releases it), so the rule only fires when a packet
provably cannot escape the function alive.
"""

from __future__ import annotations

import ast
from typing import List, Optional

from repro.analysis.core import RULES, RuleContext, RuleSpec

__all__ = ["PACKET_LEAK"]

PACKET_LEAK = "packet-leak"


def _receiver_text(node: ast.AST) -> Optional[str]:
    """Dotted source text of an attribute-chain receiver, or ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _own_nodes(fn: ast.AST) -> List[ast.AST]:
    """Every node of *fn*'s body, excluding nested scopes' interiors."""
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


def _contains_name(node: Optional[ast.AST], name: str) -> bool:
    if node is None:
        return False
    return any(
        isinstance(sub, ast.Name) and sub.id == name for sub in ast.walk(node)
    )


class _PacketLeakChecker:
    def visit_FunctionDef(self, node: ast.FunctionDef, ctx: RuleContext) -> None:
        self._check(node, ctx)

    def visit_AsyncFunctionDef(self, node: ast.AST, ctx: RuleContext) -> None:
        self._check(node, ctx)

    # ------------------------------------------------------------------
    def _check(self, fn: ast.AST, ctx: RuleContext) -> None:
        nodes = _own_nodes(fn)
        acquires = []
        for node in nodes:
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "acquire"
            ):
                receiver = _receiver_text(node.func.value)
                if receiver is not None and "pool" in receiver.lower():
                    acquires.append((node, receiver))
        if not acquires:
            return
        qualname = f"{ctx.qualname}.{fn.name}" if ctx.qualname else fn.name
        for call, receiver in acquires:
            parent = ctx.parent(call)
            if isinstance(parent, ast.Expr):
                ctx.report(
                    call,
                    f"{receiver}.acquire(...) result is discarded in "
                    f"{qualname}(); the packet can never be released",
                )
                continue
            if not (
                isinstance(parent, ast.Assign)
                and len(parent.targets) == 1
                and isinstance(parent.targets[0], ast.Name)
            ):
                continue  # returned / passed / stored directly: handed off
            name = parent.targets[0].id
            if not self._escapes(nodes, call, name):
                ctx.report(
                    call,
                    f"packet acquired into {name!r} is neither released nor "
                    f"handed off on any path of {qualname}()",
                )

    @staticmethod
    def _escapes(nodes: List[ast.AST], acquire: ast.Call, name: str) -> bool:
        for node in nodes:
            if isinstance(node, ast.Call) and node is not acquire:
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr == "release"
                    and isinstance(func.value, ast.Name)
                    and func.value.id == name
                ):
                    return True  # explicit release
                for arg in list(node.args) + [kw.value for kw in node.keywords]:
                    if _contains_name(arg, name):
                        return True  # handed to a callee
            elif isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
                if _contains_name(node.value, name):
                    return True  # ownership moves to the caller
            elif isinstance(node, ast.Assign):
                if _contains_name(node.value, name) and not any(
                    isinstance(target, ast.Name) and target.id == name
                    for target in node.targets
                ):
                    return True  # aliased or stored into a structure
        return False


RULES.register(
    RuleSpec(
        name=PACKET_LEAK,
        description="PacketPool.acquire without a release or ownership "
        "hand-off on the enclosing function's exit paths",
        make_checker=_PacketLeakChecker,
        severity="error",
        module=__name__,
    )
)
