"""The detlint AST rule engine.

Every claim this reproduction makes — bit-identical seed goldens,
``jobs=1`` ≡ ``jobs=N`` sweeps, golden-pinned scenario reports — rests
on determinism and resource discipline.  Goldens catch violations
*after* they land; this engine catches the hazard classes we have
actually been bitten by (unseeded global RNG draws, wall-clock reads
inside the simulation, leaked pool packets, un-stamped group tables) at
review time, where they originate.

Rules are plugins on the same :class:`~repro.experiments.
plugin_registry.PluginRegistry` the scheme/topology/placement/workload
axes use: a :class:`RuleSpec` names a checker factory,
``RULES.register`` adds it to :data:`RULES`, modules listed in
:data:`RULE_MODULES` self-register on first lookup, and adding a rule
is a zero-edit drop-in.  One AST walk per file dispatches every
enabled checker with parent and qualified-name tracking
(:class:`RuleContext`), so a new rule costs no extra parse.

Findings can be silenced two ways:

* inline, at the offending line::

      frobnicate()  # detlint: ignore[wall-clock] -- operator display only

  (``# detlint: ignore`` with no rule list silences every rule on the
  line, and ``# detlint: skip-file`` anywhere silences the file);
* via a checked-in **baseline** (:func:`load_baseline` /
  :func:`write_baseline`): legacy findings recorded there are reported
  as baselined and do not fail CI, so a new rule can land before the
  tree is fully clean.
"""

from __future__ import annotations

import ast
import json
import os
import re
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ExperimentError
from repro.experiments.plugin_registry import PluginRegistry

__all__ = [
    "DEFAULT_TARGETS",
    "Finding",
    "ImportMap",
    "RULES",
    "RULE_MODULES",
    "RuleContext",
    "RuleSpec",
    "filter_baselined",
    "format_findings",
    "lint_paths",
    "lint_source",
    "load_baseline",
    "module_for_path",
    "write_baseline",
]

#: Lint targets relative to the repository root: the package tree plus
#: everything that builds clusters outside it (examples, tools).
DEFAULT_TARGETS: Tuple[str, ...] = ("src/repro", "examples", "tools")

#: Modules imported lazily on registry access so self-registering rule
#: families become visible without the engine importing them eagerly.
#: Append at any time; new entries load on the next lookup.
RULE_MODULES: List[str] = [
    "repro.analysis.rules_determinism",
    "repro.analysis.rules_resources",
    "repro.analysis.rules_plugins",
]

#: Packages whose modules count as simulation hot paths for scoped
#: rules (wall-clock reads, env reads, unordered iteration).
SIM_PACKAGES: Tuple[str, ...] = (
    "repro.sim",
    "repro.net",
    "repro.core",
    "repro.scenarios",
)

_SUPPRESS_RE = re.compile(
    r"#\s*detlint:\s*ignore(?:\[(?P<rules>[^\]]*)\])?(?:\s*--\s*(?P<reason>.*))?"
)
_SKIP_FILE_RE = re.compile(r"#\s*detlint:\s*skip-file")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    severity: str
    path: str
    line: int
    col: int
    message: str
    #: Qualified name of the enclosing scope ("" at module level).
    scope: str = ""

    def fingerprint(self) -> Tuple[str, str, str, str]:
        """Line-number-free identity used for baseline matching.

        Lines drift with every edit above a finding; (rule, path,
        scope, message) survives unrelated churn while still retiring
        baseline entries when the flagged code itself changes.
        """
        return (self.rule, self.path, self.scope, self.message)

    def format(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule} [{self.severity}] {self.message}"
        )


@dataclass
class RuleSpec:
    """Declarative description of one lint rule."""

    #: Canonical rule name (what suppressions and baselines reference).
    name: str
    #: One-line description shown by ``detlint --list-rules``.
    description: str
    #: Zero-argument factory returning a fresh checker per file.  A
    #: checker exposes ``visit_<NodeType>(node, ctx)`` methods.
    make_checker: Callable[[], Any]
    #: "error" for certain hazards, "warning" for heuristic smells.
    severity: str = "error"
    #: Alternative lookup names.
    aliases: Tuple[str, ...] = ()
    #: Module that registered the spec (filled in by ``RULES.register``).
    module: Optional[str] = None


#: Every registered lint rule, by canonical name and alias.
RULES = PluginRegistry(
    kind="lint rule",
    spec_type=RuleSpec,
    factory_field="make_checker",
    plugin_modules=RULE_MODULES,
)


# ----------------------------------------------------------------------
# Import resolution shared by rule checkers
# ----------------------------------------------------------------------
class ImportMap:
    """Alias → real dotted-module map built from import statements.

    ``resolve(node)`` turns an attribute chain (``np.random.choice``)
    into its canonical dotted form (``numpy.random.choice``), or
    ``None`` when the chain is not rooted in a tracked import — local
    variables never resolve, so ``rng.random()`` on a seeded stream is
    invisible while ``random.random()`` on the module is not.
    """

    def __init__(self) -> None:
        self._aliases: Dict[str, str] = {}

    def add_import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._aliases[alias.asname or alias.name.partition(".")[0]] = (
                alias.name if alias.asname else alias.name.partition(".")[0]
            )

    def add_import_from(self, node: ast.ImportFrom) -> None:
        if node.level or node.module is None:
            return  # relative imports never name stdlib/numpy modules
        for alias in node.names:
            self._aliases[alias.asname or alias.name] = (
                f"{node.module}.{alias.name}"
            )

    def resolve(self, node: ast.AST) -> Optional[str]:
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self._aliases.get(node.id)
        if root is None:
            return None
        parts.append(root)
        return ".".join(reversed(parts))


# ----------------------------------------------------------------------
# Per-file walk state
# ----------------------------------------------------------------------
class RuleContext:
    """What every checker sees while one file is walked.

    One context is shared by all checkers for a file; the engine keeps
    ``scope_stack`` and ``imports`` current as the walk proceeds, and
    :meth:`report` records findings against the calling checker's rule
    (the engine rebinds ``_active_spec`` before each dispatch).
    """

    def __init__(self, path: str, module: str, lines: Sequence[str]):
        self.path = path
        #: Dotted module path ("repro.sim.core", "examples.quickstart").
        self.module = module
        self.lines = list(lines)
        self.imports = ImportMap()
        #: Enclosing (name, node) scopes, innermost last.
        self.scope_stack: List[Tuple[str, ast.AST]] = []
        self._parents: Dict[int, ast.AST] = {}
        self._active_spec: Optional[RuleSpec] = None
        self.findings: List[Finding] = []

    # -- scope/parent queries ------------------------------------------
    @property
    def qualname(self) -> str:
        """Qualified name of the current scope ("" at module level)."""
        return ".".join(name for name, _ in self.scope_stack)

    @property
    def current_function(self) -> Optional[ast.AST]:
        """The innermost enclosing function def, or ``None``."""
        for _, node in reversed(self.scope_stack):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return node
        return None

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        """The AST parent of *node* (``None`` for the module root)."""
        return self._parents.get(id(node))

    def in_sim_package(self) -> bool:
        """Whether this module lives under a simulation hot-path package."""
        return any(
            self.module == pkg or self.module.startswith(pkg + ".")
            for pkg in SIM_PACKAGES
        )

    # -- reporting ------------------------------------------------------
    def report(self, node: ast.AST, message: str) -> None:
        """Record a finding for the active rule at *node*'s location."""
        spec = self._active_spec
        assert spec is not None, "report() outside a rule dispatch"
        self.findings.append(
            Finding(
                rule=spec.name,
                severity=spec.severity,
                path=self.path,
                line=getattr(node, "lineno", 0),
                col=getattr(node, "col_offset", 0),
                message=message,
                scope=self.qualname,
            )
        )


def _scope_name(node: ast.AST) -> Optional[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return node.name
    if isinstance(node, ast.Lambda):
        return "<lambda>"
    return None


def _walk_file(tree: ast.Module, ctx: RuleContext, specs: Sequence[RuleSpec]) -> None:
    """One pass over *tree*, dispatching every rule's checker."""
    checkers = [(spec, spec.make_checker()) for spec in specs]
    # Parents are resolved up front so checkers that fire on an outer
    # node (e.g. a FunctionDef) can already query its children's.
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            ctx._parents[id(child)] = node
    # (spec, method) per node type, resolved once per file.
    dispatch: Dict[type, List[Tuple[RuleSpec, Callable]]] = {}

    def handlers(node_type: type) -> List[Tuple[RuleSpec, Callable]]:
        cached = dispatch.get(node_type)
        if cached is None:
            cached = []
            for spec, checker in checkers:
                method = getattr(checker, f"visit_{node_type.__name__}", None)
                if method is not None:
                    cached.append((spec, method))
            dispatch[node_type] = cached
        return cached

    def visit(node: ast.AST) -> None:
        if isinstance(node, ast.Import):
            ctx.imports.add_import(node)
        elif isinstance(node, ast.ImportFrom):
            ctx.imports.add_import_from(node)
        for spec, method in handlers(type(node)):
            ctx._active_spec = spec
            method(node, ctx)
        ctx._active_spec = None
        scope = _scope_name(node)
        if scope is not None:
            ctx.scope_stack.append((scope, node))
        for child in ast.iter_child_nodes(node):
            visit(child)
        if scope is not None:
            ctx.scope_stack.pop()

    visit(tree)


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------
def _suppressed_rules(line: str) -> Optional[set]:
    """Rules silenced by *line*'s directive: a set, or ``None`` for all."""
    match = _SUPPRESS_RE.search(line)
    if match is None:
        return set()
    rules = match.group("rules")
    if rules is None:
        return None  # bare ignore: every rule
    return {item.strip() for item in rules.split(",") if item.strip()}


def _apply_suppressions(
    findings: List[Finding], lines: Sequence[str]
) -> List[Finding]:
    if any(_SKIP_FILE_RE.search(line) for line in lines):
        return []
    kept = []
    for finding in findings:
        if 1 <= finding.line <= len(lines):
            silenced = _suppressed_rules(lines[finding.line - 1])
            if silenced is None or finding.rule in silenced:
                continue
        kept.append(finding)
    return kept


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def module_for_path(path: str, root: Optional[str] = None) -> str:
    """Dotted module name for *path* (used for package-scoped rules).

    Files under a ``src/`` directory resolve to their import path
    (``src/repro/sim/core.py`` → ``repro.sim.core``); anything else
    resolves to its root-relative path with dots (``examples/quickstart``).
    """
    rel = os.path.relpath(path, root) if root else path
    rel = rel.replace(os.sep, "/")
    if rel.endswith(".py"):
        rel = rel[: -len(".py")]
    parts = [part for part in rel.split("/") if part not in ("", ".")]
    if "src" in parts:
        parts = parts[parts.index("src") + 1 :]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _selected_specs(rules: Optional[Sequence[str]]) -> List[RuleSpec]:
    if rules is None:
        return RULES.specs()
    return [RULES.get(name) for name in rules]


def lint_source(
    source: str,
    path: str = "<string>",
    module: Optional[str] = None,
    rules: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """Lint one source string (the test-suite and single-file entry).

    *module* is the dotted module path used by package-scoped rules;
    it defaults to :func:`module_for_path` of *path*.  *rules* limits
    the run to the named rules (default: every registered rule).
    """
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        raise ExperimentError(f"cannot lint {path}: {exc}") from None
    lines = source.splitlines()
    ctx = RuleContext(
        path=path,
        module=module if module is not None else module_for_path(path),
        lines=lines,
    )
    _walk_file(tree, ctx, _selected_specs(rules))
    findings = _apply_suppressions(ctx.findings, lines)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def _iter_python_files(target: str) -> Iterable[str]:
    if os.path.isfile(target):
        yield target
        return
    for dirpath, dirnames, filenames in os.walk(target):
        dirnames[:] = sorted(
            name for name in dirnames
            if not name.startswith(".") and name != "__pycache__"
        )
        for name in sorted(filenames):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def lint_paths(
    targets: Optional[Sequence[str]] = None,
    root: Optional[str] = None,
    rules: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """Lint every ``.py`` file under *targets* (default: the full tree).

    *root* anchors both the default targets and the repo-relative paths
    findings carry (default: the current working directory).
    """
    base = root or os.getcwd()
    chosen = list(targets) if targets else [
        os.path.join(base, target) for target in DEFAULT_TARGETS
    ]
    findings: List[Finding] = []
    for target in chosen:
        if not os.path.exists(target):
            raise ExperimentError(f"lint target {target!r} does not exist")
        for filename in _iter_python_files(target):
            with open(filename, "r", encoding="utf-8") as fh:
                source = fh.read()
            rel = os.path.relpath(filename, base).replace(os.sep, "/")
            findings.extend(
                lint_source(
                    source,
                    path=rel,
                    module=module_for_path(filename, base),
                    rules=rules,
                )
            )
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


# ----------------------------------------------------------------------
# Baseline
# ----------------------------------------------------------------------
def load_baseline(path: str) -> List[Tuple[str, str, str, str]]:
    """Fingerprints recorded in the baseline file (missing file: none)."""
    if not os.path.exists(path):
        return []
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or "findings" not in data:
        raise ExperimentError(f"baseline {path!r} is not a detlint baseline")
    return [
        (entry["rule"], entry["path"], entry.get("scope", ""), entry["message"])
        for entry in data["findings"]
    ]


def write_baseline(findings: Sequence[Finding], path: str) -> None:
    """Record *findings* as the accepted legacy set."""
    entries = [
        {
            "rule": finding.rule,
            "path": finding.path,
            "scope": finding.scope,
            "message": finding.message,
        }
        for finding in sorted(findings, key=lambda f: f.fingerprint())
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"version": 1, "findings": entries}, fh, indent=2, sort_keys=True)
        fh.write("\n")


def filter_baselined(
    findings: Sequence[Finding],
    baseline: Sequence[Tuple[str, str, str, str]],
) -> Tuple[List[Finding], int]:
    """Split *findings* into (fresh, baselined-count).

    Matching is multiset-style on :meth:`Finding.fingerprint`: two
    identical legacy findings need two baseline entries, so fixing one
    of a pair still surfaces the survivor.
    """
    budget: Dict[Tuple[str, str, str, str], int] = {}
    for fingerprint in baseline:
        budget[fingerprint] = budget.get(fingerprint, 0) + 1
    fresh: List[Finding] = []
    matched = 0
    for finding in findings:
        fingerprint = finding.fingerprint()
        if budget.get(fingerprint, 0) > 0:
            budget[fingerprint] -= 1
            matched += 1
        else:
            fresh.append(finding)
    return fresh, matched


def format_findings(findings: Sequence[Finding]) -> str:
    """One line per finding, ready to print."""
    return "\n".join(finding.format() for finding in findings)
