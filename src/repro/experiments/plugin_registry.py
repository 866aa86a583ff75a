"""The one plugin-registry class behind every plugin axis.

Schemes (``SCHEMES``), topologies (``TOPOLOGIES``), spine policies
(``SPINE_POLICIES``), placements (``PLACEMENTS``), workloads
(``WORKLOADS``), figure harnesses (``EXPERIMENTS``) and detlint rules
(``RULES``) are each one :class:`PluginRegistry` instance, exported by
its axis module and called directly: register a declarative spec
(``@SCHEMES.register`` or a direct call), look it up by canonical
name or alias (``SCHEMES.get(name)``), parse and canonicalise the
``"name:key=val,..."`` inline form (``TOPOLOGIES.parse(value)``,
``PLACEMENTS.canonical(value)``), resolve a name and its parameters
through the spec's declared ``params`` table
(``PLACEMENTS.resolve(value, params)``, see :mod:`repro.coerce`), list
and describe what is registered, and lazily
import plugin modules so self-registering specs become visible
without the core importing them eagerly (``RULES`` and
``EXPERIMENTS`` load that way).  An axis module holds only its spec
dataclass and its built-in factories.
"""

from __future__ import annotations

import importlib
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.coerce import coerce_fields, parse_text
from repro.errors import ExperimentError

__all__ = ["PluginRegistry", "format_plugin_params", "parse_plugin_params"]


def parse_plugin_params(value: str, kind: str) -> Tuple[str, Dict[str, Any]]:
    """Split ``"name:key=val,key=val"`` into (name, params).

    The syntax half of :meth:`PluginRegistry.parse`: the bare form
    yields an empty param dict, values stay text (the spec's declared
    table types them in :meth:`PluginRegistry.resolve`), and malformed
    items raise :class:`~repro.errors.ExperimentError` naming the
    *kind* — the registry then resolves the name (so typos raise there,
    listing the registered names).
    """
    name, sep, rest = str(value).partition(":")
    params: Dict[str, Any] = {}
    if sep:
        for item in rest.split(","):
            item = item.strip()
            if not item:
                continue
            key, eq, raw = item.partition("=")
            if not eq or not key.strip() or not raw.strip():
                raise ExperimentError(
                    f"malformed {kind} parameter {item!r} in {value!r} "
                    "(expected key=value)"
                )
            params[key.strip()] = raw.strip()
    return name, params


def format_plugin_params(name: str, params: Dict[str, Any]) -> str:
    """The inverse of :func:`parse_plugin_params` (stable param order)."""
    if not params:
        return name
    return name + ":" + ",".join(f"{k}={v}" for k, v in sorted(params.items()))


class PluginRegistry:
    """Name → spec registry with aliases and lazy plugin imports.

    :param kind: noun used in error/log messages (``"scheme"``).
    :param spec_type: the spec dataclass; specs must expose ``name``,
        ``aliases``, ``description`` and a mutable ``module`` field.
    :param factory_field: spec attribute whose ``__module__`` seeds
        ``spec.module`` when nothing better is known.
    :param plugin_modules: plugin module names imported on first
        lookup (default: none).  A list is shared, not copied — callers
        may append to it at any time; not-yet-imported entries load on
        the next lookup.
    """

    def __init__(
        self,
        kind: str,
        spec_type: type,
        factory_field: str,
        plugin_modules: Sequence[str] = (),
    ):
        self.kind = kind
        self.spec_type = spec_type
        self.plugin_modules = plugin_modules
        self.factory_field = factory_field
        self._registry: Dict[str, Any] = {}
        self._aliases: Dict[str, str] = {}
        self._loaded_plugins: set = set()

    # ------------------------------------------------------------------
    def register(self, spec_or_factory):
        """Register a spec; usable as a decorator or called directly."""
        if isinstance(spec_or_factory, self.spec_type):
            spec = spec_or_factory
        else:
            spec = spec_or_factory()
            if not isinstance(spec, self.spec_type):
                raise ExperimentError(
                    f"{self.kind} factory returned "
                    f"{type(spec).__name__}, expected a {self.spec_type.__name__}"
                )
            if spec.module is None:
                spec.module = getattr(spec_or_factory, "__module__", None)
        if spec.module is None:
            factory = getattr(spec, self.factory_field)
            spec.module = getattr(factory, "__module__", None)
        taken = set(self._registry) | set(self._aliases)
        for key in (spec.name, *spec.aliases):
            if key in taken:
                raise ExperimentError(
                    f"{self.kind} name {key!r} is already registered"
                )
        self._registry[spec.name] = spec
        for alias in spec.aliases:
            self._aliases[alias] = spec.name
        return spec_or_factory

    def unregister(self, name: str) -> None:
        """Remove a spec (and its aliases); mainly for tests."""
        spec = self._registry.pop(name, None)
        if spec is None:
            raise ExperimentError(
                f"cannot unregister unknown {self.kind} {name!r}"
            )
        for alias in spec.aliases:
            self._aliases.pop(alias, None)

    def get(self, name: str):
        """The spec registered under *name* (aliases resolve)."""
        self._ensure_plugins()
        canonical = self._aliases.get(name, name)
        spec = self._registry.get(canonical)
        if spec is None:
            raise ExperimentError(
                f"unknown {self.kind} {name!r}; choose one of {self.names()}"
            )
        return spec

    def parse(self, value: str) -> Tuple[str, Dict[str, Any]]:
        """Split ``"name:key=val,key=val"`` into (canonical name, params).

        The bare form (``"spine_leaf"``, or any alias) yields an empty
        param dict and values stay text, so ``"weighted:p=0.7"`` parses
        to ``("rack-weighted", {"p": "0.7"})``.  Unknown names and
        malformed params raise
        :class:`~repro.errors.ExperimentError`.
        """
        name, params = parse_plugin_params(value, self.kind)
        return self.get(name).name, params

    def canonical(self, value: str) -> str:
        """*value* with the name de-aliased and params in canonical order.

        Validates as a side effect: unknown names and malformed params
        raise.  Used by the CLI and panel-keyed harnesses so one
        spelling of ``"spine_leaf:spines=4,..."`` exists everywhere.
        """
        return format_plugin_params(*self.parse(value))

    def resolve(
        self, value: str, params: Optional[Dict[str, Any]] = None
    ) -> Tuple[str, Dict[str, Any]]:
        """(canonical name, every declared param, typed) for *value*.

        *value*'s inline params (text read as numbers) merge over
        *params* (inline wins) and go through the spec's ``params``
        table (:func:`~repro.coerce.coerce_fields`): a typoed key or a
        bad value raises.
        """
        name, inline = parse_plugin_params(value, self.kind)
        spec = self.get(name)
        merged = {**(params or {}), **{k: parse_text(v) for k, v in inline.items()}}
        return spec.name, coerce_fields(merged, spec.params, f"{spec.name} {self.kind}")

    def names(self) -> Tuple[str, ...]:
        """Canonical names, in registration order."""
        self._ensure_plugins()
        return tuple(self._registry)

    def specs(self) -> List[Any]:
        """Every registered spec, in registration order."""
        self._ensure_plugins()
        return list(self._registry.values())

    def describe(self) -> List[str]:
        """``name — description`` lines (aliases in parentheses)."""
        lines = []
        for spec in self.specs():
            alias_note = (
                f" (aka {', '.join(spec.aliases)})" if spec.aliases else ""
            )
            lines.append(f"{spec.name}{alias_note} — {spec.description}")
        return lines

    def registered_modules(self) -> Tuple[str, ...]:
        """Modules that registered specs (for sweep worker re-imports)."""
        self._ensure_plugins()
        modules = {
            spec.module for spec in self._registry.values() if spec.module
        }
        return tuple(sorted(modules))

    # ------------------------------------------------------------------
    def _ensure_plugins(self) -> None:
        """Import each plugin module once so its registrations run.

        Modules are tracked individually (not a one-shot flag), so
        entries appended to the shared plugin-module list after the
        first lookup still load on the next one.  Every plugin module
        ships in the tree, so an import failure is a bug, not a user
        error: it propagates, and the module stays unloaded, so the
        next lookup retries it.
        """
        for module in list(self.plugin_modules):
            if module not in self._loaded_plugins:
                importlib.import_module(module)
                self._loaded_plugins.add(module)
