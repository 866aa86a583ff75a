"""Declared input fields: the one path from a user value to a typed one.

Every user-supplied value (a scenario's ``[cluster]`` keys and event
parameters, a ``ClusterConfig`` keyword, an inline ``name:key=val``
plugin parameter, a CLI flag) passes one of the coercers below.  Each
input site declares a table ``{key: (coercer, default)}`` and applies
it with :func:`coerce_fields`.  A coercer returns the typed value or
raises :class:`~repro.errors.ExperimentError` naming the field: a bool
never passes as a number, a fractional or non-finite value never as an
int (``1500000.0`` is 1500000), and a valid number comes back as given.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from typing import Any, Callable, Iterable, Optional, Tuple

from repro.errors import ExperimentError

__all__ = ["Fields", "REQUIRED", "coerce_fields", "count", "finite_float"]
__all__ += ["fraction", "mapping", "name", "ns", "parse_text"]

#: ``coercer(value, label) -> value``.
Coercer = Callable[[Any, str], Any]
#: A declared table: ``{key: (coercer, default)}``.
Fields = Mapping[str, Tuple[Coercer, Any]]
#: The default of a key that must be given.
REQUIRED: Any = object()


def _as_int(value: Any) -> Optional[int]:
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value if isinstance(value, int) and not isinstance(value, bool) else None


def _as_finite(value: Any) -> Optional[float]:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        return value if math.isfinite(value) else None
    except OverflowError:  # an int beyond the float range
        return None


def _coercer(what: str, convert: Callable, gt=None, ge=None, lt=None, le=None) -> Coercer:
    """Values *convert* accepts, within the given bounds."""
    lo, lo_open = (gt, True) if gt is not None else (ge, False)
    hi, hi_open = (lt, True) if lt is not None else (le, False)
    if lo is not None and hi is not None:
        bound = f"in {'(' if lo_open else '['}{lo:g}, {hi:g}{')' if hi_open else ']'}"
    elif lo == 0:
        bound = "positive" if lo_open else "non-negative"
    elif lo is not None:
        bound = f"{'>' if lo_open else '>='} {lo:g}"
    else:
        bound = f"{'<' if hi_open else '<='} {hi:g}" if hi is not None else ""

    def coerce(value: Any, label: str) -> Any:
        typed = convert(value)
        if typed is None:
            raise ExperimentError(f"{label}={value!r} is not {what}")
        if (lo is not None and (typed <= lo if lo_open else typed < lo)) or (
            hi is not None and (typed >= hi if hi_open else typed > hi)
        ):
            raise ExperimentError(f"{label} must be {bound}, not {value!r}")
        return typed

    return coerce


def count(**bounds: float) -> Coercer:
    """An int (an index, a pool size, a seed) within ``gt``/``ge``/``lt``/``le``."""
    return _coercer("an int", _as_int, **bounds)


def ns(**bounds: float) -> Coercer:
    """An int count of nanoseconds: :func:`count` with ``ge=0`` by default."""
    return _coercer("an int", _as_int, **{"ge": 0, **bounds})


def finite_float(**bounds: float) -> Coercer:
    """A finite real number (an int stays an int)."""
    return _coercer("a finite number", _as_finite, **bounds)


def fraction(**bounds: float) -> Coercer:
    """A share: :func:`finite_float` within ``[0, 1]`` by default."""
    return _coercer("a finite number", _as_finite, **{"ge": 0, "le": 1, **bounds})


def name(choices: Iterable[str] = (), *, empty: bool = False) -> Coercer:
    """A string: non-empty unless *empty*, one of *choices* if given."""
    allowed = tuple(choices)

    def coerce(value: Any, label: str) -> str:
        if not isinstance(value, str) or not (empty or value.strip()):
            what = "a string" if empty else "a non-empty name"
            raise ExperimentError(f"{label}={value!r} is not {what}")
        if allowed and value not in allowed:
            raise ExperimentError(f"{label}={value!r} must be one of {', '.join(allowed)}")
        return value

    return coerce


def mapping(value: Any, label: str) -> dict:
    """A table of keyed values (a ``[cluster]`` section, plugin params), copied."""
    if not isinstance(value, Mapping):
        raise ExperimentError(f"{label}={value!r} is not a table")
    return dict(value)


def parse_text(value: Any) -> Any:
    """Command-line text as the number it spells (``"4"``, ``"2.5e9"``,
    ``"nan"``); anything else unchanged."""
    if isinstance(value, str):
        for cast in (int, float):
            try:
                return cast(value)
            except ValueError:
                continue
    return value


def coerce_fields(raw: Any, table: Fields, owner: str, noun: str = "parameter") -> dict:
    """*raw* through the declared *table*: every key, coerced, in table order.

    Unknown keys raise, a missing key takes its default (a
    :data:`REQUIRED` one raises), and each value passes its coercer
    labelled ``"<owner>: <key>"``.
    """
    if not isinstance(raw, Mapping):
        raise ExperimentError(f"{owner} must be a table of {noun}s, not {type(raw).__name__}")
    unknown = [key for key in raw if key not in table]
    if unknown:
        raise ExperimentError(
            f"unknown {owner} {noun}(s) {', '.join(sorted(map(repr, unknown)))}; "
            f"known: {', '.join(table) or '(none)'}"
        )
    values = {}
    for key, (coerce, default) in table.items():
        value = raw.get(key, default)
        if value is REQUIRED:
            raise ExperimentError(f"{owner}: missing required {noun} {key!r}")
        values[key] = coerce(value, f"{owner}: {key}")
    return values
