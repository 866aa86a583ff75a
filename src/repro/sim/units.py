"""Time-unit helpers.

The whole library measures simulated time in **integer nanoseconds**.
Integers keep the event queue exact (no floating-point tie ambiguity)
and are cheap to compare.  These helpers convert human-friendly values
into that representation.
"""

from __future__ import annotations

#: One nanosecond, the base unit of simulated time.
NANOS = 1
#: Nanoseconds per microsecond.
MICROS = 1_000
#: Nanoseconds per millisecond.
MILLIS = 1_000_000
#: Nanoseconds per second.
SECONDS = 1_000_000_000


def ns(value: float) -> int:
    """Convert *value* nanoseconds to integer nanoseconds."""
    return int(round(value))


def us(value: float) -> int:
    """Convert *value* microseconds to integer nanoseconds."""
    return int(round(value * MICROS))


def ms(value: float) -> int:
    """Convert *value* milliseconds to integer nanoseconds."""
    return int(round(value * MILLIS))


def sec(value: float) -> int:
    """Convert *value* seconds to integer nanoseconds."""
    return int(round(value * SECONDS))
