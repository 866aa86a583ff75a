"""IPv4 address helpers.

Addresses travel through the simulator as plain integers (cheap to
hash, compare and copy); these helpers convert between the integer
form and the usual dotted-quad text form.
"""

from __future__ import annotations

from repro.errors import AddressError

__all__ = ["format_ip", "ip_to_int"]

_IP_MAX = (1 << 32) - 1


def ip_to_int(text: str) -> int:
    """Parse dotted-quad *text* (e.g. ``"10.0.1.101"``) to an integer."""
    parts = text.split(".")
    if len(parts) != 4:
        raise AddressError(f"malformed IPv4 address {text!r}")
    value = 0
    for part in parts:
        try:
            octet = int(part, 10)
        except ValueError as exc:
            raise AddressError(f"malformed IPv4 address {text!r}") from exc
        if not 0 <= octet <= 255:
            raise AddressError(f"IPv4 octet out of range in {text!r}")
        value = (value << 8) | octet
    return value


def format_ip(value: int) -> str:
    """Format integer *value* as a dotted quad."""
    if not 0 <= value <= _IP_MAX:
        raise AddressError(f"IPv4 value out of range: {value!r}")
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))
