"""Tests for the IPv4 address helpers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AddressError
from repro.net import format_ip, ip_to_int


def test_ip_roundtrip_known_value():
    assert ip_to_int("10.0.1.101") == (10 << 24) | (1 << 8) | 101
    assert format_ip(ip_to_int("10.0.1.101")) == "10.0.1.101"


@pytest.mark.parametrize("bad", ["10.0.1", "10.0.1.1.1", "256.0.0.1", "a.b.c.d", ""])
def test_ip_malformed_rejected(bad):
    with pytest.raises(AddressError):
        ip_to_int(bad)


def test_format_ip_range_check():
    with pytest.raises(AddressError):
        format_ip(-1)
    with pytest.raises(AddressError):
        format_ip(1 << 32)


@given(st.integers(min_value=0, max_value=(1 << 32) - 1))
@settings(max_examples=100, deadline=None)
def test_property_ip_int_text_roundtrip(value):
    assert ip_to_int(format_ip(value)) == value
