"""Tests for the NetClone header codec and group construction."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MSG_REQ, MSG_RESP, NetCloneHeader, ordered_pairs
from repro.errors import CodecError, ExperimentError


def test_header_wire_size_is_12_bytes():
    header = NetCloneHeader(msg_type=MSG_REQ)
    assert NetCloneHeader.WIRE_SIZE == 12
    assert len(header.pack()) == 12


def test_header_roundtrip_all_fields():
    header = NetCloneHeader(
        msg_type=MSG_RESP,
        req_id=0xDEADBEEF,
        grp=513,
        sid=7,
        state=1,
        clo=2,
        idx=1,
        swid=3,
    )
    assert NetCloneHeader.unpack(header.pack()) == header


def test_header_short_buffer_rejected():
    with pytest.raises(CodecError):
        NetCloneHeader.unpack(b"\x01\x02")


def test_header_field_out_of_range_rejected():
    header = NetCloneHeader(msg_type=MSG_REQ, req_id=1 << 40)
    with pytest.raises(CodecError):
        header.pack()


def test_header_copy_is_independent():
    header = NetCloneHeader(msg_type=MSG_REQ, req_id=5, grp=2)
    clone = header.copy()
    clone.req_id = 9
    clone.clo = 1
    assert header.req_id == 5
    assert header.clo == 0
    assert clone == clone.copy()


def test_header_eq_other_type():
    assert NetCloneHeader(msg_type=MSG_REQ).__eq__(42) is NotImplemented


@given(
    msg_type=st.integers(min_value=0, max_value=255),
    req_id=st.integers(min_value=0, max_value=(1 << 32) - 1),
    grp=st.integers(min_value=0, max_value=(1 << 16) - 1),
    sid=st.integers(min_value=0, max_value=255),
    state=st.integers(min_value=0, max_value=255),
    clo=st.integers(min_value=0, max_value=255),
    idx=st.integers(min_value=0, max_value=255),
    swid=st.integers(min_value=0, max_value=255),
)
@settings(max_examples=200, deadline=None)
def test_property_header_roundtrip(msg_type, req_id, grp, sid, state, clo, idx, swid):
    header = NetCloneHeader(msg_type, req_id, grp, sid, state, clo, idx, swid)
    assert NetCloneHeader.unpack(header.pack()) == header


# ----------------------------------------------------------------------
# Groups
# ----------------------------------------------------------------------
def test_groups_count_is_n_times_n_minus_1():
    for n in (2, 3, 6, 10):
        pairs = ordered_pairs(range(n))
        assert len(pairs) == n * (n - 1)


def test_groups_every_ordered_pair_once():
    pairs = ordered_pairs(range(4))
    assert len(set(pairs)) == len(pairs)
    for first in range(4):
        for second in range(4):
            if first != second:
                assert (first, second) in pairs
    assert all(first != second for first, second in pairs)


def test_groups_first_candidate_uniform():
    """Each server appears as first candidate equally often (§3.3)."""
    pairs = ordered_pairs(range(6))
    counts = {}
    for first, _second in pairs:
        counts[first] = counts.get(first, 0) + 1
    assert set(counts.values()) == {5}


def test_groups_minimum_two_servers():
    with pytest.raises(ExperimentError):
        ordered_pairs(range(1))


@given(st.integers(min_value=2, max_value=20))
@settings(max_examples=30, deadline=None)
def test_property_groups_complete_and_distinct(n):
    pairs = ordered_pairs(range(n))
    assert len(pairs) == n * (n - 1)
    assert len(set(pairs)) == len(pairs)
    assert all(0 <= a < n and 0 <= b < n and a != b for a, b in pairs)
