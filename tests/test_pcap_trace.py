"""Tests for the pcap writer."""

import io
import struct

import pytest

from repro.core import MSG_REQ, NetCloneHeader
from repro.errors import CodecError
from repro.net import Packet
from repro.net.headers import EthernetHeader, IPv4Header, UDPHeader
from repro.net.pcap import PcapWriter


def nc_packet():
    return Packet(
        src=0x0A000165,
        dst=0x0A000166,
        sport=9000,
        dport=9000,
        size=128,
        nc=NetCloneHeader(MSG_REQ, req_id=7, grp=3),
    )


def test_pcap_global_header():
    buffer = io.BytesIO()
    PcapWriter(buffer)
    header = buffer.getvalue()
    assert len(header) == 24
    magic, major, minor = struct.unpack("<IHH", header[:8])
    assert magic == 0xA1B23C4D  # nanosecond pcap
    assert (major, minor) == (2, 4)


def test_pcap_record_roundtrips_headers():
    buffer = io.BytesIO()
    writer = PcapWriter(buffer)
    packet = nc_packet()
    writer.write(1_500_000_007, packet)
    assert writer.packets_written == 1

    data = buffer.getvalue()[24:]
    seconds, nanos, caplen, origlen = struct.unpack("<IIII", data[:16])
    assert (seconds, nanos) == (1, 500_000_007)
    assert caplen == origlen
    frame = data[16 : 16 + caplen]

    eth = EthernetHeader.unpack(frame)
    assert eth.ethertype == 0x0800
    ip = IPv4Header.unpack(frame[14:])
    assert ip.src == packet.src and ip.dst == packet.dst
    udp = UDPHeader.unpack(frame[34:])
    assert udp.sport == 9000 and udp.dport == 9000
    nc = NetCloneHeader.unpack(frame[42:])
    assert nc.req_id == 7 and nc.grp == 3


def test_pcap_frame_length_matches_packet_size():
    writer = PcapWriter(io.BytesIO())
    packet = nc_packet()
    frame = writer.frame_bytes(packet)
    assert len(frame) == packet.size


def test_pcap_plain_packet_no_netclone_header():
    writer = PcapWriter(io.BytesIO())
    frame = writer.frame_bytes(Packet(src=1, dst=2, sport=80, dport=81, size=100))
    udp = UDPHeader.unpack(frame[34:])
    assert udp.length == 8 + (100 - 42)


def test_pcap_negative_time_rejected():
    writer = PcapWriter(io.BytesIO())
    with pytest.raises(CodecError):
        writer.write(-1, nc_packet())
