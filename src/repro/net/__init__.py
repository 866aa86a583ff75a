"""Network substrate: packets, headers, links, NICs, hosts, topologies.

The model is intra-rack Ethernet/IPv4/UDP.  Addresses are stored as
integers on the hot path (see :mod:`addresses`); byte-level codecs for
the Ethernet/IPv4/UDP headers live in :mod:`headers` and are used by
tests and the pcap writer, not per simulated packet.
"""

from repro.net.addresses import (
    format_ip,
    format_mac,
    ip_to_int,
    mac_to_int,
)
from repro.net.headers import EthernetHeader, IPv4Header, UDPHeader
from repro.net.host import Host
from repro.net.link import Link
from repro.net.nic import Nic
from repro.net.packet import (
    PROTO_TCP,
    PROTO_UDP,
    Packet,
    PacketPool,
)
from repro.net.topology import (
    EcmpSpinePolicy,
    Fabric,
    FlowletSpinePolicy,
    LeastLoadedSpinePolicy,
    SingleRackFabric,
    SpineLeafFabric,
    SpinePolicy,
    StarTopology,
    TwoRackFabric,
    make_spine_policy,
    register_spine_policy,
    spine_policy_names,
    unregister_spine_policy,
)

__all__ = [
    "EcmpSpinePolicy",
    "EthernetHeader",
    "Fabric",
    "FlowletSpinePolicy",
    "Host",
    "IPv4Header",
    "LeastLoadedSpinePolicy",
    "Link",
    "Nic",
    "PROTO_TCP",
    "PROTO_UDP",
    "Packet",
    "PacketPool",
    "SingleRackFabric",
    "SpineLeafFabric",
    "SpinePolicy",
    "StarTopology",
    "TwoRackFabric",
    "UDPHeader",
    "format_ip",
    "format_mac",
    "ip_to_int",
    "mac_to_int",
    "make_spine_policy",
    "register_spine_policy",
    "spine_policy_names",
    "unregister_spine_policy",
]
