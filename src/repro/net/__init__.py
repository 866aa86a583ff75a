"""Network substrate: packets, links, hosts, topologies.

The model is intra-rack Ethernet/IPv4/UDP.  Addresses are stored as
integers on the hot path (see :mod:`addresses`); every packet comes
from a per-experiment :class:`PacketPool`, and every link endpoint is
a switch or a :class:`Host`.
"""

from repro.net.addresses import format_ip, ip_to_int
from repro.net.host import Host
from repro.net.link import Link
from repro.net.packet import Packet, PacketPool
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
)

__all__ = [
    "EcmpSpinePolicy",
    "Fabric",
    "FlowletSpinePolicy",
    "Host",
    "LeastLoadedSpinePolicy",
    "Link",
    "Packet",
    "PacketPool",
    "SingleRackFabric",
    "SpineLeafFabric",
    "SpinePolicy",
    "StarTopology",
    "TwoRackFabric",
    "format_ip",
    "ip_to_int",
]
