"""NetClone: the paper's primary contribution.

* :mod:`header` — the NetClone wire header (Figure 3).
* :mod:`groups` — group-ID construction (§3.3's ordered server pairs).
* :mod:`placement` — rack-aware placement policies turning the group
  construction into per-ToR tables (global / rack-local / weighted).
* :mod:`program` — the switch data-plane program (Algorithm 1),
  compiled into the PISA pipeline model with state + shadow tables,
  hashed filter tables, multicast cloning and recirculation; its
  ``scheduler`` and ``cloning_enabled`` flags also give RackSched
  (JSQ / power-of-two) and the NetClone+RackSched integration (§3.7).
* :mod:`client` / :mod:`server` — NetClone-aware end hosts.
* :mod:`reliability` — §3.7 retransmission: a NetClone client that
  stamps client-assigned request IDs (which the program keeps) and
  retransmits on timeout.
* Multi-rack deployment (§3.7): the switch-ID gate opens every
  NetClone pass; the rack wiring lives in the fabrics of
  :mod:`repro.net.topology`.
"""

from repro.core.constants import (
    CLO_CLONED_COPY,
    CLO_CLONED_ORIGINAL,
    CLO_NOT_CLONED,
    MSG_REQ,
    MSG_RESP,
    NETCLONE_UDP_PORT,
    STATE_BUSY,
    STATE_IDLE,
    VIRTUAL_SERVICE_IP,
)
from repro.core.groups import ordered_pairs
from repro.core.header import NetCloneHeader
from repro.core.placement import (
    GlobalPlacement,
    GroupTable,
    PlacementContext,
    PlacementPolicy,
    RackLocalPlacement,
    RackWeightedPlacement,
)
from repro.core.program import NetCloneProgram
from repro.core.client import NetCloneClient
from repro.core.server import RpcServer

__all__ = [
    "CLO_CLONED_COPY",
    "CLO_CLONED_ORIGINAL",
    "CLO_NOT_CLONED",
    "GlobalPlacement",
    "GroupTable",
    "MSG_REQ",
    "MSG_RESP",
    "NETCLONE_UDP_PORT",
    "NetCloneClient",
    "NetCloneHeader",
    "NetCloneProgram",
    "PlacementContext",
    "PlacementPolicy",
    "RackLocalPlacement",
    "RackWeightedPlacement",
    "RpcServer",
    "STATE_BUSY",
    "STATE_IDLE",
    "VIRTUAL_SERVICE_IP",
    "ordered_pairs",
]
