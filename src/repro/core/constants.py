"""Protocol constants for NetClone.

A UDP port is reserved for NetClone traffic so the switch can apply
custom processing to NetClone packets while forwarding everything else
through plain L3 routing (§3.2).
"""

from repro.net.addresses import ip_to_int

#: Reserved L4 port identifying NetClone packets.
NETCLONE_UDP_PORT = 9000

#: Message types (TYPE field).
MSG_REQ = 1
MSG_RESP = 2

#: Server states (STATE field).
STATE_IDLE = 0
STATE_BUSY = 1

#: CLO field values (§3.2): 0 = non-cloned request, 1 = cloned original,
#: 2 = the cloned copy.
CLO_NOT_CLONED = 0
CLO_CLONED_ORIGINAL = 1
CLO_CLONED_COPY = 2
#: CLO value a client may set to opt a request out of cloning (writes);
#: the switch rewrites it to :data:`CLO_NOT_CLONED` as it forwards.
CLO_NEVER_CLONE = 3

#: Destination clients put on requests; the switch rewrites it to the
#: chosen server (clients "do not have to know server information").
VIRTUAL_SERVICE_IP = ip_to_int("10.0.1.1")

#: SWID value meaning "not yet stamped by any ToR" (§3.7 multi-rack).
SWID_UNSET = 0
