"""The paper's comparison schemes, implemented as full systems.

* :mod:`random_lb` — Baseline: clients pick a random server, no cloning.
* :mod:`cclone` — C-Clone: static client-side cloning (d = 2).
* :mod:`laedge` — LÆDGE: coordinator-based dynamic cloning.
"""

from repro.baselines.cclone import CCloneClient
from repro.baselines.laedge import LaedgeClient, LaedgeCoordinator
from repro.baselines.random_lb import BaselineClient, PLAIN_RPC_PORT

__all__ = [
    "BaselineClient",
    "CCloneClient",
    "LaedgeClient",
    "LaedgeCoordinator",
    "PLAIN_RPC_PORT",
]
