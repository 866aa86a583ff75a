"""Group-ID construction (§3.3).

A group ID names an *ordered* pair of candidate servers.  The paper
uses 2·C(n,2) = n·(n−1) groups — every ordered pair of distinct
servers — because the switch forwards non-cloned requests to the
*first* candidate, so keeping both orders of each pair preserves the
randomness of server selection.  (With only {Srv1, Srv2} and never
{Srv2, Srv1}, all non-cloned requests would herd onto Srv1.)

*Which* servers are candidates for which clients is a placement
decision; :func:`ordered_pairs` is the construction primitive the
placement policies in :mod:`repro.core.placement` build per-ToR group
tables from.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.errors import ExperimentError

__all__ = ["ordered_pairs"]


def ordered_pairs(server_ids: Sequence[int]) -> List[Tuple[int, int]]:
    """All ordered pairs of distinct IDs from *server_ids*, in order.

    Deterministic: pairs are emitted in first-major order following the
    sequence given, so equal inputs always yield equal tables.
    """
    ids = list(server_ids)
    if len(ids) < 2:
        raise ExperimentError("NetClone requires at least two servers")
    return [
        (first, second) for first in ids for second in ids if first != second
    ]
