"""Chunked service-time draws and request payloads.

A client draws its requests a chunk at a time
(``OpenLoopClient.ARRIVAL_CHUNK``), and the synthetic and KV workloads
build each chunk through the two functions here.  With the C core live
(``USING_CCORE``) both are the C twins in ``sim/_ccore.c``, so no
request costs a Python frame of its own; the Python bodies below are
the reference and the ``REPRO_PURE_SIM=1`` path.  On an exact
``random.Random`` the C :func:`expovariate_chunk` replays the draws
from ``random()``, as CPython's ``expovariate`` makes them
(``-log(1.0 - random()) / rate``); any other RNG gets its own Python
calls.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Sequence

from repro.sim.core import USING_CCORE

__all__ = ["expovariate_chunk", "payloads"]


def expovariate_chunk(
    rng: random.Random,
    n: int,
    rates: Sequence[float],
    cumulative: Optional[Sequence[float]],
) -> List[int]:
    """*n* service times ``int(rng.expovariate(rate)) + 1`` in ns.

    With *cumulative* ``None`` every draw uses ``rates[0]``.  Otherwise
    each draw first spends a ``rng.random()`` pick and takes the rate of
    the first mode whose cumulative weight exceeds it (the last mode
    when none does).
    """
    expovariate = rng.expovariate
    if cumulative is None:
        rate = rates[0]
        return [int(expovariate(rate)) + 1 for _ in range(n)]
    pick_draw = rng.random
    last = len(rates) - 1
    samples = []
    for _ in range(n):
        pick = pick_draw()
        mode = 0
        while mode < last and not pick < cumulative[mode]:
            mode += 1
        samples.append(int(expovariate(rates[mode])) + 1)
    return samples


def payloads(cls: type, n: int, columns: Dict[str, Sequence[Any]]) -> List[Any]:
    """*n* instances of the slotted class *cls*, made without running
    its ``__init__``: instance *i* holds item *i* of each column in the
    slot the column names."""
    made = []
    for i in range(n):
        payload = object.__new__(cls)
        for name, column in columns.items():
            setattr(payload, name, column[i])
        made.append(payload)
    return made


if USING_CCORE:
    from repro.sim._ccore import expovariate_chunk, payloads  # noqa: F811
