"""Host-speed probe: a fixed pure-Python graph search timed beside the items.

The shared host this benchmark was defined on changes speed by up to 2x
over seconds to minutes, for any Python code alike (20 runs of one fixed
corpus ranged 87-162 items/s).  The probe does the same kind of work as
hubmin's flow layer (breadth-first search over adjacency lists, dict and
deque traffic) and never calls hubmin, so its time tracks the host's speed
and nothing that a change to the library can move.  ``scale`` turns item
times into times at the reference speed, at which one probe takes
``REFERENCE_S``: each item time is multiplied by ``REFERENCE_S`` over the
median of the two probes around it and their neighbours, so that one probe
that lost the processor does not skew its segment.
"""

from __future__ import annotations

import random
import statistics
import time
from collections import deque
from typing import List, Sequence, Tuple

# Probe time on the reference host in its usual state (a shared 2-vCPU
# x86_64 VM, Python 3.11), so scaled times read close to wall times there.
REFERENCE_S = 0.009
# Item time between two probes.
EVERY_S = 0.1

_NODES = 2000
_adjacency: List[List[int]] = []


def _graph() -> List[List[int]]:
    if not _adjacency:
        rng = random.Random(0)
        _adjacency.extend([] for _ in range(_NODES))
        for _ in range(3 * _NODES):
            a, b = rng.randrange(_NODES), rng.randrange(_NODES)
            _adjacency[a].append(b)
            _adjacency[b].append(a)
    return _adjacency


def probe() -> float:
    """Seconds taken by a fixed set of breadth-first searches."""
    adjacency = _graph()
    start = time.perf_counter()
    for source in range(8):
        parent = {source: None}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for v in adjacency[u]:
                if v not in parent:
                    parent[v] = u
                    queue.append(v)
    return time.perf_counter() - start


def scale(times: Sequence[float], probes: Sequence[Tuple[int, float]]) -> List[float]:
    """``times`` at the reference speed.

    ``probes`` holds ``(k, seconds)`` for each probe, ``k`` being the number
    of ``times`` taken before it; the first has ``k == 0`` and the last
    ``k == len(times)``.
    """
    scaled: List[float] = []
    for j in range(len(probes) - 1):
        nearby = [p for _, p in probes[max(0, j - 1) : j + 3]]
        factor = REFERENCE_S / statistics.median(nearby)
        scaled += [t * factor for t in times[probes[j][0] : probes[j + 1][0]]]
    return scaled
