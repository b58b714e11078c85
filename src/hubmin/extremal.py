"""Generators with known extremal hub counts, and the worst-case bounds.

The lattice family realizes the two-pair maximum of 2*C1*C2 hubs; adding n
demand-1 pairs threaded through the first row raises it to 2*(C1*C2 + n);
merging those demand-1 pairs yields the 12-hub witness for demands (2,2,2).
The reroutable witness is the smallest minimal network where one pair's
system can be rerouted, separating minimality from non-reroutability for
three or more pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

from .graph_core import Edge, Network, Pair, Path, PathSystem, make_path_system

Coord = Tuple[int, int]


@dataclass(frozen=True, slots=True)
class GridSpec:
    """A lattice instance together with its path systems, one per pair."""

    network: Network
    systems: Tuple[PathSystem, ...]


def _build_lattice(c1: int, c2: int, n: int, merge: bool) -> GridSpec:
    """Shared builder for the grid, ones, and merged-ones families.

    ``n`` demand-1 pairs are threaded as a chain on the first row path;
    ``merge`` collapses their terminals into one demand-n pair.
    """
    if c1 < 1 or c2 < 1 or n < 0:
        raise ValueError("demands must be positive and n nonnegative")
    pairs: List[Pair] = []
    vertices: List[int] = [0, 1, 2, 3]  # S1 R1 S2 R2
    pairs.append(Pair(source=0, sink=1, demand=c1))
    pairs.append(Pair(source=2, sink=3, demand=c2))
    nxt = 4
    chain_sources: List[int] = []
    chain_sinks: List[int] = []
    if n > 0 and merge:
        s_star, r_star = nxt, nxt + 1
        nxt += 2
        vertices += [s_star, r_star]
        pairs.append(Pair(source=s_star, sink=r_star, demand=n))
        chain_sources = [s_star] * n
        chain_sinks = [r_star] * n
    else:
        for _ in range(n):
            vertices += [nxt, nxt + 1]
            pairs.append(Pair(source=nxt, sink=nxt + 1, demand=1))
            chain_sources.append(nxt)
            chain_sinks.append(nxt + 1)
            nxt += 2
    gamma = [nxt + 2 * k for k in range(n)]
    delta = [nxt + 2 * k + 1 for k in range(n)]
    vertices += [v for k in range(n) for v in (gamma[k], delta[k])]
    nxt += 2 * n
    lam: Dict[Coord, int] = {}
    mu: Dict[Coord, int] = {}
    for i in range(1, c1 + 1):
        for j in range(1, c2 + 1):
            lam[(i, j)] = nxt
            mu[(i, j)] = nxt + 1
            vertices += [nxt, nxt + 1]
            nxt += 2

    edges: List[Edge] = []

    def add(u: int, v: int, directed: bool) -> int:
        edges.append(Edge(id=len(edges), u=u, v=v, directed=directed))
        return len(edges) - 1

    # First-pair rows; row 1 starts with the chain.
    phi_steps: List[List[int]] = []
    public: Dict[Coord, int] = {}
    chain_edge: Dict[int, int] = {}
    for i in range(1, c1 + 1):
        row: List[int] = []
        if i == 1 and n > 0:
            row.append(add(0, gamma[0], True))
            for k in range(n):
                chain_edge[k] = add(gamma[k], delta[k], False)
                row.append(chain_edge[k])
                if k + 1 < n:
                    row.append(add(delta[k], gamma[k + 1], False))
            row.append(add(delta[n - 1], lam[(1, 1)], False))
        else:
            row.append(add(0, lam[(i, 1)], True))
        for j in range(1, c2 + 1):
            public[(i, j)] = add(lam[(i, j)], mu[(i, j)], False)
            row.append(public[(i, j)])
            if j < c2:
                row.append(add(mu[(i, j)], lam[(i, j + 1)], False))
        row.append(add(mu[(i, c2)], 1, True))
        phi_steps.append(row)

    # Second-pair columns reuse the shared lattice edges.
    psi_steps: List[List[int]] = []
    for j in range(1, c2 + 1):
        col: List[int] = [add(2, lam[(1, j)], True)]
        for i in range(1, c1 + 1):
            col.append(public[(i, j)])
            if i < c1:
                col.append(add(mu[(i, j)], lam[(i + 1, j)], False))
        col.append(add(mu[(c1, j)], 3, True))
        psi_steps.append(col)

    # Chain terminal edges.
    chain_paths: List[List[int]] = []
    for k in range(n):
        into = add(chain_sources[k], gamma[k], True)
        out = add(delta[k], chain_sinks[k], True)
        chain_paths.append([into, chain_edge[k], out])

    g = Network(vertices=tuple(vertices), edges=tuple(edges), pairs=tuple(pairs))

    # Every edge was added in the direction its path walks it.  Each edge has
    # one step tuple, shared by every path through it.
    step = [(eid, True) for eid in range(len(edges))]

    def to_path(step_ids: List[int]) -> Path:
        return Path(steps=tuple([step[eid] for eid in step_ids]))

    systems = [
        make_path_system(g, 0, [to_path(row) for row in phi_steps]),
        make_path_system(g, 1, [to_path(col) for col in psi_steps]),
    ]
    if n > 0 and merge:
        systems.append(make_path_system(g, 2, [to_path(path) for path in chain_paths]))
    else:
        for k in range(n):
            systems.append(make_path_system(g, 2 + k, [to_path(chain_paths[k])]))
    return GridSpec(network=g, systems=tuple(systems))


def grid_instance(c1: int, c2: int) -> GridSpec:
    """The two-pair lattice with 2*c1*c2 hubs, plus its systems."""
    return _build_lattice(c1, c2, 0, merge=False)


def grid_graph(c1: int, c2: int) -> Network:
    """The two-pair lattice network with 2*c1*c2 hubs."""
    return grid_instance(c1, c2).network


def ones_instance(c1: int, c2: int, n: int) -> GridSpec:
    """The lattice with n demand-1 pairs threaded in, plus its systems."""
    return _build_lattice(c1, c2, n, merge=False)


def ones_graph(c1: int, c2: int, n: int) -> Network:
    """The lattice with n demand-1 pairs threaded in: 2*(c1*c2 + n) hubs."""
    return ones_instance(c1, c2, n).network


def witness_222_instance() -> GridSpec:
    """The 12-hub (2,2,2) witness, plus its systems."""
    return _build_lattice(2, 2, 2, merge=True)


def witness_222() -> Network:
    """A minimal network for demands (2,2,2) with 12 hubs."""
    return witness_222_instance().network


def reroutable_witness() -> Network:
    """A minimal three-pair network whose third system can be rerouted.

    Pairs 1 and 2 have unique systems; pair 3 has exactly two, sharing only
    their terminal edges.  Every edge is essential, yet the third system is
    reroutable: minimality and non-reroutability come apart once a third
    pair exists.
    """
    S1, R1, S2, R2, S3, R3, a, b, x, y = range(10)
    edges = [
        Edge(id=0, u=S3, v=a, directed=True),
        Edge(id=1, u=S3, v=b, directed=True),
        Edge(id=2, u=a, v=x, directed=False),
        Edge(id=3, u=b, v=x, directed=False),
        Edge(id=4, u=a, v=y, directed=False),
        Edge(id=5, u=b, v=y, directed=False),
        Edge(id=6, u=x, v=R3, directed=True),
        Edge(id=7, u=y, v=R3, directed=True),
        Edge(id=8, u=S1, v=a, directed=True),
        Edge(id=9, u=x, v=R1, directed=True),
        Edge(id=10, u=S1, v=y, directed=True),
        Edge(id=11, u=b, v=R1, directed=True),
        Edge(id=12, u=S2, v=b, directed=True),
        Edge(id=13, u=x, v=R2, directed=True),
        Edge(id=14, u=S2, v=y, directed=True),
        Edge(id=15, u=a, v=R2, directed=True),
    ]
    pairs = (
        Pair(source=S1, sink=R1, demand=2),
        Pair(source=S2, sink=R2, demand=2),
        Pair(source=S3, sink=R3, demand=2),
    )
    return Network(vertices=tuple(range(10)), edges=tuple(edges), pairs=pairs)


@lru_cache(maxsize=None)
def _bound(demands: Tuple[int, ...]) -> int:
    k = len(demands)
    if k == 1:
        return 0
    if k == 2:
        return 2 * demands[0] * demands[1]
    n1 = _bound(demands[:-1])
    n2 = sum(
        _bound(demands[:i] + demands[i + 1 : k - 1] + demands[-1:])
        for i in range(k - 1)
    )
    return n1 + n2 + (k - 1) * n1 * (demands[-1] + n2)


def _check_demands(demands: Sequence[int]) -> None:
    """Raise ``ValueError`` unless ``demands`` is non-empty and positive."""
    if not demands:
        raise ValueError("demands must be non-empty")
    if any(d < 1 for d in demands):
        raise ValueError("demands must be positive")


def finiteness_bound(demands: Sequence[int]) -> int:
    """An explicit upper bound on the maximum hub count for these demands.

    Exact for one and two pairs; for more pairs it grows by peeling off the
    last demand and re-bounding every (k-1)-subset that keeps it.
    """
    _check_demands(demands)
    return _bound(tuple(demands))


def signature_bound(demands: Sequence[int]) -> int:
    """The sharpest known hub-count bound for this demand multiset."""
    _check_demands(demands)
    if len(demands) == 1:
        return 0
    if len(demands) == 2:
        return 2 * demands[0] * demands[1]
    if sorted(demands) == [2, 2, 2]:
        return 12
    top = sorted(demands, reverse=True)
    if all(d == 1 for d in top[2:]):
        n = len(top) - 2
        return 2 * (top[0] * top[1] + n)
    return finiteness_bound(demands)
