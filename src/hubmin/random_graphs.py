"""Seeded random in-class networks for corpus testing.

Each pair gets a random system of vertex-disjoint paths through a shared
interior pool, every path using at least one interior vertex.  The union is
then automatically in class: the disjoint paths push each pair's cut up to
its demand, and the source's out-degree caps it there.  Shared edges between
systems arise by probabilistic reuse; optional extra interior edges never
change membership.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Set, Tuple, Union

from .graph_core import Edge, Network, Pair, Path, PathSystem, make_path_system

RngLike = Union[int, random.Random]


def _rng(seed_or_rng: RngLike) -> random.Random:
    if isinstance(seed_or_rng, random.Random):
        return seed_or_rng
    return random.Random(seed_or_rng)


def random_network(
    seed_or_rng: RngLike,
    demands: Sequence[int],
    reuse: float = 0.5,
    extra: int = 0,
) -> Tuple[Network, List[PathSystem]]:
    """A random in-class network with these demands, plus its systems.

    The interior pool holds the largest demand plus 0 to 3 vertices, drawn
    from the generator.  Each step of a path reuses, with probability
    ``reuse``, an edge that another pair's system already has between the
    same two vertices, and ``extra`` edges join random pairs of used
    interior vertices.
    """
    if not demands or any(d < 1 for d in demands):
        raise ValueError("demands must be a non-empty sequence of positive ints")
    rng = _rng(seed_or_rng)
    k = len(demands)
    pool_size = max(demands) + rng.randint(0, 3)
    pool = list(range(2 * k, 2 * k + pool_size))

    edges: List[Edge] = []
    by_ends: Dict[frozenset, List[int]] = {}

    def add_edge(u: int, v: int, directed: bool) -> int:
        eid = len(edges)
        edges.append(Edge(id=eid, u=u, v=v, directed=directed))
        if not directed:
            by_ends.setdefault(frozenset((u, v)), []).append(eid)
        return eid

    used_vertices: Set[int] = set()
    routes: List[List[List[int]]] = []  # per pair, per path, interior stops
    for i, demand in enumerate(demands):
        order = pool[:]
        rng.shuffle(order)
        lengths = [1] * demand
        for _ in range(rng.randint(0, pool_size - demand)):
            lengths[rng.randrange(demand)] += 1
        stops, at = [], 0
        for length in lengths:
            stops.append(order[at : at + length])
            at += length
        routes.append(stops)
        for s in stops:
            used_vertices.update(s)

    systems_steps: List[List[List[Tuple[int, bool]]]] = []
    for i, demand in enumerate(demands):
        source, sink = 2 * i, 2 * i + 1
        system_edges: Set[int] = set()
        paths_steps: List[List[Tuple[int, bool]]] = []
        for stops in routes[i]:
            steps: List[Tuple[int, bool]] = []
            steps.append((add_edge(source, stops[0], True), True))
            for u, v in zip(stops, stops[1:]):
                candidates = sorted(
                    e
                    for e in by_ends.get(frozenset((u, v)), [])
                    if e not in system_edges
                )
                if candidates and rng.random() < reuse:
                    eid = rng.choice(candidates)
                else:
                    eid = add_edge(u, v, False)
                e = edges[eid]
                steps.append((eid, e.u == u))
                system_edges.add(eid)
            steps.append((add_edge(stops[-1], sink, True), True))
            paths_steps.append(steps)
        systems_steps.append(paths_steps)

    used_sorted = sorted(used_vertices)
    for _ in range(extra):
        if len(used_sorted) < 2:
            break
        u, v = rng.sample(used_sorted, 2)
        add_edge(u, v, False)

    terminals = [t for i in range(k) for t in (2 * i, 2 * i + 1)]
    g = Network(
        vertices=tuple(terminals + used_sorted),
        edges=tuple(edges),
        pairs=tuple(
            Pair(source=2 * i, sink=2 * i + 1, demand=d)
            for i, d in enumerate(demands)
        ),
    )
    systems = [
        make_path_system(
            g, i, [Path(steps=tuple(s)) for s in systems_steps[i]]
        )
        for i in range(k)
    ]
    return g, systems
