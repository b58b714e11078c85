"""Independent referee: pair cut values recomputed with networkx max-flow.

The vertex-split copy is built here from the ``Network`` fields alone, so it
shares no code with ``hubmin.cuts``: every vertex other than the pair's own
terminals becomes an in/out node pair joined by a unit arc, edges get a
capacity above any possible cut, and a direct source->sink edge counts 1.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple


def networkx_cut(nx, g, pair_index: int) -> int:
    pair = g.pairs[pair_index]
    s, t = pair.source, pair.sink
    big = len(g.vertices) + len(g.edges) + 1
    net = nx.DiGraph()
    net.add_nodes_from((s, t))

    def node(v: int, half: str):
        return v if v in (s, t) else (v, half)

    def add(tail, head, cap: int) -> None:
        if net.has_edge(tail, head):
            net[tail][head]["capacity"] += cap
        else:
            net.add_edge(tail, head, capacity=cap)

    for v in g.vertices:
        if v not in (s, t):
            add((v, "in"), (v, "out"), 1)
    for e in g.edges:
        ends = [(e.u, e.v)] if e.directed else [(e.u, e.v), (e.v, e.u)]
        for a, b in ends:
            add(node(a, "out"), node(b, "in"), 1 if (a, b) == (s, t) else big)
    return nx.maximum_flow_value(net, s, t)


def cross_check(networks: Sequence, min_vertex_cut) -> Tuple[int, List[str]]:
    """Compare ``min_vertex_cut`` with networkx on every pair of every network.

    Returns the number of cuts compared and one message per mismatch; raises
    ImportError when networkx is missing.
    """
    import networkx as nx

    compared, mismatches = 0, []
    for g in networks:
        for i in range(len(g.pairs)):
            ours, theirs = min_vertex_cut(g, i).value, networkx_cut(nx, g, i)
            compared += 1
            if ours != theirs:
                mismatches.append(
                    f"pair {i} of a {len(g.edges)}-edge network: min_vertex_cut {ours}, networkx {theirs}"
                )
    return compared, mismatches
