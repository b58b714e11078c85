"""The compiled flow engine against independent references.

Warm-start deletion queries are checked against rebuilding the network and
calling ``in_class``; ``minimalize`` against the plain restart loop it
replaces; ``min_vertex_cut`` and the paths of ``vertex_disjoint_paths``
against networkx max-flow on vertex-split graphs far beyond the
brute-force oracle's size guards.
"""

from __future__ import annotations

import random

import pytest

from hubmin import (
    Edge,
    Network,
    Pair,
    delete_edges,
    grid_graph,
    in_class,
    is_minimal,
    min_vertex_cut,
    minimalize,
    ones_graph,
    random_network,
    serialize_network,
    vertex_disjoint_paths,
)
from hubmin import cuts


def _with_direct_edge(g: Network, pair_index: int) -> Network:
    """``g`` plus a direct source->sink edge for one pair, whose demand rises
    by one so the network stays in class."""
    pairs = list(g.pairs)
    pair = pairs[pair_index]
    pairs[pair_index] = Pair(pair.source, pair.sink, pair.demand + 1)
    edge = Edge(max(g.edge_by_id) + 1, pair.source, pair.sink, True)
    return Network(vertices=g.vertices, edges=g.edges + (edge,), pairs=tuple(pairs))


def _corpus():
    """Seeded two- and three-pair instances with extra interior edges; some
    get one or two direct source->sink edges."""
    rng = random.Random(2024)
    out = []
    for k in range(48):
        demands = [rng.randint(1, 4) for _ in range(rng.choice([2, 3]))]
        g, _ = random_network(
            rng, demands, reuse=rng.uniform(0.3, 0.8), extra=rng.randint(1, 6)
        )
        if k % 3 == 0:
            g = _with_direct_edge(g, k % len(g.pairs))
        if k % 6 == 0:
            g = _with_direct_edge(g, k % len(g.pairs))
        out.append(g)
    return out


CORPUS = _corpus()


def _cycle_instance() -> Network:
    # Unseeded minimalize on this instance meets an undirected edge whose
    # two directions both carry a unit of one pair's flow.
    r = random.Random(78)
    demands = [r.randint(1, 5) for _ in range(r.choice([2, 3]))]
    g, _ = random_network(r, demands, reuse=r.uniform(0.2, 0.9), extra=r.randint(0, 8))
    return g


def _reference_minimalize(g: Network, seed=None) -> Network:
    """The plain restart loop: query every surviving edge by rebuilding."""
    rng = random.Random(seed) if seed is not None else None
    current = g
    while True:
        order = sorted(e.id for e in current.edges)
        if rng is not None:
            rng.shuffle(order)
        for eid in order:
            candidate = delete_edges(current, [eid])
            if in_class(candidate):
                current = candidate
                break
        else:
            return current


def test_corpus_covers_the_edge_cases():
    def ends(e):
        return frozenset((e.u, e.v))

    assert any(len(g.pairs) == 2 for g in CORPUS)
    assert any(len(g.pairs) == 3 for g in CORPUS)
    assert any(len({ends(e) for e in g.edges}) < len(g.edges) for g in CORPUS)
    direct = [
        sum(1 for e in g.edges if any((e.u, e.v) == (p.source, p.sink) for p in g.pairs))
        for g in CORPUS
    ]
    assert 1 in direct and 2 in direct
    assert all(in_class(g) for g in CORPUS)
    assert sum(not is_minimal(g) for g in CORPUS) >= len(CORPUS) // 2


def test_single_deletion_query_matches_rebuild():
    for index, g in enumerate(CORPUS):
        queries = cuts._DeletionQueries(g)
        for e in g.edges:
            expected = in_class(delete_edges(g, [e.id]))
            assert queries.stays_in_class(e.id) == expected, (index, e.id)


def _assert_flows_valid(queries, g: Network) -> None:
    """Every pair net carries a flow of value ``demand``, with zero flow on
    the arcs of deleted edges (their capacity is zero)."""
    for (built, _), pair in zip(queries._nets, g.pairs):
        net = built.net
        balance = [0] * len(net.adj)
        for arc in range(0, len(net.to), 2):
            flow = net.flow_on(arc)
            assert 0 <= flow <= net.base_cap[arc]
            balance[net.frm[arc]] -= flow
            balance[net.to[arc]] += flow
        assert balance[built.t] == pair.demand == -balance[built.s]
        assert not any(b for node, b in enumerate(balance) if node not in (built.s, built.t))


def test_committed_deletions_keep_queries_exact():
    cases = [
        (g, random.Random(index).sample(sorted(g.edge_by_id), len(g.edges)))
        for index, g in enumerate(CORPUS)
    ]
    cycle = _cycle_instance()
    cases.append((cycle, sorted(cycle.edge_by_id)))
    for g, order in cases:
        queries = cuts._DeletionQueries(g)
        deleted = []
        for eid in order:
            expected = in_class(delete_edges(g, deleted + [eid]))
            assert queries.stays_in_class(eid, delete=True) == expected, (g, eid)
            if expected:
                deleted.append(eid)
            _assert_flows_valid(queries, g)
        # A deleted edge is gone: querying it again changes nothing.
        for eid in deleted:
            assert queries.stays_in_class(eid)
        _assert_flows_valid(queries, g)


def test_minimalize_matches_reference_restart_loop():
    for index, g in enumerate(CORPUS):
        for seed in (None, index):
            got = serialize_network(minimalize(g, seed))
            assert got == serialize_network(_reference_minimalize(g, seed)), (index, seed)


def test_opposed_flow_on_one_edge_is_cancelled(monkeypatch):
    opposed = []
    reroute = cuts._DeletionQueries._reroute

    def watching(self, built, arcs, undo):
        opposed.append(len(arcs) == 2 and all(built.net.flow_on(a) > 0 for a in arcs))
        return reroute(self, built, arcs, undo)

    monkeypatch.setattr(cuts._DeletionQueries, "_reroute", watching)
    g = _cycle_instance()
    assert minimalize(g) == _reference_minimalize(g)
    assert any(opposed)


@pytest.mark.parametrize("seed", [None, 3])
def test_minimalize_queries_each_edge_at_most_once(monkeypatch, seed):
    calls = []
    stays = cuts._DeletionQueries.stays_in_class

    def counting(self, eid, delete=False):
        calls.append(eid)
        return stays(self, eid, delete)

    monkeypatch.setattr(cuts._DeletionQueries, "stays_in_class", counting)
    for g in CORPUS[:12]:
        calls.clear()
        minimalize(g, seed)
        assert len(calls) <= len(g.edges)
        assert len(set(calls)) == len(calls)
        m = minimalize(g)
        calls.clear()
        assert is_minimal(m)
        assert len(calls) == len(m.edges)


# ---------------------------------------------------------------------------
# networkx as an independent referee for cuts on large graphs.
# ---------------------------------------------------------------------------


def _nx_cut(nx, g: Network, pair_index: int):
    """Max-flow value on a vertex-split digraph built here from scratch."""
    pair = g.pairs[pair_index]
    own = (pair.source, pair.sink)

    def node_in(v):
        return v if v in own else ("in", v)

    def node_out(v):
        return v if v in own else ("out", v)

    d = nx.DiGraph()
    for v in g.vertices:
        if v not in own:
            d.add_edge(("in", v), ("out", v), capacity=1)
    for e in g.edges:
        arcs = [(e.u, e.v)] if e.directed else [(e.u, e.v), (e.v, e.u)]
        for tail, head in arcs:
            a, b = node_out(tail), node_in(head)
            if (tail, head) == own:
                # Each direct edge counts one; parallel ones add up.
                cap = d.edges[a, b]["capacity"] + 1 if d.has_edge(a, b) else 1
                d.add_edge(a, b, capacity=cap)
            else:
                d.add_edge(a, b)  # no capacity attribute: unbounded
    d.add_nodes_from(own)
    return nx.maximum_flow_value(d, pair.source, pair.sink)


def _nx_separates(nx, g: Network, pair_index: int, separator) -> bool:
    """Whether deleting ``separator`` and the direct pair edges disconnects."""
    pair = g.pairs[pair_index]
    d = nx.DiGraph()
    d.add_nodes_from(g.vertices)
    for e in g.edges:
        if e.u in separator or e.v in separator or (e.u, e.v) == (pair.source, pair.sink):
            continue
        d.add_edge(e.u, e.v)
        if not e.directed:
            d.add_edge(e.v, e.u)
    return not nx.has_path(d, pair.source, pair.sink)


def _large_graphs():
    yield grid_graph(12, 12)
    yield ones_graph(4, 4, 3)
    rng = random.Random(7)
    for _ in range(6):
        demands = [rng.randint(4, 9) for _ in range(rng.choice([2, 3]))]
        g, _ = random_network(
            rng, demands, interior=rng.randint(40, 90), reuse=0.5, extra=rng.randint(40, 200)
        )
        yield g
    for c in (5, 9):
        g = grid_graph(c, c)
        # Delete a sprinkle of edges so cuts fall below the demands.
        doomed = sorted(g.edge_by_id)[:: 7]
        yield delete_edges(g, doomed)


def test_min_vertex_cut_matches_networkx_on_large_graphs():
    nx = pytest.importorskip("networkx")
    sizes = []
    for g in _large_graphs():
        sizes.append(len(g.edges))
        for i in range(len(g.pairs)):
            cut = min_vertex_cut(g, i)
            assert cut.value == _nx_cut(nx, g, i)
            assert _nx_separates(nx, g, i, cut.separator)
            pair = g.pairs[i]
            direct = sum(1 for e in g.edges if (e.u, e.v) == (pair.source, pair.sink))
            assert cut.value == len(cut.separator) + direct
            if cut.value:
                assert vertex_disjoint_paths(g, i, cut.value) is not None
    assert max(sizes) >= 450


def _walk(g: Network, pair, steps):
    """The vertices a path visits, checked step by step without hubmin's
    own path validation."""
    seq = [pair.source]
    for eid, forward in steps:
        e = g.edge_by_id[eid]
        assert forward or not e.directed, f"directed edge {eid} walked backward"
        tail, head = (e.u, e.v) if forward else (e.v, e.u)
        assert tail == seq[-1], f"edge {eid} does not continue the walk"
        seq.append(head)
    assert seq[-1] == pair.sink
    assert len(set(seq)) == len(seq), "path revisits a vertex"
    return seq


def test_vertex_disjoint_paths_match_networkx_on_large_graphs():
    nx = pytest.importorskip("networkx")
    sizes = []
    for g in _large_graphs():
        sizes.append(len(g.edges))
        for i, pair in enumerate(g.pairs):
            value = _nx_cut(nx, g, i)
            assert vertex_disjoint_paths(g, i, value + 1) is None
            if not value:
                continue
            system = vertex_disjoint_paths(g, i, value)
            assert len(system.paths) == value
            seen_interior, seen_edges = set(), set()
            for path in system.paths:
                interior = set(_walk(g, pair, path.steps)[1:-1])
                assert not interior & seen_interior, "paths share an interior vertex"
                edges = {eid for eid, _ in path.steps}
                assert not edges & seen_edges, "paths share an edge"
                seen_interior |= interior
                seen_edges |= edges
    assert max(sizes) >= 450
