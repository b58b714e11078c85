"""The compiled flow engine against independent references.

Warm-start deletion queries, which residual SCC labels decide, and the
deletions that then move each flow off the edge, are checked against
rebuilding the network and calling ``in_class``; ``minimalize`` against
the plain restart loop and, seeded, a rebuild per edge in its order; the
compiled arc layout against one written out arc by arc; the shared split
network against a net compiled for one pair at a time; the labels, rooted
at each query's tails, at random nodes and at every node, against what
networkx reaches and its components; ``in_class``, where a tight terminal
stops a flow at the demand, and ``min_vertex_cut`` and the paths of
``vertex_disjoint_paths`` against networkx max-flow, the last two on
vertex-split graphs far beyond the brute-force oracle's size guards; and
``FlowNet.max_flow``, which searches once per round, against Edmonds-Karp
with one search per unit, flow for flow; and every answer that ``cuts``'
compile slot serves, in several call orders and through the split
``minimalize`` hands its result, against a fresh compile.
"""

from __future__ import annotations

import gc
import random
import threading
import weakref

import pytest

from hubmin import (
    Edge,
    InvariantError,
    Network,
    Pair,
    PathSystem,
    delete_edges,
    grid_graph,
    in_class,
    is_minimal,
    min_vertex_cut,
    minimalize,
    ones_graph,
    parse_instance,
    path_vertices,
    random_network,
    serialize_network,
    vertex_disjoint_paths,
)
from hubmin import cuts, minimality
from hubmin._flownet import INF, FlowNet, strongly_connected_components
from hubmin.minimality import deletable_private_edges, is_reroutable, theorem1_agreement
from hubmin.oracle import enumerate_path_systems, min_hub_subgraph

from conftest import FIXTURES, two_pair_corpus


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


def _detour_instance() -> Network:
    # The flow takes the directed edge 0 -> 2; it can detour through 3.
    edges = (Edge(0, 0, 2, True), Edge(1, 0, 3, True), Edge(2, 3, 2, False), Edge(3, 2, 1, True))
    return Network(vertices=(0, 1, 2, 3), edges=edges, pairs=(Pair(0, 1, 1),))


def _network(pairs, ends) -> Network:
    """A network with one edge per ``(u, v, directed)`` triple, ids in
    order, on the vertices the edges touch."""
    edges = tuple(Edge(i, u, v, directed) for i, (u, v, directed) in enumerate(ends))
    vertices = tuple(sorted({v for e in edges for v in (e.u, e.v)}))
    return Network(vertices=vertices, edges=edges, pairs=tuple(pairs))


# Pair 0 (0 -> 1, demand 1) runs through vertex 6, with two edges at its
# source and three at its sink.  One of them comes from pair 1's source 2,
# and no flow can use it, so that source too has more edges than its
# demand; pair 1's sink 3 is tight.
_LOOSE_ENDS = [
    (0, 4, True), (0, 5, True), (4, 6, False), (5, 6, False),
    (6, 7, False), (6, 8, False), (7, 1, True), (8, 1, True),
    (2, 1, True), (2, 6, True), (6, 9, False), (9, 3, True),
]


def _loose_instance() -> Network:
    return _network([Pair(0, 1, 1), Pair(2, 3, 1)], _LOOSE_ENDS)


def _opposed_demand_instance() -> Network:
    """One pair 0 -> 1 (demand 2) whose demand flow itself carries opposed
    units on the undirected edge 3 - 4.  The first path, the only shortest,
    runs 0-2-3-4-5-1.  The second, from 0 along 6..9 to 5, can only leave
    in(5) backward to out(4), and its shortest way on is edge 4 -> 3 and
    back along 2 -> 3 to out(2), then 10..13 to 1.  So both arcs of 3 - 4
    carry a unit, and the flow runs the unit cycle through 3 and 4."""
    ends = [
        (0, 2, True), (2, 3, False), (3, 4, False), (4, 5, False), (5, 1, True),
        (0, 6, True), (6, 7, False), (7, 8, False), (8, 9, False), (9, 5, False),
        (2, 10, False), (10, 11, False), (11, 12, False), (12, 13, False), (13, 1, True),
    ]
    return _network([Pair(0, 1, 2)], ends)


def _label_corpus():
    """In-class networks for the label checks: the seeded corpus (two and
    three pairs, parallel and direct source->sink edges), its minimalized
    networks, where most answers are no, the opposed-flow instance, the
    loose instance, whose directed terminal edges reach the label pass, the
    instance whose demand flow carries opposed units, the lattices up to
    8x8 and ``ones_graph``s."""
    graphs = CORPUS + [minimalize(g) for g in CORPUS] + [_cycle_instance()]
    graphs += [_loose_instance(), _opposed_demand_instance()]
    graphs += [grid_graph(c1, c2) for c1 in range(1, 9) for c2 in range(c1, 9)]
    graphs += [ones_graph(2, 2, 1), ones_graph(3, 3, 2), ones_graph(2, 4, 3), ones_graph(4, 4, 3)]
    return graphs


LABEL_CORPUS = _label_corpus()


def _count_labellings(monkeypatch):
    """Record every labelling the deletion queries build."""
    labelled = []

    def counting(net, roots):
        labelled.append(net)
        return strongly_connected_components(net, roots)

    monkeypatch.setattr(cuts, "strongly_connected_components", counting)
    return labelled


def _carried(queries, eid: int) -> bool:
    """Whether some pair's flow carries a unit on ``eid``, read off the
    nets' arcs."""
    return any(built.net.flow_on(arc) for built in queries._nets for arc in built.arcs_of_edge[eid])


def _reference_minimalize(g: Network) -> Network:
    """The plain restart loop: query every surviving edge by rebuilding."""
    current = g
    while True:
        for eid in sorted(e.id for e in current.edges):
            candidate = delete_edges(current, [eid])
            if in_class(candidate):
                current = candidate
                break
        else:
            return current


def _reference_seeded_pass(g: Network, seed: int) -> Network:
    """One pass over the edges in ``minimalize``'s seeded order, each edge
    decided by rebuilding."""
    order = sorted(g.edge_by_id)
    random.Random(seed).shuffle(order)
    current = g
    for eid in order:
        candidate = delete_edges(current, [eid])
        if in_class(candidate):
            current = candidate
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


def _rebuilt_deletable(g: Network, deleted, eids):
    """The edges of ``eids``, in order, whose deletion on its own keeps ``g``
    minus ``deleted`` in class, each decided by a rebuild; a deleted edge
    counts as deletable."""
    return [x for x in eids if x in deleted or in_class(delete_edges(g, list(deleted) + [x]))]


def _caps(queries):
    return [list(built.net.cap) for built in queries._nets]


def test_single_deletion_query_matches_rebuild(monkeypatch):
    labelled = _count_labellings(monkeypatch)
    for index, g in enumerate(LABEL_CORPUS):
        queries = cuts._DeletionQueries(g)
        eids = [e.id for e in g.edges]
        random.Random(index).shuffle(eids)
        caps = _caps(queries)
        # The answer keeps the order it was asked in, and changes no flow.
        assert queries.deletable(eids) == _rebuilt_deletable(g, [], eids), index
        assert _caps(queries) == caps
        _assert_flows_valid(queries, g)
    # Read-only queries on the minimal networks are decided by labels.
    assert labelled


def test_label_corpus_meets_every_per_edge_case():
    # deletable reads each edge's arcs in place; every case of that read
    # (which arcs carry a unit) meets the first pair's pass, on an edge off
    # the tight terminals, somewhere in the corpus that
    # test_single_deletion_query_matches_rebuild referees: a directed edge
    # that carries, an undirected edge with only its forward, only its
    # backward, both or neither of its arcs carrying.
    seen = set()
    for g in LABEL_CORPUS:
        queries = cuts._DeletionQueries(g)
        built = queries._nets[0]
        for eid, arcs in built.arcs_of_edge.items():
            if eid not in queries._needed:
                seen.add(tuple(built.net.cap[a] < built.net.base_cap[a] for a in arcs))
    assert seen >= {(True,), (True, False), (False, True), (True, True), (False, False)}


def test_an_edge_with_opposed_units_is_deletable_without_labels(monkeypatch):
    # Both arcs of edge 2 (3 - 4) carry a unit of the demand flow; the unit
    # cycle they close settles the edge, and the pair is never labelled.
    labelled = _count_labellings(monkeypatch)
    queries = cuts._DeletionQueries(_opposed_demand_instance())
    built = queries._nets[0]
    assert [built.net.flow_on(arc) for arc in built.arcs_of_edge[2]] == [1, 1]
    assert queries.deletable([2]) == [2]
    assert not labelled


def _assert_flows_valid(queries, g: Network) -> None:
    """Every pair net carries a flow of value ``demand``, with zero flow on
    the arcs of deleted edges (their capacity is zero)."""
    for built, pair in zip(queries._nets, g.pairs):
        net = built.net
        balance = [0] * len(net.adj)
        for arc in range(0, len(net.to), 2):
            flow = net.flow_on(arc)
            assert 0 <= flow <= net.base_cap[arc]
            balance[net.to[arc ^ 1]] -= flow
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
            assert queries.deletable([eid]) == ([eid] if expected else []), (g, eid)
            if expected:
                queries.delete(eid)
                deleted.append(eid)
            _assert_flows_valid(queries, g)
        # A deleted edge is gone: querying it again changes nothing.
        caps = _caps(queries)
        assert queries.deletable(deleted) == deleted
        assert _caps(queries) == caps
        _assert_flows_valid(queries, g)


def test_minimalize_matches_reference_restart_loop():
    # Unseeded, against the restart loop; seeded, against a rebuild per
    # edge in the same shuffled order.
    for index, g in enumerate(CORPUS):
        assert serialize_network(minimalize(g)) == serialize_network(_reference_minimalize(g))
        got = minimalize(g, index)
        assert serialize_network(got) == serialize_network(_reference_seeded_pass(g, index))
        assert is_minimal(got), index


def test_opposed_flow_on_one_edge_is_cancelled(monkeypatch):
    # A deleted edge whose two arcs carry opposed units of one pair's flow:
    # afterwards every flow is valid with nothing on the edge's arcs, so
    # the unit cycle through both endpoints was cancelled.
    opposed = []
    delete = cuts._DeletionQueries.delete

    def watching(self, eid):
        opposed.extend(edge == eid for _, edge in _opposed_edges(self))
        delete(self, eid)
        _assert_flows_valid(self, self.g)

    monkeypatch.setattr(cuts._DeletionQueries, "delete", watching)
    g = _cycle_instance()
    assert minimalize(g) == _reference_minimalize(g)
    assert any(opposed)


def test_decompose_ignores_an_isolated_unit_cycle():
    # Pair 1 of the lattice with one demand-1 pair threaded in runs through
    # hubs lam(1,1) and mu(1,1) only; the chain edge gamma-delta is interior
    # and off its flow.  A unit cycle across that edge reaches no path.
    g = ones_graph(1, 1, 1)
    built = cuts._build_pair_net(g, 1)
    assert built.net.max_flow(built.s, built.t) == 1
    want = cuts._decompose(g, 1, built, 1)
    used = {v for p in want.paths for v in path_vertices(g, p)}
    eid = next(e.id for e in g.edges if not e.directed and not used & {e.u, e.v})
    e = g.edge_by_id[eid]
    for arc in (*built.arcs_of_edge[eid], built.vertex_arc[e.u], built.vertex_arc[e.v]):
        built.net.push(arc)
    assert all(built.net.flow_on(arc) == 1 for arc in built.arcs_of_edge[eid])
    assert cuts._decompose(g, 1, built, 1) == want


def _carried(queries, eid: int) -> bool:
    """Whether some pair's flow carries a unit on ``eid``, read off the
    nets' arcs."""
    return any(built.net.flow_on(arc) for built in queries._nets for arc in built.arcs_of_edge[eid])


@pytest.mark.parametrize("seed", [None, 3])
def test_minimalize_asks_once_per_deletion_and_labels_once_per_pair(monkeypatch, seed):
    # One bulk query over every edge, then one after each deletion whose
    # next candidate (the next edge of the last answer) carries a unit of
    # some pair's flow, asking from that candidate on; a candidate no flow
    # carries is deleted with no query.  Each query asks about a strict
    # subset of the edges the one before it asked about and labels each
    # pair at most once; nothing else labels.
    labelled = _count_labellings(monkeypatch)
    bulk = cuts._DeletionQueries.deletable
    delete = cuts._DeletionQueries.delete
    asked, answers, deleted, carried_next = [], [], [], []
    inside = [0]

    def recording(self, eids):
        eids = list(eids)
        if asked:
            answer = answers[-1]
            assert eids == answer[answer.index(deleted[-1]) + 1 :]
            assert _carried(self, eids[0])
        asked.append(eids)
        before = len(labelled)
        answers.append(bulk(self, eids))
        inside[0] += len(labelled) - before
        return answers[-1]

    def deleting(self, eid):
        answer = answers[-1]
        at = answer.index(eid)
        # The answer's first edge, or the candidate after the edge just
        # deleted, which no flow carried.
        assert at == 0 or (deleted[-1] == answer[at - 1] and not carried_next[-1])
        delete(self, eid)
        deleted.append(eid)
        if at + 1 < len(answer):
            carried_next.append(_carried(self, answer[at + 1]))

    monkeypatch.setattr(cuts._DeletionQueries, "deletable", recording)
    monkeypatch.setattr(cuts._DeletionQueries, "delete", deleting)
    total = idle = 0
    for g in CORPUS[:12] + [_cycle_instance()]:
        for record in (asked, answers, deleted, carried_next, labelled):
            record.clear()
        inside[0] = 0
        m = minimalize(g, seed)
        assert sorted(deleted) == sorted(set(g.edge_by_id) - set(m.edge_by_id))
        total += len(deleted)
        idle += carried_next.count(False)
        assert len(asked) == 1 + carried_next.count(True)
        # The pass ends when the last answer is empty or used up.
        assert not answers[-1] or deleted[-1] == answers[-1][-1]
        assert sorted(asked[0]) == sorted(g.edge_by_id)
        assert all(set(later) < set(earlier) for earlier, later in zip(asked, asked[1:]))
        assert len(labelled) == inside[0] <= len(asked) * len(g.pairs)
        asked.clear()
        assert is_minimal(m)
        # One bulk call decides each edge exactly once.
        assert [sorted(eids) for eids in asked] == [sorted(m.edge_by_id)]
    assert 0 < idle < total


# ---------------------------------------------------------------------------
# Read-only deletion queries decided by residual SCC labels.
# ---------------------------------------------------------------------------


def test_mixed_queries_match_rebuild(monkeypatch):
    labelled = _count_labellings(monkeypatch)
    # Tight terminals settle their own edges, so the cases include
    # terminals with spare edges (the loose instance) and a direct edge at
    # a tight source, besides lattices where every terminal is tight.
    cases = CORPUS + [_cycle_instance(), grid_graph(3, 4), ones_graph(3, 3, 2)]
    cases += [_loose_instance(), _tight_direct_instance()]
    for index, g in enumerate(cases):
        rng = random.Random(index)
        eids = sorted(g.edge_by_id)
        queries = cuts._DeletionQueries(g)
        deleted = []
        for _ in range(len(eids)):
            if rng.random() < 0.25:
                eid = rng.choice(eids)
                expected = eid in deleted or in_class(delete_edges(g, deleted + [eid]))
                assert queries.deletable([eid]) == ([eid] if expected else []), (index, eid)
                if expected and eid not in deleted:
                    queries.delete(eid)
                    deleted.append(eid)
                    _assert_flows_valid(queries, g)
            else:
                # A sweep over a random sample in random order, repeats
                # and deleted edges included.
                sample = [rng.choice(eids) for _ in range(rng.randint(0, len(eids)))]
                caps = _caps(queries)
                got = queries.deletable(sample)
                assert got == _rebuilt_deletable(g, deleted, sample), (index, deleted)
                assert _caps(queries) == caps
        _assert_flows_valid(queries, g)

    # Deletions in minimalize's order, each after a read-only sweep over
    # every edge.  Each sweep labels afresh, at most once per pair: pair 0's
    # flow always has an edge arc with exactly one unit.
    for g in (_cycle_instance(), _detour_instance()):
        eids = sorted(g.edge_by_id)
        queries = cuts._DeletionQueries(g)
        deleted = []
        for eid in eids:
            before = len(labelled)
            kept = queries.deletable(eids)
            assert kept == _rebuilt_deletable(g, deleted, eids), deleted
            assert 1 <= len(labelled) - before <= len(g.pairs), deleted
            if eid in kept:
                queries.delete(eid)
                deleted.append(eid)
                _assert_flows_valid(queries, g)
        assert deleted


def _opposed_edges(queries):
    """(pair index, edge id) of every undirected edge both of whose arcs
    carry a unit of that pair's flow."""
    return [
        (i, eid)
        for i, built in enumerate(queries._nets)
        for eid, arcs in built.arcs_of_edge.items()
        if len(arcs) == 2 and all(built.net.flow_on(a) > 0 for a in arcs)
    ]


def test_bulk_answer_on_an_opposed_flow_matches_rebuild(monkeypatch):
    # Labels of a flow that carries an opposed unit on one edge still decide
    # every other edge exactly.
    g = _cycle_instance()
    eids = sorted(g.edge_by_id)
    queries = cuts._DeletionQueries(g)
    deleted = []
    for eid in eids:
        if _opposed_edges(queries):
            break
        if queries.deletable([eid]):
            queries.delete(eid)
            deleted.append(eid)
            _assert_flows_valid(queries, g)
    opposed = _opposed_edges(queries)
    assert opposed
    expected = _rebuilt_deletable(g, deleted, eids)
    labelled = _count_labellings(monkeypatch)
    caps = _caps(queries)
    assert queries.deletable(eids) == expected, (deleted, opposed)
    assert _caps(queries) == caps
    pair, eid = opposed[0]
    assert any(net is queries._nets[pair].net for net in labelled)
    # The opposed edge itself is deletable: its pair cancels the unit cycle.
    assert eid in expected


def test_is_minimal_on_a_lattice_runs_no_search_beyond_its_max_flows(monkeypatch):
    labelled = _count_labellings(monkeypatch)
    searches = []
    bfs_parent = FlowNet._bfs_parent

    def counting(self, s, t):
        parent = bfs_parent(self, s, t)
        searches.append(parent is not None)
        return parent

    monkeypatch.setattr(FlowNet, "_bfs_parent", counting)
    # Every terminal is tight, so each max flow stops at its demand and
    # makes no search that fails, one search per round: 1 + 1 on the
    # lattice, whose 7 paths per pair all have one length, and 2 + 2 + 1 + 1
    # on the ones graph (one search per unit would make 7 + 7 and
    # 3 + 3 + 1 + 1).  On the ones graph the labels of pairs 0 and 1 find
    # every edge off the tight terminals needed, so pairs 2 and 3 are never
    # labelled.
    for g, rounds in ((grid_graph(7, 7), 2), (ones_graph(3, 3, 2), 6)):
        labelled.clear()
        searches.clear()
        assert is_minimal(g)
        assert searches == [True] * rounds
        assert len(labelled) == 2
        assert len({id(net) for net in labelled}) == len(labelled)


def test_is_minimal_on_the_largest_lattice_searches_once_per_pair(monkeypatch):
    # 16 paths per pair, all found from the first search's tree.
    searches = []
    bfs_parent = FlowNet._bfs_parent

    def counting(self, s, t):
        found = bfs_parent(self, s, t)
        searches.append(found is not None)
        return found

    monkeypatch.setattr(FlowNet, "_bfs_parent", counting)
    assert is_minimal(grid_graph(16, 16))
    assert searches == [True, True]


def _reroutable_inputs():
    """Seeded two-pair inputs before ``minimalize``, with their generated
    systems: not minimal, and some system reroutable."""
    rng = random.Random(31)
    found = []
    while len(found) < 12:
        demands = [rng.randint(1, 4), rng.randint(1, 4)]
        g, systems = random_network(
            rng, demands, reuse=rng.uniform(0.3, 0.8), extra=rng.randint(0, 4)
        )
        if not is_minimal(g) and any(is_reroutable(g, systems, i) for i in range(2)):
            found.append((g, systems))
    return found


def test_read_only_queries_on_non_minimal_inputs_run_no_search(monkeypatch):
    # Every generated input has tight terminals; pair 0 of the loose
    # instance has none.
    loose_instance = _loose_instance()
    cases = _reroutable_inputs() + [(loose_instance, cuts._full_systems(loose_instance))]
    searches = []
    bfs_parent = FlowNet._bfs_parent

    def counting(self, s, t):
        searches.append((s, t))
        return bfs_parent(self, s, t)

    monkeypatch.setattr(FlowNet, "_bfs_parent", counting)
    deletable = 0
    failing = 0
    rounds = []
    for g, systems in cases:
        # The max flows of one _DeletionQueries: one search per round, and
        # one that fails for each pair where neither terminal is tight.
        loose = [p for p in g.pairs if p.demand not in (g.degree(p.source), g.degree(p.sink))]
        failing += len(loose)
        searches.clear()
        assert not is_minimal(g)
        max_flows = len(searches)
        rounds.append(max_flows)
        for i in range(2):
            searches.clear()
            deletable += len(deletable_private_edges(g, systems, i))
            assert len(searches) == max_flows
        # A bulk sweep over every edge runs no search at all.
        eids = sorted(g.edge_by_id)
        expected = _rebuilt_deletable(g, [], eids)
        queries = cuts._DeletionQueries(g)
        searches.clear()
        assert queries.deletable(eids) == expected != []
        assert not searches
    assert deletable and failing == 1
    # A search per unit would make [5, 4, 4, 7, 5, 7, 4, 2, 5, 5, 5, 4, 3].
    assert rounds == [3, 4, 4, 5, 4, 3, 3, 2, 3, 2, 3, 3, 3]


def test_labellings_reach_only_what_their_queries_ask_about(monkeypatch):
    # Each labelling as (nodes in the net, nodes its roots reach): the
    # deletion queries of is_minimal, and in theorem1_agreement also the
    # two is_reroutable checks, label a part of each net.
    reached = []

    def counting(net, roots):
        labels = strongly_connected_components(net, roots)
        reached.append((len(net.adj), sum(label >= 0 for label in labels)))
        return labels

    monkeypatch.setattr(cuts, "strongly_connected_components", counting)
    monkeypatch.setattr(minimality, "strongly_connected_components", counting)
    assert is_minimal(grid_graph(4, 4))
    assert reached == [(72, 62), (72, 51)]
    reached.clear()
    assert is_minimal(ones_graph(3, 3, 2))
    assert reached == [(60, 47), (60, 39)]
    reached.clear()
    g, _ = two_pair_corpus(3, 1, extra=2)[0]
    g = minimalize(g)
    reached.clear()
    report = theorem1_agreement(g, cuts._full_systems(g))
    assert report.minimal and report.agree
    assert (len(g.edges), reached) == (10, [(18, 3), (18, 3), (18, 7), (18, 13)])


def test_only_flow_decomposition_maps_arcs_to_steps(monkeypatch):
    lookups = []
    step = cuts._step
    monkeypatch.setattr(cuts, "_step", lambda built, arc: lookups.append(arc) or step(built, arc))
    g = grid_graph(4, 4)
    assert is_minimal(g)
    assert not lookups
    system = vertex_disjoint_paths(g, 0, g.pairs[0].demand)
    assert len(lookups) == sum(len(p.steps) for p in system.paths)


# ---------------------------------------------------------------------------
# Menger's bound at tight terminals: a terminal with exactly ``demand``
# edges proves its pair's cut exact at the demand, and its edges are needed.
# ---------------------------------------------------------------------------


def _cut_above_demand_instance() -> Network:
    """The loose instance plus a second route for pair 0 (0 -> 10 -> 1):
    its cut is 2 against a demand of 1, with no tight terminal."""
    return _network([Pair(0, 1, 1), Pair(2, 3, 1)], _LOOSE_ENDS + [(0, 10, True), (10, 1, True)])


def _tight_direct_instance() -> Network:
    """A tight source (two edges, demand 2), one of them a direct edge to
    the sink, which has three edges."""
    ends = [(0, 1, True), (0, 2, True), (2, 3, False), (3, 1, True), (2, 4, False), (4, 1, True)]
    return _network([Pair(0, 1, 2)], ends)


def test_tight_terminal_instances_are_what_they_claim():
    loose, direct = _loose_instance(), _tight_direct_instance()
    assert in_class(loose) and in_class(direct) and not is_minimal(loose)
    assert not in_class(_cut_above_demand_instance())
    assert [min_vertex_cut(_cut_above_demand_instance(), i).value for i in (0, 1)] == [2, 1]
    assert cuts._DeletionQueries(loose)._needed == {11}
    assert cuts._DeletionQueries(direct)._needed == {0, 1}
    # An edge at a terminal with spare edges that no flow uses is
    # deletable, so a minimal network has only tight terminals.
    for m in (minimalize(loose), minimalize(direct)):
        assert all(m.degree(t) == p.demand for p in m.pairs for t in (p.source, p.sink))


def _bound_inputs():
    """In-class networks where the bound is off at some terminal, plus
    ``ones_graph(3, 3, 2)``, where every terminal is tight."""
    return [_loose_instance(), _tight_direct_instance(), ones_graph(3, 3, 2)]


def test_edges_at_tight_terminals_are_answered_without_search(monkeypatch):
    searches = []
    bfs_parent = FlowNet._bfs_parent

    def counting(self, s, t):
        searches.append((s, t))
        return bfs_parent(self, s, t)

    built = [cuts._DeletionQueries(g) for g in _bound_inputs()]
    labelled = _count_labellings(monkeypatch)
    monkeypatch.setattr(FlowNet, "_bfs_parent", counting)
    for queries in built:
        assert queries._needed
        assert queries.deletable(sorted(queries._needed)) == []
    assert not searches
    assert not labelled


def test_delete_refuses_an_edge_that_cannot_go():
    # An edge at a tight terminal, which deletable rejects unlabelled, and
    # every edge of a minimal lattice off its tight terminals, which the
    # labels reject: delete's search finds no path and raises, each on a
    # fresh object, since a failed delete leaves its flows part-moved.
    g = grid_graph(2, 2)
    eid = min(cuts._DeletionQueries(g)._needed)
    cases = [(g, eid)]
    lattice = grid_graph(3, 3)
    needed = cuts._DeletionQueries(lattice)._needed
    cases += [(lattice, eid) for eid in sorted(lattice.edge_by_id) if eid not in needed]
    assert len(cases) > 1
    for g, eid in cases:
        queries = cuts._DeletionQueries(g)
        assert queries.deletable([eid]) == []
        with pytest.raises(InvariantError) as err:
            queries.delete(eid)
        assert err.value.code == "edge-not-deletable", (g, eid)


def test_in_class_with_tight_terminals_matches_networkx():
    nx = pytest.importorskip("networkx")
    graphs = _bound_inputs() + [_cut_above_demand_instance()]
    # Every single deletion too: cuts below the demand, terminals that fall
    # below it, and a pair with no tight terminal whose cut stays above.
    graphs += [delete_edges(g, [eid]) for g in list(graphs) for eid in sorted(g.edge_by_id)]
    verdicts = []
    for g in graphs:
        exact = all(_nx_cut(nx, g, i) == pair.demand for i, pair in enumerate(g.pairs))
        assert in_class(g) == exact, g
        verdicts.append(exact)
    assert True in verdicts and False in verdicts


def test_is_reroutable_above_the_demand_matches_enumeration(monkeypatch):
    # Where a cut exceeds its demand, an augmenting path exists; the
    # component test must find the rerouting with no search of its own.
    fixture, _ = parse_instance((FIXTURES / "oracle_cut_above_demand.json").read_text())
    graphs = [fixture, _cut_above_demand_instance()]
    graphs += [delete_edges(g, [eid]) for g in list(graphs) for eid in sorted(g.edge_by_id)]
    cases = [(g, _cuts_and_systems(g)) for g in graphs]
    searches = []
    bfs_parent = FlowNet._bfs_parent

    def counting(self, s, t):
        searches.append((s, t))
        return bfs_parent(self, s, t)

    monkeypatch.setattr(FlowNet, "_bfs_parent", counting)
    above = 0
    for g, cuts_and_systems in cases:
        systems = [system for _, system in cuts_and_systems]
        for i, (value, system) in enumerate(cuts_and_systems):
            if system is None:
                continue
            above += value > g.pairs[i].demand
            want = len(enumerate_path_systems(g, i)) > 1
            assert is_reroutable(g, systems, i) == want, (serialize_network(g), i)
    assert not searches
    assert above >= 20


def _components(labels, nodes=None):
    """The node sets that share a label; ``labels[k]`` is the label of
    ``nodes[k]``, by default of node k."""
    got = {}
    for node, label in zip(range(len(labels)) if nodes is None else nodes, labels):
        got.setdefault(label, set()).add(node)
    return {frozenset(c) for c in got.values()}


def _nx_view(nx, net: FlowNet):
    """The unit residual view of ``net``'s flow, as a networkx digraph."""
    view = nx.DiGraph()
    view.add_nodes_from(range(len(net.adj)))
    for arc, c in enumerate(net.cap):
        if c > 0 and (arc % 2 or c == net.base_cap[arc]):
            view.add_edge(net.to[arc ^ 1], net.to[arc])
    return view


def _assert_rooted_labels_match(nx, net: FlowNet, roots):
    """The rooted labels of ``net`` against networkx: exactly the nodes the
    roots reach in the view are labelled, their partition is networkx's
    components, and every other node reads -1.  Returns how many nodes the
    roots reach."""
    view = _nx_view(nx, net)
    labels = strongly_connected_components(net, roots)
    # A new node with an arc to every root reaches what the roots reach.
    hub = len(net.adj)
    view.add_node(hub)
    view.add_edges_from((hub, root) for root in roots)
    reached = nx.descendants(view, hub)
    view.remove_node(hub)
    assert {node for node, label in enumerate(labels) if label >= 0} == reached
    assert all(labels[node] == -1 for node in range(len(labels)) if node not in reached)
    want = {frozenset(c) for c in nx.strongly_connected_components(view) if c & reached}
    assert _components([labels[node] for node in sorted(reached)], sorted(reached)) == want
    return len(reached)


def test_labels_match_networkx_components(monkeypatch):
    # Every pair of every label-corpus network, on two flows: its demand
    # flow, and its full system loaded as is_reroutable loads it.  Each is
    # labelled from three root sets: the tails its query roots the labels
    # at, a seeded random subset of its nodes, and every node, which
    # labels the whole view.
    nx = pytest.importorskip("networkx")
    rng = random.Random(31)
    loaded = []

    def recording(net, roots):
        loaded.append((net, list(roots)))
        return strongly_connected_components(net, roots)

    monkeypatch.setattr(minimality, "strongly_connected_components", recording)
    monkeypatch.setattr(cuts, "strongly_connected_components", recording)
    # Query tails that reach some nodes but not all, per query.
    partial = {"deletable": 0, "is_reroutable": 0}
    for g in LABEL_CORPUS:
        systems = cuts._full_systems(g)
        queries = cuts._DeletionQueries(g)
        nets = queries._nets
        for i in range(len(g.pairs)):
            # deletable labels pair i alone, rooted at its query tails.
            loaded.clear()
            queries._nets = [nets[i]]
            queries.deletable(sorted(g.edge_by_id))
            demand = loaded[0] if loaded else (nets[i].net, [])
            loaded.clear()
            is_reroutable(g, systems, i)
            assert len(loaded) == 1
            for query, (net, tails) in zip(partial, (demand, loaded[0])):
                nodes = range(len(net.adj))
                reached = _assert_rooted_labels_match(nx, net, tails)
                partial[query] += 0 < reached < len(nodes)
                for roots in (rng.sample(nodes, rng.randint(1, len(nodes))), nodes):
                    _assert_rooted_labels_match(nx, net, roots)
    assert min(partial.values()) >= 20, partial


def test_labels_of_a_long_relay_chain_need_no_recursion():
    # One pair joined by a chain of 20 000 interior vertices, ids in chain
    # order.  With no flow, both arcs of every chain edge and every interior
    # vertex arc are in the view, so the DFS from out(source) runs down the
    # whole chain, about 40 000 nodes deep, before its first node finishes.
    interior = 20_000
    chain = [0] + list(range(2, interior + 2)) + [1]
    ends = [(u, v, u == 0 or v == 1) for u, v in zip(chain, chain[1:])]
    built = cuts._compile_network(_network([Pair(0, 1, 1)], ends)).pair_net(0)
    labels = strongly_connected_components(built.net, range(len(built.net.adj)))
    assert len(labels) == len(built.net.adj) == 2 * (interior + 2)
    # The four terminal halves stand alone; every interior half is in one
    # component.
    assert _components(labels) == {
        frozenset({0}), frozenset({1}), frozenset({2}), frozenset({3}),
        frozenset(range(4, len(labels))),
    }


def _cuts_and_systems(g: Network):
    """Every pair's cut value and full system, read as ``hubmin check``
    reads them: the full systems, then each cut from the flow that they
    keep."""
    systems = cuts._full_systems(g)
    return [(min_vertex_cut(g, i).value, system) for i, system in enumerate(systems)]


def test_cuts_and_systems_match_the_single_pair_calls():
    graphs = CORPUS + [_cycle_instance(), ones_graph(3, 3, 2)]
    graphs += [delete_edges(grid_graph(4, 4), sorted(grid_graph(4, 4).edge_by_id)[::5])]
    for g in graphs:
        # A cut before the paths reads no kept flow, and the paths keep
        # theirs only after it.
        cuts._slot.split = None
        want = [
            (min_vertex_cut(g, i).value, vertex_disjoint_paths(g, i, pair.demand))
            for i, pair in enumerate(g.pairs)
        ]
        cuts._slot.split = None
        assert _cuts_and_systems(g) == want


def test_in_class_compiles_once(monkeypatch):
    compiles = []
    compile_network = cuts._compile_network
    monkeypatch.setattr(cuts, "_compile_network", lambda g: compiles.append(g) or compile_network(g))
    for g in (ones_graph(3, 3, 2), delete_edges(grid_graph(3, 3), [0])):
        compiles.clear()
        in_class(g)
        assert compiles == [g]


# ---------------------------------------------------------------------------
# The shared split network against a layout written out arc by arc, and
# against a net compiled for a single pair.
# ---------------------------------------------------------------------------


def _reference_layout(g: Network):
    """``_compile_network``'s arc lists and maps, and the step of each edge
    arc, one arc at a time: the vertex at sorted position i has in-node 2i
    and out-node 2i + 1 joined by arc 2i; then each edge in id order runs
    from its tail's out-node to its head's in-node, forward and then, if
    undirected, backward."""
    order = sorted(g.vertices)
    in_node = {v: 2 * i for i, v in enumerate(order)}
    to, adj = [], [[] for _ in range(2 * len(order))]

    def add_arc(tail, head):
        arc = len(to)
        to.extend((head, tail))
        adj[tail].append(arc)
        adj[head].append(arc + 1)
        return arc

    for v in order:
        add_arc(in_node[v], in_node[v] + 1)
    steps, arcs_of_edge = {}, {}
    for e in sorted(g.edges, key=lambda e: e.id):
        for forward in (True,) if e.directed else (True, False):
            tail, head = e.ends(forward)
            arc = add_arc(in_node[tail] + 1, in_node[head])
            steps[arc] = (e.id, forward)
            arcs_of_edge.setdefault(e.id, []).append(arc)
    return to, adj, in_node, steps, arcs_of_edge


def test_compiled_layout_matches_reference():
    graphs = CORPUS + [_cycle_instance(), _detour_instance(), ones_graph(3, 3, 2)]
    graphs += [grid_graph(c1, c2) for c1 in range(1, 5) for c2 in range(1, 5)]
    # Vertices and edges listed out of order, and ids with gaps.
    g = delete_edges(grid_graph(4, 4), sorted(grid_graph(4, 4).edge_by_id)[::5])
    graphs.append(Network(vertices=g.vertices[::-1], edges=g.edges[::-1], pairs=g.pairs))
    for g in graphs:
        split = cuts._compile_network(g)
        to, adj, vertex_arc, steps, arcs_of_edge = _reference_layout(g)
        assert (split.to, split.adj) == (to, adj), serialize_network(g)
        # The maps keep their insertion order too.
        assert list(split.vertex_arc.items()) == list(vertex_arc.items()), serialize_network(g)
        assert list(split.arcs_of_edge.items()) == list(arcs_of_edge.items())
        # Each edge arc maps back to its step.
        built = split.pair_net(0)
        first_edge_arc = 2 * len(split.vertex_arc)
        got = {arc: cuts._step(built, arc) for arc in range(first_edge_arc, len(to), 2)}
        assert list(got.items()) == list(steps.items()), serialize_network(g)


def _reference_pair_net(g: Network, pair_index: int) -> cuts._PairNet:
    """One pair's net compiled on its own: the pair's source and sink are the
    unsplit nodes s = 0 and t = 1, every other vertex is split into unit
    in/out halves, and direct source->sink edges of the pair get capacity 1."""
    pair = g.pairs[pair_index]
    to, cap, adj = [], [], []

    def add_node():
        adj.append([])
        return len(adj) - 1

    def add_arc(tail, head, c):
        arc = len(to)
        to.extend((head, tail))
        cap.extend((c, 0))
        adj[tail].append(arc)
        adj[head].append(arc + 1)
        return arc

    s, t = add_node(), add_node()
    vin = {pair.source: s, pair.sink: t}
    vout = dict(vin)
    vertex_arc, edge_of, arcs_of_edge = {}, [], {}
    for v in sorted(g.vertices):
        if v not in vin:
            vin[v], vout[v] = add_node(), add_node()
            vertex_arc[v] = add_arc(vin[v], vout[v], 1)

    def add_edge_arc(e, forward, c):
        tail, head = e.ends(forward)
        arc = add_arc(vout[tail], vin[head], c)
        edge_of.append(e.id)
        arcs_of_edge.setdefault(e.id, []).append(arc)

    for e in sorted(g.edges, key=lambda e: e.id):
        if e.directed:
            add_edge_arc(e, True, 1 if (e.u, e.v) == (pair.source, pair.sink) else INF)
        else:
            add_edge_arc(e, True, INF)
            add_edge_arc(e, False, INF)
    return cuts._PairNet(FlowNet(to, adj, cap), s, t, vertex_arc, edge_of, arcs_of_edge)


def _flow_answers(g: Network):
    """Everything the flow layer answers about ``g``."""
    out = []
    for i, pair in enumerate(g.pairs):
        cut = min_vertex_cut(g, i)
        out.append((cut.value, sorted(cut.separator)))
        for k in range(1, pair.demand + 2):
            system = vertex_disjoint_paths(g, i, k)
            out.append(None if system is None else [p.steps for p in system.paths])
    if len(g.edges) <= 30:
        report = min_hub_subgraph(g)
        edge_ids = sorted(report.min_hub_subgraph.edge_by_id)
        out.append((report.min_hubs, report.num_minimal_subgraphs, edge_ids))
    if not in_class(g):
        return out
    systems = [vertex_disjoint_paths(g, i, p.demand) for i, p in enumerate(g.pairs)]
    out.append([is_reroutable(g, systems, i) for i in range(len(g.pairs))])
    queries = cuts._DeletionQueries(g)
    out.append(queries.deletable(sorted(g.edge_by_id)))
    out.append([serialize_network(minimalize(g, seed)) for seed in (None, 5)])
    if len(g.pairs) == 2:
        out.append(theorem1_agreement(g, systems))
        out.append([deletable_private_edges(g, systems, i) for i in (0, 1)])
    return out


def test_split_network_answers_like_per_pair_nets(monkeypatch):
    graphs = CORPUS + [_cycle_instance(), ones_graph(3, 3, 2), ones_graph(2, 4, 1)]
    graphs += [grid_graph(c1, c2) for c1 in range(1, 5) for c2 in range(1, 5)]
    graphs += [delete_edges(grid_graph(4, 4), sorted(grid_graph(4, 4).edge_by_id)[::5])]
    shared = [_flow_answers(g) for g in graphs]
    monkeypatch.setattr(
        cuts._SplitNetwork,
        "pair_net",
        lambda self, i: _reference_pair_net(self.g, i),
    )
    for g, want in zip(graphs, shared):
        assert _flow_answers(g) == want, serialize_network(g)
    assert any(not in_class(g) for g in graphs)


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
        # One pair of demand 40 to 90 sizes the interior pool; the paths of
        # the others run long through it.
        demands = [rng.randint(40, 90)] + [rng.randint(4, 9) for _ in range(rng.choice([1, 2]))]
        g, _ = random_network(rng, demands, reuse=0.5, extra=rng.randint(40, 200))
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


def _per_unit_search(net: FlowNet, s: int, t: int):
    """Breadth-first search of the residual net, each node's arcs in order:
    the arc that first reached each node, or None when t is unreachable."""
    parent = {s: None}
    queue = [s]
    for node in queue:
        for arc in net.adj[node]:
            nxt = net.to[arc]
            if net.cap[arc] > 0 and nxt not in parent:
                parent[nxt] = arc
                if nxt == t:
                    return parent
                queue.append(nxt)
    return None


def _per_unit_max_flow(net: FlowNet, s: int, t: int, limit: int = INF) -> int:
    """Edmonds-Karp with one search per unit, the loop ``FlowNet.max_flow``
    runs in rounds, kept as its referee."""
    total = 0
    while total < limit:
        parent = _per_unit_search(net, s, t)
        if parent is None:
            break
        node = t
        while node != s:
            arc = parent[node]
            net.cap[arc] -= 1
            net.cap[arc ^ 1] += 1
            node = net.to[arc ^ 1]
        total += 1
    return total


def _refereed_max_flow(max_flow, net: FlowNet, s: int, t: int, limit: int = INF) -> int:
    """``max_flow(net, ...)``, checked against the referee run from the same
    flow: both must give the same value and leave the same capacities."""
    twin = FlowNet(net.to, net.adj, net.base_cap)
    twin.cap = list(net.cap)
    want = _per_unit_max_flow(twin, s, t, limit)
    value = max_flow(net, s, t, limit)
    assert (value, net.cap) == (want, twin.cap)
    return value


def _parallel_direct_instance() -> Network:
    """``grid_graph(2, 3)`` with two parallel direct source->sink edges on
    pair 0 and one on pair 1."""
    return _with_direct_edge(_with_direct_edge(_with_direct_edge(grid_graph(2, 3), 0), 0), 1)


def _shared_unit_instance() -> Network:
    """Pair 0 -> 1 (demand 2): the search reaches the sink through 2 and 4,
    then tails 5 and 6 in that order, whose tree paths share vertex 3's
    unit arc, while the sink's arcs list 6 before 5.  The second path must
    run through 5."""
    ends = [
        (0, 2, True), (0, 3, True), (2, 4, False), (3, 5, False),
        (3, 6, False), (4, 1, True), (6, 1, True), (5, 1, True),
    ]
    return _network([Pair(0, 1, 2)], ends)


def _pipeline_corpus():
    """Draws of the random-pipeline benchmark's recipe: every demand pair
    up to 6, every extra-edge count up to 6."""
    rng = random.Random(1)
    out = []
    for c1 in range(1, 7):
        for c2 in range(1, 7):
            reuses = [0.3 + 0.5 * (j + rng.random()) / 7 for j in range(7)]
            rng.shuffle(reuses)
            for extra, reuse in enumerate(reuses):
                out.append(random_network(rng, [c1, c2], reuse=reuse, extra=extra)[0])
    return out


def _oracle_corpus(count: int):
    """The first draws of the oracle-exhaustive benchmark's recipe, before
    it sorts them by their number of singly deletable edges."""
    rng = random.Random(1)
    demands = ((2, 2), (1, 3), (2, 3), (3, 3), (2, 2, 2), (1, 2, 2))
    return [
        random_network(
            rng, list(demands[k % len(demands)]), reuse=rng.uniform(0.3, 0.8), extra=rng.randint(0, 6)
        )[0]
        for k in range(count)
    ]


def test_max_flow_matches_a_search_per_unit_on_the_lattices():
    graphs = [grid_graph(c1, c2) for c1 in range(1, 17) for c2 in range(1, 17)]
    graphs += [
        ones_graph(c1, c2, n) for c1 in range(1, 5) for c2 in range(1, 5) for n in range(1, 4)
    ]
    for g in graphs:
        split = cuts._compile_network(g)
        for i in range(len(g.pairs)):
            built = split.pair_net(i)
            _refereed_max_flow(FlowNet.max_flow, built.net, built.s, built.t)


def test_max_flow_matches_a_search_per_unit_on_the_corpora():
    graphs = _pipeline_corpus() + _oracle_corpus(120) + CORPUS
    graphs += [_parallel_direct_instance(), _shared_unit_instance()]
    for g in graphs:
        split = cuts._compile_network(g)
        for i, pair in enumerate(g.pairs):
            for limit in (pair.demand, pair.demand + 1, INF):
                built = split.pair_net(i)
                _refereed_max_flow(FlowNet.max_flow, built.net, built.s, built.t, limit)


def test_library_flows_match_a_search_per_unit(monkeypatch):
    # Every max flow the library runs, from the flow its net carries: the
    # oracle's, whose deleted arcs are zeroed, and min_vertex_cut's
    # continuation of a kept flow that passed the demand.
    max_flow = FlowNet.max_flow
    starts = []

    def refereed(net, s, t, limit=INF):
        carrying = any(net.cap[1::2])
        starts.append("carrying" if carrying else "zeroed" if net.cap != net.base_cap else "fresh")
        return _refereed_max_flow(max_flow, net, s, t, limit)

    monkeypatch.setattr(FlowNet, "max_flow", refereed)
    direct = _parallel_direct_instance()
    for g in _pipeline_corpus()[::4] + CORPUS + [direct, _cut_above_demand_instance()]:
        _cuts_and_systems(g)
    for g in _oracle_corpus(60):
        if len(g.edges) <= 16:
            min_hub_subgraph(g)
    assert {"carrying", "zeroed", "fresh"} <= set(starts)
    assert starts.count("zeroed") >= 100


# ---------------------------------------------------------------------------
# cuts' compile slot: every answer served from the slot's compile and its
# kept flows equals the answer from a fresh compile.
# ---------------------------------------------------------------------------


def _slot_corpus():
    """Every lattice up to 8x8, the ``ones_graph`` family, 40 seeded
    two-pair draws (demands 1..6, 0..6 extra edges) raw and minimalized,
    and networks out of class."""
    graphs = [grid_graph(c1, c2) for c1 in range(1, 9) for c2 in range(1, 9)]
    graphs += [
        ones_graph(c1, c2, n) for c1 in range(1, 4) for c2 in range(1, 4) for n in (1, 2, 3)
    ]
    rng = random.Random(2026)
    for _ in range(40):
        demands = [rng.randint(1, 6), rng.randint(1, 6)]
        g, _ = random_network(rng, demands, reuse=rng.uniform(0.3, 0.8), extra=rng.randint(0, 6))
        graphs += [g, minimalize(g)]
    graphs += [delete_edges(grid_graph(2, 2), [0]), _cut_above_demand_instance()]
    graphs += [delete_edges(grid_graph(4, 4), sorted(grid_graph(4, 4).edge_by_id)[::5])]
    return graphs


SLOT_CORPUS = _slot_corpus()


def _answer(g: Network, result):
    """``result`` with every path system in it serialized, for comparison."""
    if isinstance(result, list):
        return [_answer(g, item) for item in result]
    if isinstance(result, tuple):
        return tuple(_answer(g, item) for item in result)
    if isinstance(result, PathSystem):
        return serialize_network(g, [result])
    return result


def _call(g: Network, query):
    """``query``'s answer on ``g``, or the error it raises."""
    name, *args = query
    try:
        if name == "cut":
            return min_vertex_cut(g, *args)
        if name == "paths":
            return _answer(g, vertex_disjoint_paths(g, *args))
        if name == "minimal":
            return is_minimal(g)
        if name == "in_class":
            return in_class(g)
        if name == "full":
            return _answer(g, cuts._full_systems(g))
        if name == "cuts_and_systems":
            return _answer(g, _cuts_and_systems(g))
        if name == "agreement":
            systems = cuts._full_systems(g) if args[0] == "own" else args[0]
            return theorem1_agreement(g, systems)
        if name == "reroutable":
            return is_reroutable(g, cuts._full_systems(g), args[0])
        if name == "minimalize":
            return serialize_network(minimalize(g))
    except InvariantError as err:
        return ("raises", str(err))
    raise AssertionError(name)


def _slot_orders(g: Network):
    """Call orders on one network, each of which leaves the slot holding it
    between calls, except that ``minimalize`` leaves its result there."""
    pairs = range(len(g.pairs))
    demands = [p.demand for p in g.pairs]
    orders = [
        [("cut", i) for i in pairs] + [("paths", i, d) for i, d in enumerate(demands)],
        [("paths", i, d) for i, d in enumerate(demands)] + [("cut", i) for i in pairs],
        [("paths", 0, demands[0]), ("minimal",), ("paths", 0, demands[0]), ("minimal",)],
        [("minimal",), ("minimal",), ("in_class",), ("full",)],
        [("full",), ("in_class",), ("full",), ("cuts_and_systems",), ("full",)],
        [("paths", i, k) for i, d in enumerate(demands) for k in (d - 1, d, d + 1, d) if k >= 1],
        [("full",), ("minimalize",), ("paths", 0, demands[0]), ("cut", 0)]
        + [("paths", 0, demands[0])],
    ]
    if len(g.pairs) == 2 and in_class(g):
        systems = cuts._full_systems(g)
        orders += [
            [("cuts_and_systems",), ("agreement", systems), ("minimal",)],
            [("paths", 0, demands[0]), ("paths", 1, demands[1]), ("agreement", "own")],
            [("full",), ("reroutable", 0), ("reroutable", 1), ("agreement", "own"), ("cut", 1)],
        ]
    return orders


def test_answers_through_the_slot_match_fresh_compiles():
    orders = 0
    kept = 0
    for g in SLOT_CORPUS:
        for order in _slot_orders(g):
            # Each call alone, on a fresh compile of g.
            fresh = []
            for query in order:
                cuts._slot.split = None
                fresh.append(_call(g, query))
            # The same calls in a row, each reading what the ones before
            # left in the slot.
            cuts._slot.split = None
            for query, want in zip(order, fresh):
                kept += bool(cuts._slot.split is not None and cuts._slot.split.flows)
                assert _call(g, query) == want, (serialize_network(g), order, query)
                if query[0] == "minimalize" and isinstance(want, str):
                    # The result takes over the compile of g.
                    assert serialize_network(cuts._slot.split.g) == want
                else:
                    assert cuts._slot.split.g is g
            orders += 1
    assert any(not in_class(g) for g in SLOT_CORPUS)
    assert orders > 1000 and kept > 1000


def _answers_on(h: Network) -> list:
    """The flow engine's answers about ``h``, in one call order: each
    pair's cut and its paths at every k to one past its cut and demand,
    membership, and, in class, minimality, each full system's
    reroutability and every single deletion."""
    out = []
    for i, pair in enumerate(h.pairs):
        cut = min_vertex_cut(h, i)
        out.append((cut.value, sorted(cut.separator)))
        top = max(cut.value, pair.demand) + 1
        out.append([vertex_disjoint_paths(h, i, k) for k in range(1, top + 1)])
    out.append(in_class(h))
    if out[-1]:
        systems = cuts._full_systems(h)
        out.append(is_minimal(h))
        out.append([is_reroutable(h, systems, i) for i in range(len(h.pairs))])
        out.append(cuts._DeletionQueries(h).deletable(sorted(h.edge_by_id)))
    return out


def _inherited_answers_match_fresh(h: Network) -> list:
    """``h``'s answers through the inherited split in the slot, checked
    against those after clearing the slot, which compile ``h`` afresh."""
    inherited = cuts._slot.split
    assert inherited.g is h and inherited.dead
    got = _answers_on(h)
    assert cuts._slot.split is inherited
    cuts._slot.split = None
    assert _answers_on(h) == got, serialize_network(h)
    assert not cuts._slot.split.dead
    return got


def test_the_inherited_split_answers_as_a_fresh_compile():
    # minimalize hands its result a split of its input's compile, with the
    # deleted edges' arcs dead.  Every answer read through it equals one of
    # a fresh compile: on the results of unseeded and seeded minimalize, on
    # networks that are not minimal, whose split inherits dead arcs over
    # two derivations, and on networks out of class.
    minimal = not_minimal = out_of_class = 0
    for index, g in enumerate(CORPUS):
        for seed in (None, index):
            m = minimalize(g, seed)
            if len(m.edges) < len(g.edges):
                _inherited_answers_match_fresh(m)
                minimal += 1

        queries = cuts._DeletionQueries(g)
        needed = sorted(queries._needed)
        left = queries.deletable(sorted(g.edge_by_id))
        if left:
            queries.delete(left[0])
            h1 = queries.result()
            first = cuts._slot.split
            queries = cuts._DeletionQueries(h1)
            assert queries._split is first
            left = queries.deletable(sorted(h1.edge_by_id))
        if left:
            queries.delete(left[-1])
            h2 = queries.result()
            assert len(cuts._slot.split.dead) > len(first.dead)
            # In class, so the answers end with is_minimal, is_reroutable
            # and deletable.
            not_minimal += not _inherited_answers_match_fresh(h2)[-3]

        if needed:
            h = delete_edges(g, needed[:1])
            cuts._slot.split = cuts._compile_network(g).without(h, needed[:1])
            out_of_class += not _inherited_answers_match_fresh(h)[-1]
    assert minimal > 90 and not_minimal > 30 and out_of_class == len(CORPUS)


def test_cuts_through_the_slot_match_networkx():
    nx = pytest.importorskip("networkx")
    for g in SLOT_CORPUS[::3]:
        systems = cuts._full_systems(g)
        for i in range(len(g.pairs)):
            # The cut reads the flow that _full_systems kept.
            assert cuts._slot.split.flows.get(i) is not None
            cut = min_vertex_cut(g, i)
            assert cut.value == _nx_cut(nx, g, i), serialize_network(g)
            assert _nx_separates(nx, g, i, cut.separator)
            assert (systems[i] is None) == (cut.value < g.pairs[i].demand)


def test_each_pair_runs_one_kept_flow_to_its_limit(monkeypatch):
    # Pair 0 of the loose instance has no tight terminal, so its flow runs
    # to one unit past its demand of 1; pair 1's sink is tight, so its flow
    # stops at the demand.  The flows stay kept for the queries after, until
    # the deletion queries behind is_minimal take them.
    limits = []
    max_flow = FlowNet.max_flow

    def recording(net, s, t, limit=INF):
        limits.append(limit)
        return max_flow(net, s, t, limit)

    monkeypatch.setattr(FlowNet, "max_flow", recording)
    g = _loose_instance()
    cuts._full_systems(g)
    assert limits == [2, 1]
    limits.clear()
    assert in_class(g) and in_class(g) and sorted(cuts._slot.split.flows) == [0, 1]
    assert limits == []
    assert not is_minimal(g) and not cuts._slot.split.flows
    # Nothing is kept now, so the next check runs both flows again.
    limits.clear()
    assert in_class(g)
    assert limits == [2, 1]


def test_a_cut_above_the_demand_takes_its_flow_out_of_the_split():
    # Each pair of the lattice has cut 3 against a demand of 1, so its kept
    # flow stops at 2 and the cut runs it on to 3.  The split then keeps no
    # flow for the pair, and a second cut and the paths start afresh.
    lattice = grid_graph(3, 3)
    g = Network(
        vertices=lattice.vertices,
        edges=lattice.edges,
        pairs=tuple(Pair(p.source, p.sink, 1) for p in lattice.pairs),
    )
    want = []
    for i in (0, 1):
        cuts._slot.split = None
        want.append(min_vertex_cut(g, i))
        cuts._slot.split = None
        want.append(vertex_disjoint_paths(g, i, 1))
    cuts._slot.split = None
    # Membership stops at pair 0, the first pair whose cut differs.
    assert not in_class(g) and sorted(cuts._slot.split.flows) == [0]
    for i in (0, 1):
        assert min_vertex_cut(g, i) == want[2 * i] and i not in cuts._slot.split.flows
        assert min_vertex_cut(g, i) == want[2 * i] and want[2 * i].value == 3
        assert vertex_disjoint_paths(g, i, 1) == want[2 * i + 1]


def test_the_slot_keeps_only_the_network_queried_last():
    a, _ = random_network(11, (3, 2), extra=4)
    b, _ = random_network(12, (2, 3), extra=4)
    vertex_disjoint_paths(a, 0, a.pairs[0].demand)
    assert cuts._slot.split.g is a
    ref = weakref.ref(a)
    for i, pair in enumerate(b.pairs):
        vertex_disjoint_paths(b, i, pair.demand)
    del a
    gc.collect()
    assert ref() is None
    # The last network, its compile and one net per pair.
    assert cuts._slot.split.g is b and sorted(cuts._slot.split.flows) == [0, 1]


def test_paths_below_the_demand_come_from_a_flow_of_their_own():
    # A kept flow cannot serve k < demand: its first k paths often
    # differ from those of a flow stopped at k.
    differ = 0
    for g in SLOT_CORPUS:
        for i, pair in enumerate(g.pairs):
            for k in range(1, pair.demand):
                split = cuts._compile_network(g)
                own, kept = split.pair_net(i), split.pair_net(i)
                if own.net.max_flow(own.s, own.t, limit=k) < k:
                    continue
                kept.net.max_flow(kept.s, kept.t, limit=pair.demand)
                want = cuts._decompose(g, i, own, k)
                vertex_disjoint_paths(g, i, pair.demand)
                assert vertex_disjoint_paths(g, i, k) == want, serialize_network(g)
                differ += cuts._decompose(g, i, kept, k) != want
    assert differ > 50


def test_threads_share_no_kept_flow(monkeypatch):
    # A reader in one thread decomposes pair 0's kept flow while another
    # thread minimalizes the same network: its deletion queries take what
    # its own slot keeps and move those flows off the edges they delete.
    # The moved flow of pair 0 decomposes into other paths, so a flow
    # shared between the threads would change the reader's answer.
    g, _ = random_network(11, (3, 2), extra=3)
    demand = g.pairs[0].demand
    want_paths = vertex_disjoint_paths(g, 0, demand)
    kept = cuts._slot.split.flows[0][0]
    want_minimal = minimalize(g)
    assert cuts._decompose(g, 0, kept, demand) != want_paths

    holding, released = threading.Event(), threading.Event()
    decompose = cuts._decompose

    def waiting(*args):
        if threading.current_thread() is reader:
            holding.set()
            released.wait(timeout=60)
        return decompose(*args)

    monkeypatch.setattr(cuts, "_decompose", waiting)
    got = []
    reader = threading.Thread(target=lambda: got.append(vertex_disjoint_paths(g, 0, demand)))
    reader.start()
    try:
        assert holding.wait(timeout=60)
        minimal = minimalize(g)
    finally:
        released.set()
        reader.join(timeout=60)
    assert not reader.is_alive()
    assert got == [want_paths] and minimal == want_minimal
