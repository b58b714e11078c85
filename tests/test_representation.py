"""Canonical degree-3 form: relay merging, crossing stretch, direction match,
and the alternating-path decomposition."""

from __future__ import annotations

import pytest

from hubmin import (
    Edge,
    InvariantError,
    Network,
    Pair,
    Path,
    PathSystem,
    Representation,
    classify_edges,
    decompose_private,
    delete_edges,
    grid_graph,
    grid_instance,
    hub_count,
    in_class,
    is_minimal,
    make_path_system,
    match_directions,
    minimalize,
    random_network,
    remove_relays,
    stretch_crossings,
    to_representation,
    vertex_disjoint_paths,
)

from hubmin import cuts
from hubmin._flownet import FlowNet
from hubmin.representation import hub_table
from hubmin.acceptance import directions_agree

from conftest import two_pair_corpus


def _net(vertices, edges, pairs):
    return Network(vertices=tuple(vertices), edges=tuple(edges), pairs=tuple(pairs))


def _relay_case():
    """Both systems share the chain a-c-b; c is a relay."""
    g = _net(
        [0, 1, 2, 3, 4, 5, 6],
        [
            Edge(0, 0, 4, True),
            Edge(1, 4, 6, False),
            Edge(2, 6, 5, False),
            Edge(3, 2, 4, True),
            Edge(4, 5, 1, True),
            Edge(5, 5, 3, True),
        ],
        [Pair(0, 1, 1), Pair(2, 3, 1)],
    )
    phi = make_path_system(g, 0, [Path(((0, True), (1, True), (2, True), (4, True)))])
    psi = make_path_system(g, 1, [Path(((3, True), (1, True), (2, True), (5, True)))])
    return g, [phi, psi]


def _crossing_case():
    """After merging the relay x, vertex b is a two-in two-out crossing."""
    g = _net(
        [0, 1, 2, 3, 4, 5],
        [
            Edge(0, 0, 4, True),
            Edge(1, 4, 5, False),
            Edge(2, 2, 5, True),
            Edge(3, 5, 1, True),
            Edge(4, 5, 3, True),
        ],
        [Pair(0, 1, 1), Pair(2, 3, 1)],
    )
    phi = make_path_system(g, 0, [Path(((0, True), (1, True), (3, True)))])
    psi = make_path_system(g, 1, [Path(((2, True), (4, True)))])
    return g, [phi, psi]


def _conflict_case():
    """The systems traverse the public edge 1 in opposite directions."""
    g = _net(
        [0, 1, 2, 3, 4, 5],
        [
            Edge(0, 0, 4, True),
            Edge(1, 4, 5, False),
            Edge(2, 5, 1, True),
            Edge(3, 2, 5, True),
            Edge(4, 4, 3, True),
        ],
        [Pair(0, 1, 1), Pair(2, 3, 1)],
    )
    phi = make_path_system(g, 0, [Path(((0, True), (1, True), (2, True)))])
    psi = make_path_system(g, 1, [Path(((3, True), (1, False), (4, True)))])
    return g, [phi, psi]


# ---------------------------------------------------------------------------
# Relay merging.
# ---------------------------------------------------------------------------


def test_remove_relays_merges_shared_chain():
    g, systems = _relay_case()
    g1, systems1 = remove_relays(g, systems)
    assert sorted(g1.vertices) == [0, 1, 2, 3, 4, 5]
    merged = g1.edge_by_id[6]
    assert {merged.u, merged.v} == {4, 5} and not merged.directed
    assert sorted(g1.edge_by_id) == [0, 3, 4, 5, 6]  # edges 1 and 2 became 6
    # Both rewritten systems traverse the merged edge.
    for s in systems1:
        assert 6 in s.orientation


def test_remove_relays_infers_terminal_direction():
    g, systems = _crossing_case()
    g1, _ = remove_relays(g, systems)
    merged = g1.edge_by_id[5]
    assert (merged.u, merged.v, merged.directed) == (0, 5, True)
    assert sorted(g1.edge_by_id) == [2, 3, 4, 5]  # edges 0 and 1 became 5


def test_remove_relays_preserves_hub_count():
    for g, _ in two_pair_corpus(seed=301, count=15, extra=1):
        h = minimalize(g)
        systems = [vertex_disjoint_paths(h, i, p.demand) for i, p in enumerate(h.pairs)]
        h1, _ = remove_relays(h, systems)
        assert int(hub_count(h1)) == int(hub_count(h))


def test_remove_relays_merges_in_ascending_vertex_order():
    # Listing the vertices backwards changes neither the merged edges nor
    # their new ids.
    merged = 0
    for g, _ in two_pair_corpus(seed=306, count=10, extra=1):
        h = minimalize(g)
        systems = [vertex_disjoint_paths(h, i, p.demand) for i, p in enumerate(h.pairs)]
        backwards = _net(h.vertices[::-1], h.edges, h.pairs)
        h1, _ = remove_relays(h, systems)
        b1, _ = remove_relays(
            backwards, [make_path_system(backwards, s.pair_index, s.paths) for s in systems]
        )
        assert b1.edges == h1.edges
        merged += len(h.edges) - len(h1.edges)
    assert merged >= 10


def test_remove_relays_drops_isolated_vertices():
    g0 = grid_graph(2, 2)
    g = _net(tuple(g0.vertices) + (99,), g0.edges, g0.pairs)
    systems = [vertex_disjoint_paths(g, i, 2) for i in range(2)]
    g1, _ = remove_relays(g, systems)
    assert 99 not in g1.vertices
    assert set(g0.vertices) <= set(g1.vertices)


def test_remove_relays_rejects_degenerate_relay():
    g = _net(
        [0, 1, 2, 3],
        [
            Edge(0, 0, 2, True),
            Edge(1, 2, 3, False),
            Edge(2, 3, 2, False),
            Edge(3, 2, 1, True),
        ],
        [Pair(0, 1, 1)],
    )
    phi = make_path_system(g, 0, [Path(((0, True), (3, True)))])
    with pytest.raises(InvariantError) as err:
        remove_relays(g, [phi])
    assert err.value.code == "degenerate-relay"


def _bad_merge_case():
    """Relay 6 hangs between the two sources, so its merged edge (9, after
    relay 5's edge 8) enters a source; relay 7 would close a loop, but
    comes after 6."""
    g = _net(
        range(8),
        [
            Edge(0, 0, 4, True),
            Edge(1, 4, 1, True),
            Edge(2, 2, 5, True),
            Edge(3, 5, 3, True),
            Edge(4, 0, 6, True),
            Edge(5, 2, 6, True),
            Edge(6, 4, 7, False),
            Edge(7, 7, 4, False),
        ],
        [Pair(0, 1, 1), Pair(2, 3, 1)],
    )
    phi = make_path_system(g, 0, [Path(((0, True), (1, True)))])
    psi = make_path_system(g, 1, [Path(((2, True), (3, True)))])
    return g, [phi, psi]


def test_remove_relays_fails_at_the_first_bad_merge():
    with pytest.raises(InvariantError) as err:
        remove_relays(*_bad_merge_case())
    assert str(err.value) == "source-incoming-edge: edge 9 at 2"


# ---------------------------------------------------------------------------
# Crossing stretch.
# ---------------------------------------------------------------------------


def test_stretch_crossings_splits_crossing_vertex():
    g, systems = _crossing_case()
    g1, systems1 = remove_relays(g, systems)
    g2, systems2 = stretch_crossings(g1, systems1)
    assert sorted(g2.vertices) == [0, 1, 2, 3, 6, 7]
    # Vertex 5's four edges now end at its halves 6 and 7.
    for eid in g1.incident[5]:
        assert {g2.edge_by_id[eid].u, g2.edge_by_id[eid].v} & {6, 7}, eid
    assert int(hub_count(g2)) == int(hub_count(g1)) + 1
    # The new edge is public: both systems traverse it, the same way.
    tags = classify_edges(g2, systems2)
    new_eid = max(g2.edge_by_id)
    assert tags[new_eid] == "public"
    assert systems2[0].orientation[new_eid] == systems2[1].orientation[new_eid]


def _degree_five_case():
    """The crossing case with an unused edge 4-5 added."""
    g, systems = _crossing_case()
    bigger = _net(
        g.vertices,
        tuple(g.edges) + (Edge(5, 4, 5, False),),
        g.pairs,
    )
    return bigger, [make_path_system(bigger, s.pair_index, s.paths) for s in systems]


def test_stretch_crossings_rejects_degree_five():
    with pytest.raises(InvariantError) as err:
        stretch_crossings(*_degree_five_case())
    assert str(err.value) == (
        "unexpected-degree-4: vertex 5 has degree 5 with tags "
        "{phi: 2, psi: 2, public: 0, unused: 1}"
    )


def _wrong_tag_mix_case():
    """A degree-4 vertex with two unused edges is not a crossing."""
    g = _net(
        [0, 1, 2, 3, 4, 5, 6],
        [
            Edge(0, 0, 4, True),
            Edge(1, 4, 5, False),
            Edge(2, 2, 5, True),
            Edge(3, 5, 1, True),
            Edge(4, 5, 6, False),
            Edge(5, 2, 3, True),
        ],
        [Pair(0, 1, 1), Pair(2, 3, 1)],
    )
    phi = make_path_system(g, 0, [Path(((0, True), (1, True), (3, True)))])
    psi = make_path_system(g, 1, [Path(((5, True),))])
    return g, [phi, psi]


def test_stretch_crossings_rejects_wrong_tag_mix():
    with pytest.raises(InvariantError) as err:
        stretch_crossings(*_wrong_tag_mix_case())
    assert str(err.value) == (
        "unexpected-degree-4: vertex 5 has degree 4 with tags "
        "{phi: 2, psi: 0, public: 0, unused: 2}"
    )


def _one_way_crossing_case():
    """The tags are a crossing's, but a path that walks edge 3 backward, so
    that the first system enters vertex 5 on both of its edges, leaves
    three in, one out.  Direct construction does not check the path."""
    g, systems = _crossing_case()
    g1, (phi, psi) = remove_relays(g, systems)
    bent = PathSystem(
        pair_index=0,
        paths=tuple(
            Path(tuple((eid, forward if eid != 3 else not forward) for eid, forward in path.steps))
            for path in phi.paths
        ),
    )
    return g1, [bent, psi]


def test_stretch_crossings_rejects_a_crossing_walked_one_way():
    with pytest.raises(InvariantError) as err:
        stretch_crossings(*_one_way_crossing_case())
    assert str(err.value) == "unexpected-degree-4: vertex 5 is not a two-in two-out crossing"


def test_representation_requires_each_pair_s_system_in_its_place():
    g, _ = random_network(4, (2, 3), extra=2)
    m = minimalize(g)
    phi, psi = (vertex_disjoint_paths(m, i, p.demand) for i, p in enumerate(m.pairs))
    for systems, message in (
        ([psi, phi], "system-pair-mismatch: systems[0] holds pair 1's system"),
        ([phi, phi], "system-pair-mismatch: systems[1] holds pair 0's system"),
        ([phi], "two-systems-required: got 1"),
    ):
        with pytest.raises(InvariantError) as err:
            to_representation(m, systems)
        assert str(err.value) == message
    assert to_representation(m, [phi, psi]) == to_representation(m)


def test_remove_relays_requires_each_pair_s_system_in_its_place(example_instance):
    g, (phi, psi) = example_instance
    for systems, detail in (
        ([psi, phi], "systems[0] holds pair 1's system"),
        ([phi, phi], "systems[1] holds pair 0's system"),
    ):
        with pytest.raises(InvariantError) as err:
            remove_relays(g, systems)
        assert str(err.value) == f"system-pair-mismatch: {detail}"
    assert remove_relays(g, [phi, psi])[1] == [phi, psi]


def test_rewrites_require_two_systems():
    # With or without a crossing or an opposed public edge to rewrite.
    for step, case in (
        (stretch_crossings, _crossing_case),
        (stretch_crossings, _relay_case),
        (match_directions, _conflict_case),
        (match_directions, _relay_case),
    ):
        g, systems = case()
        with pytest.raises(InvariantError) as err:
            step(g, systems[:1])
        assert str(err.value) == "two-systems-required: got 1", (step.__name__, case.__name__)


def test_rewrites_return_a_canonical_input_untouched():
    # A lattice has no relay, crossing or opposed public edge: each step
    # hands back the network object it was given.
    spec = grid_instance(4, 5)
    g, systems = spec.network, list(spec.systems)
    for step in (remove_relays, stretch_crossings, match_directions):
        out, out_systems = step(g, systems)
        assert out is g, step.__name__
        assert out_systems == systems, step.__name__


# ---------------------------------------------------------------------------
# Direction matching.
# ---------------------------------------------------------------------------


def test_match_directions_rewires_opposing_public_edge():
    g, systems = _conflict_case()
    g3, systems3 = match_directions(g, systems)
    assert sorted(g3.edge_by_id) == [0, 1, 2, 5, 6]
    e5, e6 = g3.edge_by_id[5], g3.edge_by_id[6]
    assert (e5.u, e5.v, e5.directed) == (2, 4, True)
    assert (e6.u, e6.v, e6.directed) == (5, 3, True)
    # Edges 5 and 6 keep the outer ends of the edges 3 and 4 they replace.
    assert (e5.u, e6.v) == (g.edge_by_id[3].u, g.edge_by_id[4].v)
    assert systems3[0].orientation[1] == systems3[1].orientation[1]
    assert systems3[1].paths[0].steps == ((5, True), (1, True), (6, True))


def test_match_directions_swaps_in_ascending_edge_order():
    # Two copies of the conflict case, one per unit of demand: the public
    # edges 1 and 6 are both traversed against the first system.
    g = _net(
        range(8),
        [
            Edge(0, 0, 4, True),
            Edge(1, 4, 5, False),
            Edge(2, 5, 1, True),
            Edge(3, 2, 5, True),
            Edge(4, 4, 3, True),
            Edge(5, 0, 6, True),
            Edge(6, 6, 7, False),
            Edge(7, 7, 1, True),
            Edge(8, 2, 7, True),
            Edge(9, 6, 3, True),
        ],
        [Pair(0, 1, 2), Pair(2, 3, 2)],
    )
    first = Path(((0, True), (1, True), (2, True)))
    second = Path(((5, True), (6, True), (7, True)))
    psi = make_path_system(g, 1, [Path(((3, True), (1, False), (4, True))),
                                  Path(((8, True), (6, False), (9, True)))])
    # Whichever order the first system lists its paths in.
    for phi_paths in ([first, second], [second, first]):
        phi = make_path_system(g, 0, phi_paths)
        g3, systems3 = match_directions(g, [phi, psi])
        # Each swap replaces its conflict's two edges, in ascending order.
        for new, old in ((10, 3), (12, 8)):
            assert g3.edge_by_id[new].u == g.edge_by_id[old].u, new
        for new, old in ((11, 4), (13, 9)):
            assert g3.edge_by_id[new].v == g.edge_by_id[old].v, new
        assert [p.steps for p in systems3[1].paths] == [
            ((10, True), (1, True), (11, True)),
            ((12, True), (6, True), (13, True)),
        ]
        assert [e.id for e in g3.edges] == [0, 1, 2, 5, 6, 7, 10, 11, 12, 13]


def test_natural_direction_prefers_the_first_system():
    # The conflict case's graph with hub 4's edges to S2 and R2 swapped, so
    # it decomposes; psi is built directly, as no checked path walks edge 1
    # backward here.
    g = _net(
        [0, 1, 2, 3, 4, 5],
        [
            Edge(0, 0, 4, True),
            Edge(1, 4, 5, False),
            Edge(2, 5, 1, True),
            Edge(3, 2, 4, True),
            Edge(4, 5, 3, True),
        ],
        [Pair(0, 1, 1), Pair(2, 3, 1)],
    )
    phi = make_path_system(g, 0, [Path(((0, True), (1, True), (2, True)))])
    psi = PathSystem(pair_index=1, paths=(Path(((3, True), (1, False), (4, True))),))
    direction = hub_table(Representation(graph=g, systems=(phi, psi))).direction
    assert direction[1] is True  # psi walks edge 1 backward
    for e in g.edges:
        want = phi.orientation.get(e.id, psi.orientation.get(e.id))
        assert direction[e.id] is want
    with pytest.raises(KeyError):
        direction[99]


def test_directions_agree_rejects_opposed_systems():
    g, (phi, psi) = _conflict_case()
    rep = Representation(graph=g, systems=(phi, psi))
    assert not directions_agree(rep)
    g3, systems3 = match_directions(g, [phi, psi])
    matched = Representation(graph=g3, systems=tuple(systems3))
    assert directions_agree(matched)


def test_match_directions_preserves_degrees_and_hubs():
    g, systems = _conflict_case()
    g3, _ = match_directions(g, systems)
    assert int(hub_count(g3)) == int(hub_count(g))
    degrees = sorted(g.degree(v) for v in g.vertices)
    assert sorted(g3.degree(v) for v in g3.vertices) == degrees


def test_match_directions_noop_when_already_oriented():
    g, systems = _relay_case()
    g3, systems3 = match_directions(g, systems)
    assert g3 is g
    assert [s.paths for s in systems3] == [s.paths for s in systems]


# ---------------------------------------------------------------------------
# The full transformation.
# ---------------------------------------------------------------------------


def test_to_representation_is_identity_on_canonical_input(example_instance):
    g, systems = example_instance
    rep = to_representation(g, systems)
    assert rep.graph is g
    assert directions_agree(rep)
    assert [s.paths for s in rep.systems] == [s.paths for s in systems]


def test_to_representation_computes_systems_when_missing():
    rep = to_representation(grid_graph(2, 2))
    assert len(rep.systems[0].paths) == 2 and len(rep.systems[1].paths) == 2


def test_to_representation_requires_two_pairs():
    g, systems = random_network(1, (2, 2, 2))
    with pytest.raises(InvariantError) as err:
        to_representation(g, systems)
    assert err.value.code == "two-pairs-required"


def test_to_representation_rejects_deficient_graph():
    with pytest.raises(InvariantError) as err:
        to_representation(delete_edges(grid_graph(2, 2), [0]))
    assert err.value.code == "not-in-class"


def test_to_representation_names_the_first_pair_without_a_system():
    for doomed, pair in (([0], 0), ([10], 1), ([10, 0], 0)):
        with pytest.raises(InvariantError) as err:
            to_representation(delete_edges(grid_graph(2, 2), doomed))
        assert str(err.value) == f"not-in-class: pair {pair} has no full system"


def test_to_representation_compiles_once_without_systems(monkeypatch):
    compiles = []
    compile_network = cuts._compile_network
    monkeypatch.setattr(cuts, "_compile_network", lambda g: compiles.append(g) or compile_network(g))
    g = grid_graph(3, 3)
    rep = to_representation(g)
    assert compiles == [g]
    assert [s.paths for s in rep.systems] == [
        vertex_disjoint_paths(g, i, p.demand).paths for i, p in enumerate(g.pairs)
    ]


def test_to_representation_stops_each_flow_at_the_demand(monkeypatch):
    # One search per pair finds all three paths, and no failing search
    # follows (one search per unit would make three per pair).
    searches = []
    bfs_parent = FlowNet._bfs_parent
    monkeypatch.setattr(
        FlowNet, "_bfs_parent", lambda net, s, t: searches.append(s) or bfs_parent(net, s, t)
    )
    g = grid_graph(3, 3)
    rep = to_representation(g)
    assert len(searches) == 2
    assert [s.paths for s in rep.systems] == [
        vertex_disjoint_paths(g, i, p.demand).paths for i, p in enumerate(g.pairs)
    ]


def _chained_error(g, systems) -> str:
    """The text of what the three public rewrites, chained, raise."""
    with pytest.raises(InvariantError) as err:
        match_directions(*stretch_crossings(*remove_relays(g, systems)))
    return str(err.value)


def test_to_representation_raises_what_the_chained_rewrites_raise():
    # The rewrite error inputs pinned above; the degenerate relay gets a
    # second pair (a direct edge 4 -> 5), as to_representation takes two.
    g = _net(
        range(6),
        [
            Edge(0, 0, 2, True),
            Edge(1, 2, 3, False),
            Edge(2, 3, 2, False),
            Edge(3, 2, 1, True),
            Edge(4, 4, 5, True),
        ],
        [Pair(0, 1, 1), Pair(4, 5, 1)],
    )
    degenerate = (
        g,
        [
            make_path_system(g, 0, [Path(((0, True), (3, True)))]),
            make_path_system(g, 1, [Path(((4, True),))]),
        ],
    )
    cases = {
        "degenerate relay": degenerate,
        "bad merge": _bad_merge_case(),
        "degree five": _degree_five_case(),
        "wrong tag mix": _wrong_tag_mix_case(),
        "one-way crossing": _one_way_crossing_case(),
    }
    for case in (_crossing_case, _relay_case, _conflict_case):
        g, systems = case()
        cases[f"one system, {case.__name__}"] = (g, systems[:1])
    texts = set()
    for name, (g, systems) in cases.items():
        want = _chained_error(g, systems)
        with pytest.raises(InvariantError) as err:
            to_representation(g, systems)
        assert str(err.value) == want, name
        texts.add(want)
    assert len(texts) == 6


def test_to_representation_rejects_a_pendant_vertex():
    # A vertex hanging off the first source keeps degree 1, whether or not a
    # rewrite has work to do.
    for g, systems in (_relay_case(), (grid_graph(2, 2), None)):
        source = g.pairs[0].source
        pendant = max(g.vertices) + 1
        h = _net(
            g.vertices + (pendant,),
            g.edges + (Edge(max(g.edge_by_id) + 1, source, pendant, True),),
            g.pairs,
        )
        if systems is None:
            systems = [vertex_disjoint_paths(g, i, p.demand) for i, p in enumerate(g.pairs)]
        systems = [make_path_system(h, s.pair_index, s.paths) for s in systems]
        with pytest.raises(InvariantError) as err:
            to_representation(h, systems)
        assert str(err.value) == (
            f"decomposition-violation: non-terminal vertex {pendant} has degree 1 "
            "after transformation"
        )


def test_representation_properties_on_corpus():
    for g, _ in two_pair_corpus(seed=302, count=25, extra=1):
        h = minimalize(g)
        rep = to_representation(h)
        assert in_class(rep.graph)
        assert is_minimal(rep.graph)
        for v in rep.graph.vertices:
            if not rep.graph.is_terminal(v):
                assert rep.graph.degree(v) == 3
        # Natural orientation: public edges agree across systems.
        phi, psi = rep.systems
        for eid in phi.edge_ids() & psi.edge_ids():
            assert phi.orientation[eid] == psi.orientation[eid]


def test_hub_counts_along_the_pipeline():
    # Relay merging and direction matching keep the hub count; stretching
    # adds one hub per crossing.
    for g, _ in two_pair_corpus(seed=303, count=20, extra=1):
        h = minimalize(g)
        systems = [vertex_disjoint_paths(h, i, p.demand) for i, p in enumerate(h.pairs)]
        h1, s1 = remove_relays(h, systems)
        h2, s2 = stretch_crossings(h1, s1)
        h3, _ = match_directions(h2, s2)
        assert int(hub_count(h)) == int(hub_count(h1))
        assert int(hub_count(h1)) <= int(hub_count(h2))
        assert int(hub_count(h2)) == int(hub_count(h3))


# ---------------------------------------------------------------------------
# Alternating-path decomposition.
# ---------------------------------------------------------------------------


def test_example_decomposition_is_frozen(example_instance):
    g, systems = example_instance
    paths = decompose_private(to_representation(g, systems))
    got = [(a.kind, a.steps, a.upper, a.lower, a.choke) for a in paths]
    assert got == [
        ("S1S2", (0, 1), (), (4,), 4),
        ("S1S2", (3, 5, 6, 4), (5,), (8, 6), 6),
        ("R2R1", (11, 9, 10, 12), (9, 7), (10,), 7),
        ("R2R1", (14, 15), (11,), (), 11),
    ]


def test_decomposition_counts_and_partition():
    for g, _ in two_pair_corpus(seed=304, count=25, extra=1):
        h = minimalize(g)
        rep = to_representation(h)
        paths = decompose_private(rep)
        c1, c2 = h.pairs[0].demand, h.pairs[1].demand
        assert len(paths) == c1 + c2
        kinds = {k: sum(1 for a in paths if a.kind == k) for k in
                 ("S1S2", "S1R1", "R2S2", "R2R1")}
        delta = kinds["S1S2"]
        assert kinds["R2R1"] == delta
        assert kinds["S1R1"] == c1 - delta
        assert kinds["R2S2"] == c2 - delta
        assert 0 <= delta <= min(c1, c2)
        # Private edges are partitioned among the paths.
        tags = classify_edges(rep.graph, rep.systems)
        private = {eid for eid, t in tags.items() if t in ("phi", "psi")}
        step_union = [eid for a in paths for eid in a.steps]
        assert sorted(step_union) == sorted(private)
        # So are the hubs, across the decks.
        hubs = {v for v in rep.graph.vertices if not rep.graph.is_terminal(v)}
        deck_union = [v for a in paths for v in a.upper + a.lower]
        assert sorted(deck_union) == sorted(hubs)


def test_decomposition_alternates_tags_and_places_chokes():
    for g, _ in two_pair_corpus(seed=305, count=15, extra=0):
        h = minimalize(g)
        rep = to_representation(h)
        tags = classify_edges(rep.graph, rep.systems)
        for a in decompose_private(rep):
            for left, right in zip(a.steps, a.steps[1:]):
                assert tags[left] != tags[right]
            if a.kind == "S1S2":
                assert a.choke == a.lower[-1]
            elif a.kind == "R2R1":
                assert a.choke == a.upper[-1]
            else:
                assert a.choke is None


def test_decomposition_rejects_unused_edges(example_instance):
    g, systems = example_instance
    rep = to_representation(g, systems)
    extra = Edge(99, 4, 6, False)  # between two existing interior vertices
    bigger = Network(
        vertices=rep.graph.vertices,
        edges=tuple(rep.graph.edges) + (extra,),
        pairs=rep.graph.pairs,
    )
    phi = make_path_system(bigger, 0, rep.systems[0].paths)
    psi = make_path_system(bigger, 1, rep.systems[1].paths)
    from hubmin import Representation

    fake = Representation(graph=bigger, systems=(phi, psi))
    with pytest.raises(InvariantError) as err:
        decompose_private(fake)
    assert err.value.code == "decomposition-violation"
