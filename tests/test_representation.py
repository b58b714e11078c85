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
    Representation,
    classify_edges,
    decompose_private,
    delete_edges,
    grid_graph,
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
    g1, systems1, prov = remove_relays(g, systems)
    assert sorted(g1.vertices) == [0, 1, 2, 3, 4, 5]
    merged = g1.edge_by_id[6]
    assert {merged.u, merged.v} == {4, 5} and not merged.directed
    assert prov["edges"] == {6: 1}
    # Both rewritten systems traverse the merged edge.
    for s in systems1:
        assert 6 in s.orientation


def test_remove_relays_infers_terminal_direction():
    g, systems = _crossing_case()
    g1, _, prov = remove_relays(g, systems)
    merged = g1.edge_by_id[5]
    assert (merged.u, merged.v, merged.directed) == (0, 5, True)
    assert prov["edges"] == {5: 0}


def test_remove_relays_preserves_hub_count():
    for g, _ in two_pair_corpus(seed=301, count=15, extra=1):
        h = minimalize(g)
        systems = [vertex_disjoint_paths(h, i, p.demand) for i, p in enumerate(h.pairs)]
        h1, _, _ = remove_relays(h, systems)
        assert int(hub_count(h1)) == int(hub_count(h))


def test_remove_relays_drops_isolated_vertices():
    g0 = grid_graph(2, 2)
    g = _net(tuple(g0.vertices) + (99,), g0.edges, g0.pairs)
    systems = [vertex_disjoint_paths(g, i, 2) for i in range(2)]
    g1, _, _ = remove_relays(g, systems)
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


def test_remove_relays_fails_at_the_first_bad_merge():
    # Relay 6 hangs between the two sources, so its merged edge (9, after
    # relay 5's edge 8) enters a source; relay 7 would close a loop, but
    # comes after 6.
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
    with pytest.raises(InvariantError) as err:
        remove_relays(g, [phi, psi])
    assert str(err.value) == "source-incoming-edge: edge 9 at 2"


# ---------------------------------------------------------------------------
# Crossing stretch.
# ---------------------------------------------------------------------------


def test_stretch_crossings_splits_crossing_vertex():
    g, systems = _crossing_case()
    g1, systems1, _ = remove_relays(g, systems)
    g2, systems2, prov = stretch_crossings(g1, systems1)
    assert sorted(g2.vertices) == [0, 1, 2, 3, 6, 7]
    assert prov["vertices"] == {6: 5, 7: 5}
    assert int(hub_count(g2)) == int(hub_count(g1)) + 1
    # The new edge is public: both systems traverse it, the same way.
    tags = classify_edges(g2, systems2)
    new_eid = max(g2.edge_by_id)
    assert tags[new_eid] == "public"
    assert systems2[0].orientation[new_eid] == systems2[1].orientation[new_eid]


def test_stretch_crossings_rejects_degree_five():
    g, systems = _crossing_case()
    bigger = _net(
        g.vertices,
        tuple(g.edges) + (Edge(5, 4, 5, False),),
        g.pairs,
    )
    systems = [
        make_path_system(bigger, s.pair_index, s.paths) for s in systems
    ]
    with pytest.raises(InvariantError) as err:
        stretch_crossings(bigger, systems)
    assert err.value.code == "unexpected-degree-4"


def test_stretch_crossings_rejects_wrong_tag_mix():
    # Degree-4 vertex with two unused edges is not a crossing.
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
    with pytest.raises(InvariantError) as err:
        stretch_crossings(g, [phi, psi])
    assert err.value.code == "unexpected-degree-4"


# ---------------------------------------------------------------------------
# Direction matching.
# ---------------------------------------------------------------------------


def test_match_directions_rewires_opposing_public_edge():
    g, systems = _conflict_case()
    g3, systems3, prov = match_directions(g, systems)
    assert sorted(g3.edge_by_id) == [0, 1, 2, 5, 6]
    e5, e6 = g3.edge_by_id[5], g3.edge_by_id[6]
    assert (e5.u, e5.v, e5.directed) == (2, 4, True)
    assert (e6.u, e6.v, e6.directed) == (5, 3, True)
    assert prov["edges"] == {5: 3, 6: 4}
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
    phi = make_path_system(g, 0, [Path(((0, True), (1, True), (2, True))),
                                  Path(((5, True), (6, True), (7, True)))])
    psi = make_path_system(g, 1, [Path(((3, True), (1, False), (4, True))),
                                  Path(((8, True), (6, False), (9, True)))])
    g3, systems3, prov = match_directions(g, [phi, psi])
    assert prov["edges"] == {10: 3, 11: 4, 12: 8, 13: 9}
    assert [p.steps for p in systems3[1].paths] == [
        ((10, True), (1, True), (11, True)),
        ((12, True), (6, True), (13, True)),
    ]
    assert [e.id for e in g3.edges] == [0, 1, 2, 5, 6, 7, 10, 11, 12, 13]


def test_natural_direction_prefers_the_first_system():
    g, (phi, psi) = _conflict_case()
    rep = Representation(
        graph=g, systems=(phi, psi), provenance={}, naturally_oriented=False
    )
    assert rep.natural_direction(1) is True  # psi walks edge 1 backward
    for e in g.edges:
        want = phi.orientation.get(e.id, psi.orientation.get(e.id))
        assert rep.natural_direction(e.id) is want
    with pytest.raises(KeyError):
        rep.natural_direction(99)


def test_match_directions_preserves_degrees_and_hubs():
    g, systems = _conflict_case()
    g3, _, _ = match_directions(g, systems)
    assert int(hub_count(g3)) == int(hub_count(g))
    degrees = sorted(g.degree(v) for v in g.vertices)
    assert sorted(g3.degree(v) for v in g3.vertices) == degrees


def test_match_directions_noop_when_already_oriented():
    g, systems = _relay_case()
    g3, systems3, prov = match_directions(g, systems)
    assert g3 == g and prov["edges"] == {}
    assert [s.paths for s in systems3] == [s.paths for s in systems]


# ---------------------------------------------------------------------------
# The full transformation.
# ---------------------------------------------------------------------------


def test_to_representation_is_identity_on_canonical_input(example_instance):
    g, systems = example_instance
    rep = to_representation(g, systems)
    assert rep.graph == g
    assert rep.naturally_oriented
    assert rep.provenance == {"vertices": {}, "edges": {}}
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
        # Provenance keys live in the final graph, values in the original.
        assert set(rep.provenance["edges"]) <= set(rep.graph.edge_by_id)
        assert set(rep.provenance["edges"].values()) <= set(h.edge_by_id)
        assert set(rep.provenance["vertices"]) <= set(rep.graph.vertices)
        assert set(rep.provenance["vertices"].values()) <= set(h.vertices)


def test_hub_counts_along_the_pipeline():
    # Relay merging and direction matching keep the hub count; stretching
    # adds one hub per crossing.
    for g, _ in two_pair_corpus(seed=303, count=20, extra=1):
        h = minimalize(g)
        systems = [vertex_disjoint_paths(h, i, p.demand) for i, p in enumerate(h.pairs)]
        h1, s1, _ = remove_relays(h, systems)
        h2, s2, _ = stretch_crossings(h1, s1)
        h3, _, _ = match_directions(h2, s2)
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

    fake = Representation(
        graph=bigger, systems=(phi, psi), provenance=rep.provenance,
        naturally_oriented=True,
    )
    with pytest.raises(InvariantError) as err:
        decompose_private(fake)
    assert err.value.code == "decomposition-violation"
