"""The hub table a representation caches beside its decomposition.

Hand-built malformed representations pin the first error each one raises, so
the single pass that builds the decomposition and the table reports what the
separate passes it replaced reported.  The table itself is checked against an
independent recomputation, and the interconnect is checked to read it
instead of deriving it again.
"""

from __future__ import annotations

from collections import Counter

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
    graph_core,
    grid_instance,
    interconnect,
    representation,
    run_interconnect,
    to_representation,
    verify_run,
)
from hubmin.graph_core import PHI, PSI, PUBLIC

from test_derived_state import _corpus

S1, R1, S2, R2 = 0, 1, 2, 3

# The (1,1) lattice: S1 and S2 meet at hub 4, the public edge 4-5 carries both
# systems, and both sinks leave hub 5.  Edge id -> (u, v, directed).
BASE_EDGES = {
    0: (S1, 4, True),
    1: (S2, 4, True),
    2: (4, 5, False),
    3: (5, R1, True),
    4: (5, R2, True),
}
BASE_PHI = {0: True, 2: True, 3: True}
BASE_PSI = {1: True, 2: True, 4: True}


def _rep(edges, phi, psi, hubs=(4, 5)) -> Representation:
    """A representation built straight from its edges and each system's
    orientation (edge id -> natural direction): each system holds one
    one-step path per edge of its map, so the map is its orientation."""
    g = Network(
        vertices=(S1, R1, S2, R2) + tuple(hubs),
        edges=tuple(Edge(eid, u, v, directed) for eid, (u, v, directed) in edges.items()),
        pairs=(Pair(S1, R1, 1), Pair(S2, R2, 1)),
    )
    systems = tuple(
        PathSystem(i, tuple(Path(((eid, forward),)) for eid, forward in orientation.items()))
        for i, orientation in enumerate((phi, psi))
    )
    return Representation(graph=g, systems=systems)


def _first_error(rep: Representation) -> str:
    """The text of the first error that decomposing and then running raise."""
    with pytest.raises(InvariantError) as err:
        decompose_private(rep)
        run_interconnect(rep)
    return str(err.value)


def test_base_representation_runs():
    rep = _rep(BASE_EDGES, BASE_PHI, BASE_PSI)
    assert [a.kind for a in decompose_private(rep)] == ["S1S2", "R2R1"]
    assert verify_run(rep, run_interconnect(rep)).ok


# Each case: edges, phi and psi orientations, hub order, and the exact error.
MALFORMED = {
    "unused edge": (
        {**BASE_EDGES, 5: (4, 5, False)},
        BASE_PHI,
        BASE_PSI,
        (4, 5),
        "decomposition-violation: unused edge in representation",
    ),
    "three private edges": (
        {0: (S1, 4, True), 1: (4, R1, True), 2: (S2, 4, True)},
        {0: True, 1: True},
        {2: True},
        (4,),
        "decomposition-violation: hub 4 has 3 private edges (want 2)",
    ),
    "private edges share a system": (
        # Hub 4 is the head of both phi edges 0 and 1.
        {0: (S1, 4, True), 1: (5, 4, False), 2: (5, R1, True)},
        {0: True, 1: True},
        {2: True},
        (4, 5),
        "decomposition-violation: private edges 0, 1 at hub 4 share a system",
    ),
    "head of one private edge, tail of the other": (
        {0: (S1, 4, True), 1: (4, R1, True)},
        {0: True},
        {1: True},
        (4,),
        "decomposition-violation: hub 4 is head of one private edge and tail of the other",
    ),
    "private cycle off every walk": (
        # Hubs 6 and 7 hold a phi and a psi edge each, on a cycle of their own.
        {**BASE_EDGES, 5: (6, 7, False), 6: (7, 6, False)},
        {**BASE_PHI, 5: True},
        {**BASE_PSI, 6: True},
        (4, 5, 6, 7),
        "decomposition-violation: private edges not covered: [5, 6]",
    ),
    "more alternating paths than the demands": (
        # A direct phi edge S1 -> R1 adds an S1R1 path to demands (1,1); the
        # per-kind counts catch the extra path.
        {**BASE_EDGES, 5: (S1, R1, True)},
        {**BASE_PHI, 5: True},
        BASE_PSI,
        (4, 5),
        "decomposition-violation: 1 S1R1 paths, expected 0",
    ),
    "hub with only public edges": (
        # The public edge 4-5 subdivided at hub 6.
        {**BASE_EDGES, 2: (4, 6, False), 5: (6, 5, False)},
        {0: True, 2: True, 5: True, 3: True},
        {1: True, 2: True, 5: True, 4: True},
        (4, 5, 6),
        "algorithm-stuck: hub 6 lacks the 1-public/2-private pattern",
    ),
    "isolated hub": (
        BASE_EDGES,
        BASE_PHI,
        BASE_PSI,
        (4, 5, 6),
        "algorithm-stuck: hub 6 lacks the 1-public/2-private pattern",
    ),
    "isolated hub listed before a public-only hub": (
        {**BASE_EDGES, 2: (4, 6, False), 5: (6, 5, False)},
        {0: True, 2: True, 5: True, 3: True},
        {1: True, 2: True, 5: True, 4: True},
        (7, 4, 5, 6),
        "algorithm-stuck: hub 7 lacks the 1-public/2-private pattern",
    ),
    "hub with two public edges": (
        {**BASE_EDGES, 5: (4, 5, False)},
        {**BASE_PHI, 5: True},
        {**BASE_PSI, 5: True},
        (4, 5),
        "algorithm-stuck: hub 4 lacks the 1-public/2-private pattern",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_representation_error_texts(case):
    edges, phi, psi, hubs, want = MALFORMED[case]
    assert _first_error(_rep(edges, phi, psi, hubs)) == want


def test_table_matches_an_independent_recomputation():
    for key, g, systems in _corpus():
        rep = to_representation(g, systems)
        table = representation.hub_table(rep)
        h = rep.graph
        phi, psi = (s.orientation for s in rep.systems)
        direction = {e: phi[e] if e in phi else psi[e] for e in h.edge_by_id}
        assert table.direction == direction, key
        assert table.ends == {
            e: edge.ends(direction[e]) for e, edge in h.edge_by_id.items()
        }, key
        tags = classify_edges(h, rep.systems)
        public, private = {}, {}
        for v in h.vertices:
            if h.is_terminal(v):
                continue
            (public[v],) = [e for e in h.incident[v] if tags[e] == PUBLIC]
            by_tag = {tags[e]: e for e in h.incident[v] if tags[e] != PUBLIC}
            private[v] = (by_tag[PHI], by_tag[PSI])
        assert table.public == public, key
        assert table.private == private, key
        assert table.unpatterned is None, key
        # Hub i of an alternating path is the vertex its steps i and i + 1
        # share.
        path_index, position = {}, {}
        for i, a in enumerate(decompose_private(rep)):
            ends = [{h.edge_by_id[e].u, h.edge_by_id[e].v} for e in a.steps]
            hubs = [(left & right).pop() for left, right in zip(ends, ends[1:])]
            assert table.hubs[i] == tuple(hubs), key
            path_index.update(dict.fromkeys(hubs, i))
            position.update((h, j) for j, h in enumerate(hubs))
        assert table.path_index == path_index, key
        assert table.position == position, key


def test_interconnect_reads_the_cached_table(monkeypatch, example_instance):
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module in (graph_core, representation, interconnect):
        if hasattr(module, "classify_edges"):
            monkeypatch.setattr(
                module, "classify_edges", counting("classify", module.classify_edges)
            )
    monkeypatch.setattr(
        representation, "_decompose", counting("decompose", representation._decompose)
    )
    spec = grid_instance(4, 3)
    for g, systems in (example_instance, (spec.network, spec.systems)):
        rep = to_representation(g, systems)
        calls.clear()
        decompose_private(rep)
        # The decomposition reads the systems' orientations, not edge tags.
        assert calls == {"decompose": 1}
        for seed in (None, 7):
            run_interconnect(rep, seed=seed)
        assert calls == {"decompose": 1}
