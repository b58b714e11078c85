"""Derived state of the representation layer, computed once per owner.

A frozen digest pins every output of the rewrite steps, the decomposition
and the interconnecting-path runs on a seeded corpus, so rewriting how the
layer computes them cannot change what it computes.  The other tests check
the copies ``decompose_private`` hands out and that the interconnect's
disjointness check still fails on overlapping paths.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from hubmin import (
    Edge,
    InvariantError,
    Network,
    Representation,
    decompose_private,
    grid_instance,
    make_path_system,
    match_directions,
    minimalize,
    random_network,
    remove_relays,
    run_interconnect,
    serialize_network,
    stretch_crossings,
    to_representation,
    vertex_disjoint_paths,
    verify_run,
)
from hubmin.interconnect import _State

# SHA-256 of the corpus outputs below, recorded before the layer was changed
# to compute its derived state once.
FROZEN_DIGEST = "0f7843012b8c13349e2e67594eaafc85e4dd099391b8b512a30cc9038ee029cb"


def _corpus():
    """Every lattice up to 8x8, then minimalized random two-pair networks."""
    for c1 in range(1, 9):
        for c2 in range(1, 9):
            spec = grid_instance(c1, c2)
            yield f"grid {c1}x{c2}", spec.network, list(spec.systems)
    rng = random.Random(2024)
    for k in range(60):
        demands = (rng.randint(1, 4), rng.randint(1, 4))
        g, _ = random_network(
            rng, demands, reuse=rng.uniform(0.3, 0.8), extra=rng.randint(0, 4)
        )
        m = minimalize(g)
        systems = [vertex_disjoint_paths(m, i, p.demand) for i, p in enumerate(m.pairs)]
        yield f"random {k}", m, systems


def _step_text(g, systems, provenance) -> str:
    return serialize_network(g, systems) + json.dumps(provenance, sort_keys=True)


def test_representation_outputs_are_frozen():
    digest = hashlib.sha256()
    rewrites = {"relays": 0, "crossings": 0, "swaps": 0}
    for key, g, systems in _corpus():
        digest.update(key.encode())
        g1, s1, p1 = remove_relays(g, systems)
        g2, s2, p2 = stretch_crossings(g1, s1)
        g3, s3, p3 = match_directions(g2, s2)
        rewrites["relays"] += bool(p1["edges"])
        rewrites["crossings"] += bool(p2["vertices"])
        rewrites["swaps"] += bool(p3["edges"])
        for step in ((g1, s1, p1), (g2, s2, p2), (g3, s3, p3)):
            digest.update(_step_text(*step).encode())
        rep = to_representation(g, systems)
        digest.update(_step_text(rep.graph, rep.systems, rep.provenance).encode())
        digest.update(repr(decompose_private(rep)).encode())
        for seed in (None, 7):
            run = run_interconnect(rep, seed=seed)
            digest.update(repr(run.paths).encode())
            for event in run.trace:
                digest.update(json.dumps(event, sort_keys=True).encode())
            digest.update(repr(verify_run(rep, run).failures).encode())
    # The corpus exercises each rewrite step.
    assert rewrites == {"relays": 49, "crossings": 54, "swaps": 4}
    assert digest.hexdigest() == FROZEN_DIGEST


def _example_rep(example_instance) -> Representation:
    g, systems = example_instance
    return to_representation(g, systems)


def test_decompositions_are_equal_copies(example_instance):
    rep = _example_rep(example_instance)
    first = decompose_private(rep)
    second = decompose_private(rep)
    assert first == second
    assert first is not second
    first.clear()
    assert decompose_private(rep) == second


def test_failed_decomposition_raises_on_every_call(example_instance):
    rep = _example_rep(example_instance)
    extra = Edge(99, 4, 6, False)  # between two interior vertices, on no path
    bigger = Network(
        vertices=rep.graph.vertices,
        edges=tuple(rep.graph.edges) + (extra,),
        pairs=rep.graph.pairs,
    )
    fake = Representation(
        graph=bigger,
        systems=tuple(make_path_system(bigger, s.pair_index, s.paths) for s in rep.systems),
        provenance=rep.provenance,
        naturally_oriented=True,
    )
    for _ in range(2):
        with pytest.raises(InvariantError) as err:
            decompose_private(fake)
        assert err.value.code == "decomposition-violation"


def test_check_disjoint_rejects_overlapping_paths(example_instance):
    rep = _example_rep(example_instance)
    run = run_interconnect(rep)
    st = _State(rep, None)
    st.paths = [list(p.steps) for p in run.paths]
    st.check_disjoint()
    first = list(run.paths[0].steps)
    # The same path twice, then a shorter path through the same vertices.
    for extra in (first, first[:1]):
        with pytest.raises(InvariantError) as err:
            st.check_disjoint(extra=extra)
        assert err.value.code == "algorithm-stuck"
    # A path seen before is still checked against the others.
    st.paths.append(first)
    with pytest.raises(InvariantError):
        st.check_disjoint()


def test_check_disjoint_rejects_paths_that_share_only_a_vertex(example_instance):
    rep = _example_rep(example_instance)
    g = rep.graph
    path = list(run_interconnect(rep).paths[0].steps)
    on_path = {eid for eid, _ in path}
    hub = g.edge_by_id[path[0][0]].ends(path[0][1])[1]  # the first step's head
    eid = next(e for e in g.incident[hub] if e not in on_path)
    st = _State(rep, None)
    st.paths = [path]
    with pytest.raises(InvariantError) as err:
        st.check_disjoint(extra=[(eid, rep.natural_direction(eid))])
    assert str(err.value) == "algorithm-stuck: interconnecting paths share a vertex"


def test_check_disjoint_still_validates_new_paths(example_instance):
    rep = _example_rep(example_instance)
    st = _State(rep, None)
    with pytest.raises(InvariantError) as err:
        st.check_disjoint(extra=[(0, True), (0, True)])
    assert err.value.code == "broken-path"


def test_network_terminal_sets_are_built_once(example_instance):
    g, _ = example_instance
    assert g.terminal_set is g.terminal_set
    assert g.terminal_set == g.source_set | g.sink_set
    assert g.source_set == frozenset(p.source for p in g.pairs)
    assert g.sink_set == frozenset(p.sink for p in g.pairs)
