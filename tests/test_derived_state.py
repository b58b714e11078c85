"""Derived state of the representation layer, computed once per owner.

A frozen digest pins every output of the rewrite steps, the decomposition
and the interconnecting-path runs on a seeded corpus, so rewriting how the
layer computes them cannot change what it computes.  The other tests check
the copies ``decompose_private`` hands out and the interconnect's owner
map: each path is checked as it is stored, and storing raises what a scan
of the stored paths raises.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter

import pytest

from hubmin import (
    Edge,
    InvariantError,
    Network,
    Path,
    Representation,
    decompose_private,
    grid_instance,
    make_path_system,
    match_directions,
    minimalize,
    path_vertices,
    random_network,
    remove_relays,
    run_interconnect,
    serialize_network,
    stretch_crossings,
    to_representation,
    vertex_disjoint_paths,
    verify_run,
)
from hubmin import representation
from hubmin.interconnect import _State
from hubmin.representation import hub_table

# SHA-256 of the corpus outputs below, recorded before the layer was changed
# to compute its derived state once, and re-pinned, on the same code, when
# the rewrites stopped returning an id map.
FROZEN_DIGEST = "f0214d7f81d6525014ea6e37a2e1c31aa23cca29f537bd1f836cbac69eb58fda"


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


def test_representation_outputs_are_frozen():
    digest = hashlib.sha256()
    rewrites = {"relays": 0, "crossings": 0, "swaps": 0}
    events: Counter = Counter()  # switches by phase and d (2 for d >= 2), stops
    for key, g, systems in _corpus():
        digest.update(key.encode())
        g1, s1 = remove_relays(g, systems)
        g2, s2 = stretch_crossings(g1, s1)
        g3, s3 = match_directions(g2, s2)
        # A rewrite with work to do returns a new network.
        rewrites["relays"] += g1 is not g
        rewrites["crossings"] += g2 is not g1
        rewrites["swaps"] += g3 is not g2
        for step in ((g1, s1), (g2, s2), (g3, s3)):
            digest.update(serialize_network(*step).encode())
        rep = to_representation(g, systems)
        rep_text = serialize_network(rep.graph, rep.systems)
        # The representation is what the public rewrites, chained, return.
        assert rep_text == serialize_network(g3, s3), key
        digest.update(rep_text.encode())
        digest.update(repr(decompose_private(rep)).encode())
        for seed in (None, 7):
            run = run_interconnect(rep, seed=seed)
            digest.update(repr(run.paths).encode())
            for event in run.trace:
                digest.update(json.dumps(event, sort_keys=True).encode())
                if event["step"].endswith("-switch"):
                    events[event["step"], min(event["d"], 2)] += 1
                elif event["step"].endswith("-stop"):
                    events[event["step"]] += 1
            digest.update(repr(verify_run(rep, run).failures).encode())
    # The corpus exercises each rewrite step.
    assert rewrites == {"relays": 50, "crossings": 54, "swaps": 4}
    # ... and both phases of the walk, with and without rebuilding paths.
    for phase in ("forward", "backward"):
        assert [events[f"{phase}-switch", d] for d in (0, 1, 2)] == [114, 20, 5], phase
        assert events[f"{phase}-stop"] == 596, phase
    assert digest.hexdigest() == FROZEN_DIGEST


def test_to_representation_builds_once(monkeypatch):
    # One Network and one path system per pair when a rewrite has work to
    # do (the chained public rewrites return a new network), none otherwise.
    corpus = []
    for key, g, systems in _corpus():
        g1, s1 = remove_relays(g, systems)
        g2, s2 = stretch_crossings(g1, s1)
        corpus.append((key, g, systems, match_directions(g2, s2)[0] is not g))
    builds = Counter()
    post_init = Network.__post_init__
    make = representation.make_path_system

    def counting_post_init(net):
        builds["network"] += 1
        post_init(net)

    def counting_make(*args):
        builds["system"] += 1
        return make(*args)

    monkeypatch.setattr(Network, "__post_init__", counting_post_init)
    monkeypatch.setattr(representation, "make_path_system", counting_make)
    for key, g, systems, rewritten in corpus:
        builds.clear()
        to_representation(g, systems)
        assert builds == ({"network": 1, "system": 2} if rewritten else {}), key
    assert sum(rewritten for *_, rewritten in corpus) == 60


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
    )
    for _ in range(2):
        with pytest.raises(InvariantError) as err:
            decompose_private(fake)
        assert err.value.code == "decomposition-violation"


def _stored(rep, paths):
    """A fresh walk state with ``paths`` stored in order."""
    st = _State(rep, None)
    for p in paths:
        st.store(list(p))
    return st


def _assert_owned(st):
    """``owner`` maps exactly the stored paths' vertices, each to the very
    list that holds it."""
    want = {v: p for p in st.paths for v in path_vertices(st.g, Path(steps=tuple(p)))}
    assert st.owner.keys() == want.keys()
    assert all(st.owner[v] is p for v, p in want.items())


def test_storing_rejects_a_path_that_overlaps_a_stored_one(example_instance):
    rep = _example_rep(example_instance)
    run = run_interconnect(rep)
    st = _stored(rep, [p.steps for p in run.paths])
    stored = list(st.paths)
    first = list(run.paths[0].steps)
    # The same path again, then a shorter path through the same vertices;
    # checked or stored, each raises and leaves the state as it was.
    for p in (first, first[:1]):
        for act in (st.check, st.store):
            with pytest.raises(InvariantError) as err:
                act(list(p))
            assert str(err.value) == "algorithm-stuck: interconnecting paths share a vertex"
            assert st.paths == stored
            _assert_owned(st)


def test_storing_rejects_a_path_that_shares_only_a_vertex(example_instance):
    rep = _example_rep(example_instance)
    g = rep.graph
    path = list(run_interconnect(rep).paths[0].steps)
    on_path = {eid for eid, _ in path}
    hub = g.edge_by_id[path[0][0]].ends(path[0][1])[1]  # the first step's head
    eid = next(e for e in g.incident[hub] if e not in on_path)
    st = _stored(rep, [path])
    with pytest.raises(InvariantError) as err:
        st.store([(eid, hub_table(rep).direction[eid])])
    assert str(err.value) == "algorithm-stuck: interconnecting paths share a vertex"


def test_storing_validates_the_path(example_instance):
    rep = _example_rep(example_instance)
    first = list(run_interconnect(rep).paths[0].steps)
    eid, forward = first[-1]
    cases = {
        "broken-path": [(0, True), (0, True)],
        "path-revisits-vertex": first + [(eid, not forward)],
        "empty-path": [],
    }
    for code, p in cases.items():
        st = _State(rep, None)
        for act in (st.check, st.store):
            with pytest.raises(InvariantError) as err:
                act(p)
            assert err.value.code == code
        assert st.paths == [] and st.owner == {}


def _scan_outcome(g, paths):
    """What a check of every path in order raises at the first path that is
    not simple or meets an earlier one, if anything."""
    seen: set = set()
    try:
        for p in paths:
            verts = set(path_vertices(g, Path(steps=tuple(p))))
            if not seen.isdisjoint(verts):
                raise InvariantError("algorithm-stuck", "interconnecting paths share a vertex")
            seen |= verts
    except InvariantError as err:
        return str(err)
    return None


def test_store_remove_and_check_match_a_scan():
    # Random stores, removals and checks of pieces of the paths of 4x4
    # lattice runs: storing or checking a path raises what a scan of the
    # stored paths in order, that path last, raises; the stored paths keep
    # the order of the stores and removals that passed, and ``owner`` maps
    # their vertices.
    spec = grid_instance(4, 4)
    rep = to_representation(spec.network, spec.systems)
    runs = [[list(p.steps) for p in run_interconnect(rep, seed=s).paths] for s in range(4)]
    pool = [p for paths in runs for p in paths]

    def piece(rng, p):
        kind = rng.choices(range(5), weights=(3, 3, 3, 1, 1))[0]
        i = rng.randrange(len(p))
        if kind == 0:
            return list(p)
        if kind == 1:
            return p[: i + 1]
        if kind == 2:
            return p[i:]
        if kind == 3:  # back along the last step: repeats a vertex
            eid, forward = p[-1]
            return p + [(eid, not forward)]
        return p[:i] + p[i + 1 :] if len(p) > 1 else []  # broken, or empty

    rng = random.Random(12)
    outcomes: Counter = Counter()
    removals = 0
    for _ in range(60):
        st = _stored(rep, rng.choice(runs))
        model = list(st.paths)
        for _ in range(12):
            if model and rng.random() < 0.3:
                p = rng.choice(model)
                st.remove(p)
                model.remove(p)
                removals += 1
            else:
                p = piece(rng, rng.choice(pool))
                store = rng.random() < 0.5
                want = _scan_outcome(rep.graph, model + [p])
                try:
                    (st.store if store else st.check)(p)
                    got = None
                except InvariantError as err:
                    got = str(err)
                assert got == want
                outcomes[want] += 1
                if store and want is None:
                    model.append(p)
            assert len(st.paths) == len(model)
            assert all(p is q for p, q in zip(st.paths, model))
            _assert_owned(st)
    assert removals >= 100
    assert outcomes[None] >= 100
    assert outcomes["algorithm-stuck: interconnecting paths share a vertex"] >= 100
    assert {"path-revisits-vertex", "empty-path"} <= set(outcomes)
    assert any(str(key).startswith("broken-path") for key in outcomes)


def test_removing_a_path_frees_its_vertices(example_instance):
    rep = _example_rep(example_instance)
    run = run_interconnect(rep)
    for removed, kept in ((0, 1), (1, 0)):
        st = _stored(rep, [p.steps for p in run.paths])
        gone, other = st.paths[removed], st.paths[kept]
        st.remove(gone)
        assert st.paths == [other]
        _assert_owned(st)
        # A path on the first edge of the kept path still meets it ...
        with pytest.raises(InvariantError) as err:
            st.store(other[:1])
        assert str(err.value) == "algorithm-stuck: interconnecting paths share a vertex"
        # ... and the removed path can be stored again, last.
        st.store(gone)
        assert st.paths == [other, gone]
        _assert_owned(st)


def test_owner_maps_the_paths_of_every_run(monkeypatch):
    # After every run on the frozen corpus and on the 4x4 lattice, ``owner``
    # holds exactly the vertices of the run's paths, each mapped to the list
    # that holds it.
    states = []
    init = _State.__init__

    def capturing_init(st, *args):
        init(st, *args)
        states.append(st)

    monkeypatch.setattr(_State, "__init__", capturing_init)
    spec = grid_instance(4, 4)
    lattice = to_representation(spec.network, spec.systems)
    runs = [(lattice, seed) for seed in range(4)]
    for _, g, systems in _corpus():
        rep = to_representation(g, systems)
        runs += [(rep, None), (rep, 7)]
    for rep, seed in runs:
        states.clear()
        run = run_interconnect(rep, seed=seed)
        (st,) = states
        assert run.paths == tuple(Path(steps=tuple(p)) for p in st.paths)
        _assert_owned(st)


def test_storing_raises_at_the_switch_that_rebuilds_a_bad_path(monkeypatch):
    # The first path a switch rebuilds (in the forward phase of the third
    # iteration on the 4x4 lattice with seed 1, d = 2) doubles back on its
    # last step; storing it at that switch raises.
    spec = grid_instance(4, 4)
    rep = to_representation(spec.network, spec.systems)
    states = []
    onward = _State.onward

    def doubled_back(st, steps, v, end):
        out = onward(st, steps, v, end)
        if not states:
            states.append(st)
            eid, forward = out[-1]
            out = out + [(eid, not forward)]
        return out

    monkeypatch.setattr(_State, "onward", doubled_back)
    with pytest.raises(InvariantError) as err:
        run_interconnect(rep, seed=1)
    assert str(err.value) == "path-revisits-vertex"
    (st,) = states
    assert len(st.trace) == 18
    assert st.trace[-1] == {
        "step": "forward-switch",
        "iteration": 3,
        "path_index": 4,
        "u": 11,
        "x0": 29,
        "y0": 30,
        "d": 2,
    }


def test_the_walking_path_is_checked_at_the_switch(monkeypatch):
    # The path a switch hands back to the walk (in the forward phase of the
    # third iteration on the 4x4 lattice with seed 0, d = 1) runs back and
    # forth along one step; it is checked, and not stored, at that switch.
    spec = grid_instance(4, 4)
    rep = to_representation(spec.network, spec.systems)
    states = []
    upto = _State.upto

    def back_and_forth(st, steps, v, end):
        out = upto(st, steps, v, end)
        if not states:
            states.append(st)
            eid, forward = out[-1]
            out = out + [(eid, not forward), (eid, forward)]
        return out

    monkeypatch.setattr(_State, "upto", back_and_forth)
    with pytest.raises(InvariantError) as err:
        run_interconnect(rep, seed=0)
    assert str(err.value) == "path-revisits-vertex"
    (st,) = states
    assert len(st.paths) == 2
    _assert_owned(st)
    assert len(st.trace) == 16
    assert st.trace[-1] == {
        "step": "forward-switch",
        "iteration": 3,
        "path_index": 4,
        "u": 11,
        "x0": 23,
        "y0": 24,
        "d": 1,
    }


def test_network_terminal_sets_are_built_once(example_instance):
    g, _ = example_instance
    assert g.terminal_set is g.terminal_set
    assert g.terminal_set == g.source_set | g.sink_set
    assert g.source_set == frozenset(p.source for p in g.pairs)
    assert g.sink_set == frozenset(p.sink for p in g.pairs)
