"""Derived state of the representation layer, computed once per owner.

A frozen digest pins every output of the rewrite steps, the decomposition
and the interconnecting-path runs on a seeded corpus, so rewriting how the
layer computes them cannot change what it computes.  The other tests check
the copies ``decompose_private`` hands out and that the interconnect's
incremental disjointness check raises what a scan of every path raises.
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
        st.check_disjoint(extra=[(eid, hub_table(rep).direction[eid])])
    assert str(err.value) == "algorithm-stuck: interconnecting paths share a vertex"


def test_check_disjoint_still_validates_new_paths(example_instance):
    rep = _example_rep(example_instance)
    st = _State(rep, None)
    with pytest.raises(InvariantError) as err:
        st.check_disjoint(extra=[(0, True), (0, True)])
    assert err.value.code == "broken-path"


def _scan_outcome(g, paths, extra):
    """What a check of every path in order, ``extra`` last, raises, if anything."""
    seen_v: set = set()
    seen_e: set = set()
    try:
        for p in paths + ([extra] if extra is not None else []):
            verts = set(path_vertices(g, Path(steps=tuple(p))))
            if not seen_v.isdisjoint(verts):
                raise InvariantError("algorithm-stuck", "interconnecting paths share a vertex")
            eids = {e for e, _ in p}
            if not seen_e.isdisjoint(eids):
                raise InvariantError("algorithm-stuck", "interconnecting paths share an edge")
            seen_v |= verts
            seen_e |= eids
    except InvariantError as err:
        return str(err)
    return None


def _check_outcome(st, extra):
    try:
        st.check_disjoint(extra=extra)
    except InvariantError as err:
        return str(err)
    return None


def test_check_disjoint_matches_a_full_scan():
    # Random edits of the stored paths, as a run and a faulty run could make
    # them, each followed by a check and, after most failed checks, undone;
    # the incremental check raises what a scan of every path raises, at every
    # call, failed calls included.
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
    for _ in range(60):
        st = _State(rep, None)
        st.paths = [list(p) for p in rng.choice(runs)]
        walking = None
        for _ in range(12):
            before = list(st.paths)
            op = rng.randrange(6)
            if op == 0 and st.paths:  # rebuild a stored path from a piece of itself
                i = rng.randrange(len(st.paths))
                st.paths[i] = piece(rng, st.paths[i])
            elif op == 1 and st.paths:  # ... or of any path of any run
                st.paths[rng.randrange(len(st.paths))] = piece(rng, rng.choice(pool))
            elif op == 2 and st.paths:
                del st.paths[rng.randrange(len(st.paths))]
            elif op == 3:
                st.paths.insert(rng.randrange(len(st.paths) + 1), piece(rng, rng.choice(pool)))
            elif op == 4 and st.paths:  # the same list object twice
                st.paths.append(rng.choice(st.paths))
            elif op == 5 and walking is not None:
                # As a walk does: extend the path last checked as ``extra`` in
                # place, then store it.
                walking.extend(piece(rng, rng.choice(pool))[:2])
                st.paths.append(walking)
            extra = None
            if rng.random() < 0.5:
                extra = rng.choice(st.paths) if st.paths and rng.random() < 0.2 else piece(
                    rng, rng.choice(pool)
                )
            want = _scan_outcome(rep.graph, st.paths, extra)
            assert _check_outcome(st, extra) == want
            outcomes[want] += 1
            walking = extra if all(extra is not p for p in st.paths) else None
            if want is not None and rng.random() < 0.7:
                st.paths = before  # undo the edit, keeping the path objects
    assert outcomes[None] >= 100
    assert outcomes["algorithm-stuck: interconnecting paths share a vertex"] >= 100
    assert {"path-revisits-vertex", "empty-path"} <= set(outcomes)
    assert any(str(key).startswith("broken-path") for key in outcomes)


def test_check_disjoint_rejects_a_rebuilt_path_on_an_untouched_one(example_instance):
    rep = _example_rep(example_instance)
    run = run_interconnect(rep)
    for rebuilt, untouched in ((0, 1), (1, 0)):
        st = _State(rep, None)
        st.paths = [list(p.steps) for p in run.paths]
        st.check_disjoint()
        # A new path in place of one stored path, on the first edge of the other.
        st.paths[rebuilt] = st.paths[untouched][:1]
        with pytest.raises(InvariantError) as err:
            st.check_disjoint()
        assert str(err.value) == "algorithm-stuck: interconnecting paths share a vertex"


def test_check_disjoint_raises_the_first_failure_in_order(example_instance):
    rep = _example_rep(example_instance)
    st = _State(rep, None)
    st.paths = [list(p.steps) for p in run_interconnect(rep).paths]
    st.check_disjoint()
    known = st.paths[1]
    eid, forward = known[0]
    # A new path on the checked path's first edge comes before it, and one
    # that doubles back comes between them: a scan in order meets the second
    # before the checked path it would find shared.
    st.paths = [known[:1], [(eid, forward), (eid, not forward)], known]
    with pytest.raises(InvariantError) as err:
        st.check_disjoint()
    assert str(err.value) == "path-revisits-vertex"
    del st.paths[1]
    with pytest.raises(InvariantError) as err:
        st.check_disjoint()
    assert str(err.value) == "algorithm-stuck: interconnecting paths share a vertex"


def test_check_disjoint_raises_at_the_switch_that_rebuilds_a_bad_path(monkeypatch):
    # The first path a switch rebuilds (in the forward phase of the third
    # iteration on the 4x4 lattice with seed 1, d = 2) doubles back on its
    # last step; the check after that switch raises.
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


def test_network_terminal_sets_are_built_once(example_instance):
    g, _ = example_instance
    assert g.terminal_set is g.terminal_set
    assert g.terminal_set == g.source_set | g.sink_set
    assert g.source_set == frozenset(p.source for p in g.pairs)
    assert g.sink_set == frozenset(p.sink for p in g.pairs)
