"""The interconnecting-path construction and its structural verification."""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from hubmin import (
    InvariantError,
    Path,
    decompose_private,
    grid_instance,
    hub_count,
    is_minimal,
    minimalize,
    parse_instance,
    path_vertices,
    run_interconnect,
    to_representation,
    verify_run,
    vertex_disjoint_paths,
)

from hubmin.interconnect import _BACKWARD, _FORWARD, _State, _walk

from conftest import FIXTURES, two_pair_corpus

ALL_CHECKS = (
    "private-edges-on-distinct-alternating-paths",
    "path-count",
    "hub-partition",
    "tails-on-distinct-S1S2-paths",
    "heads-on-distinct-R2R1-paths",
    "hub-count-bound",
    "stop-path-growth",
)


def _grid_rep(c1, c2):
    spec = grid_instance(c1, c2)
    return to_representation(spec.network, spec.systems)


def test_example_run_is_frozen(example_instance):
    g, systems = example_instance
    rep = to_representation(g, systems)
    run = run_interconnect(rep)
    assert [p.steps for p in run.paths] == [
        ((2, True), (5, True), (7, True), (9, True), (13, True)),
        ((8, True),),
    ]
    stops = [e["path_index"] for e in run.trace if e["step"] == "forward-stop"]
    assert stops == [3, 2]
    report = verify_run(rep, run)
    assert report.ok and report.passed == ALL_CHECKS


# SHA-256 of the JSON-lines trace of ``run_interconnect(rep, seed=s)``, s = 0..3,
# recorded before the start candidates were sorted once per run; they pin the
# candidates offered to the seeded draw.
SEEDED_TRACES = {
    "fixture": (
        "62ce33c336b802039f0a9db41473d790a5fb34a7229b30a3b187917a458875c0",
        "e48ea436117b7d2853738d973d35cf9db4f5ae68d31ca70de4b8487c148c81df",
        "e48ea436117b7d2853738d973d35cf9db4f5ae68d31ca70de4b8487c148c81df",
        "e48ea436117b7d2853738d973d35cf9db4f5ae68d31ca70de4b8487c148c81df",
    ),
    "grid 6x6": (
        "ea1a8fa65854b9cdb5b3358335046735d94d811ef47e4d62a81c545bd138835b",
        "60346164ba1f920567d9cc9ca97f92c57729b4cbc434df83ec93539b5b8ac205",
        "43af0e9279b55342be7bc67ceb90bfc7b8a7f2c541d11d75e705abbc248319a4",
        "684fa921ef2a466d45ea9599f6c4f9cc1033fd72f586a1493f2ccf0bcaade899",
    ),
}


def test_seeded_traces_are_frozen(example_instance):
    reps = {"fixture": to_representation(*example_instance), "grid 6x6": _grid_rep(6, 6)}
    for name, rep in reps.items():
        got = []
        for seed in range(4):
            trace = run_interconnect(rep, seed=seed).trace
            text = "".join(json.dumps(event, sort_keys=True) + "\n" for event in trace)
            got.append(hashlib.sha256(text.encode()).hexdigest())
        assert tuple(got) == SEEDED_TRACES[name], name


def test_grid_runs_verify():
    for c1 in (1, 2, 3):
        for c2 in (1, 2, 3):
            rep = _grid_rep(c1, c2)
            run = run_interconnect(rep)
            report = verify_run(rep, run)
            assert report.ok, (c1, c2, report.failures)
            assert len(run.paths) == min(c1, c2)


def test_runs_are_deterministic():
    rep = _grid_rep(3, 3)
    a = run_interconnect(rep)
    b = run_interconnect(rep)
    assert [p.steps for p in a.paths] == [p.steps for p in b.paths]
    assert a.trace == b.trace
    c = run_interconnect(rep, seed=12)
    d = run_interconnect(rep, seed=12)
    assert [p.steps for p in c.paths] == [p.steps for p in d.paths]


def test_seeded_runs_stay_correct():
    rep = _grid_rep(3, 2)
    for seed in range(8):
        run = run_interconnect(rep, seed=seed)
        assert verify_run(rep, run).ok


def test_paths_occupy_every_hub_exactly_once():
    rep = _grid_rep(2, 3)
    run = run_interconnect(rep)
    g = rep.graph
    visited = [v for p in run.paths for v in path_vertices(g, p)]
    hubs = [v for v in g.vertices if not g.is_terminal(v)]
    assert sorted(visited) == sorted(hubs)


def test_trace_records_the_construction():
    rep = _grid_rep(2, 2)
    run = run_interconnect(rep)
    assert run.trace[0]["step"] == "start"
    stored = [t for t in run.trace if t["step"] == "stored"]
    assert len(stored) == len(run.paths)
    assert all("iteration" in t for t in run.trace)
    assert sum(t["step"] == "start" for t in run.trace) == len(run.paths)


def test_corpus_runs_verify():
    for g, _ in two_pair_corpus(seed=401, count=40, extra=1):
        h = minimalize(g)
        rep = to_representation(h)
        run = run_interconnect(rep)
        report = verify_run(rep, run)
        assert report.ok, report.failures
        delta = sum(1 for a in decompose_private(rep) if a.kind == "S1S2")
        c1, c2 = h.pairs[0].demand, h.pairs[1].demand
        assert len(run.paths) == delta
        assert int(hub_count(rep.graph)) <= 2 * delta * (c1 + c2 - delta) <= 2 * c1 * c2


# Open defect: on these minimal inputs, stretch_crossings yields a
# representation that is not minimal, and verify_run fails.  strict=True
# makes a fix show up here as an unexpected pass.
@pytest.mark.xfail(strict=True, reason="stretch_crossings breaks minimality")
def test_stop_path_growth_input_verifies():
    g, systems = parse_instance((FIXTURES / "stop_path_growth.json").read_text())
    rep = to_representation(g, systems)
    assert verify_run(rep, run_interconnect(rep)).ok


@pytest.mark.xfail(strict=True, reason="stretch_crossings breaks minimality")
def test_t5_bound_input_verifies():
    g, _ = parse_instance((FIXTURES / "t5_bound.json").read_text())
    m = minimalize(g)
    systems = [vertex_disjoint_paths(m, i, p.demand) for i, p in enumerate(m.pairs)]
    rep = to_representation(m, systems)
    assert verify_run(rep, run_interconnect(rep)).ok


# Open defect: on this minimal 12-edge input (four degree-4 hubs on the cycle
# 4-6-5-7-4, one system per pair), all four hubs are crossings, the stretch
# doubles them to 8, and the run builds no interconnecting path: verify_run
# fails hub-partition and hub-count-bound.  Any other error fails the test.
@pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="no interconnecting path on four crossings"
)
def test_four_crossings_input_verifies():
    g, _ = parse_instance((FIXTURES / "four_crossings.json").read_text())
    rep = to_representation(g)
    assert verify_run(rep, run_interconnect(rep)).ok


# The cause the three open defects above share, pinned as plain facts while
# they stand: each input, built as its test builds it, is minimal; the
# stretch doubles its hubs, as when every hub is a crossing split in two;
# and the representation is no longer minimal.
@pytest.mark.parametrize(
    "name, hubs", [("four_crossings", 4), ("stop_path_growth", 7), ("t5_bound", 7)]
)
def test_failing_inputs_double_their_hubs_into_non_minimal_representations(name, hubs):
    g, systems = parse_instance((FIXTURES / f"{name}.json").read_text())
    if name == "t5_bound":
        g = minimalize(g)
    rep = to_representation(g, systems if name == "stop_path_growth" else None)
    assert is_minimal(g)
    assert hub_count(g) == hubs and hub_count(rep.graph) == 2 * hubs
    assert not is_minimal(rep.graph)


def test_verify_flags_tampered_runs():
    rep = _grid_rep(2, 2)
    run = run_interconnect(rep)
    first, second = run.paths
    # Past the first, each change keeps the path count, and the tail and head
    # checks fail apart.  In this representation edges 11 (5-8) and 2 (5-6)
    # are private edges of one S1S2 path, 3 is the public edge 6-7, which is
    # all of the second path, and 4 runs from hub 7 to the sink R1.
    tampered = {
        "first only": (first,),
        "listed twice": (first, first),
        "last step dropped": (dataclasses.replace(first, steps=first.steps[:-1]), second),
        "first step dropped": (dataclasses.replace(first, steps=first.steps[1:]), second),
        "two private edges of one alternating path": (
            first,
            Path(steps=((11, False), (2, True), (3, True))),
        ),
        "runs on to a sink": (first, Path(steps=((3, True), (4, True)))),
    }
    failures = {
        key: verify_run(rep, dataclasses.replace(run, paths=paths)).failures
        for key, paths in tampered.items()
    }
    assert failures == {
        # The trace still holds two forward stops for the one path.
        "first only": ("path-count", "hub-partition", "stop-path-growth"),
        "listed twice": (
            "hub-partition",
            "tails-on-distinct-S1S2-paths",
            "heads-on-distinct-R2R1-paths",
        ),
        "last step dropped": ("hub-partition", "heads-on-distinct-R2R1-paths"),
        "first step dropped": ("hub-partition", "tails-on-distinct-S1S2-paths"),
        "two private edges of one alternating path": (
            "private-edges-on-distinct-alternating-paths",
            "hub-partition",
        ),
        # Every hub is still on exactly one path; the sink R1 is not a hub.
        "runs on to a sink": ("hub-partition", "heads-on-distinct-R2R1-paths"),
    }
    # The two forward stops swapped: iteration 1 would have exhausted the
    # R2R1 path with 3 hubs, above 2 * 1 - 1.
    trace = list(run.trace)
    i, j = [k for k, e in enumerate(trace) if e["step"] == "forward-stop"]
    trace[i], trace[j] = trace[j], trace[i]

    # Stops must also name R2R1 paths of the decomposition, one per path: 99
    # is past its end, -1 is no index, and index 0 is an S1S2 path with 1 hub.
    def stops_at(index):
        return tuple(
            dict(e, path_index=index) if e["step"] == "forward-stop" else e for e in run.trace
        )

    traces = {
        "swapped": tuple(trace),
        "past the end": stops_at(99),
        "negative": stops_at(-1),
        "an S1S2 path": stops_at(0),
        "no stops": tuple(e for e in run.trace if e["step"] != "forward-stop"),
    }
    failures = {
        key: verify_run(rep, dataclasses.replace(run, trace=trace)).failures
        for key, trace in traces.items()
    }
    assert failures == dict.fromkeys(traces, ("stop-path-growth",))


def test_switching_is_exercised():
    # Large grids force the construction to rebuild earlier paths.
    switches = 0
    for c1, c2 in ((3, 3), (4, 3), (4, 4)):
        rep = _grid_rep(c1, c2)
        for seed in range(4):
            run = run_interconnect(rep, seed=seed)
            assert verify_run(rep, run).ok
            switches += sum(
                1
                for t in run.trace
                if t["step"] in ("forward-switch", "backward-switch")
            )
    assert switches > 0, "no run exercised the switching machinery"


def _first_hop(ph):
    """A fresh walk state on the 3x3 lattice, a hub ``at`` where a ``ph`` walk
    takes a private edge to a hub, and the two vertices its first step
    occupies: that hub, then the far end of its public edge."""
    st = _State(_grid_rep(3, 3), None)
    for i, alt in enumerate(st.alt):
        for at in getattr(alt, ph.free):
            v = st.ends[st.private_at[at][st.take[i]]][ph.end]
            if (alt.kind != ph.stop or at != st.chokes[i]) and v in st.public_at:
                return st, at, v, st.ends[st.public_at[v]][ph.end]
    raise AssertionError("no hub to walk from")


@pytest.mark.parametrize("ph", [_FORWARD, _BACKWARD], ids=lambda ph: ph.name)
@pytest.mark.parametrize("hop", [0, 1], ids=["private", "public"])
def test_walk_rejects_an_occupied_vertex(ph, hop):
    st, at, *reached = _first_hop(ph)
    st.occupied.add(reached[hop])
    with pytest.raises(InvariantError) as info:
        _walk(st, ph, [], at, 1)
    assert str(info.value) == f"algorithm-stuck: vertex {reached[hop]} occupied twice"


@pytest.mark.parametrize("ph", [_FORWARD, _BACKWARD], ids=lambda ph: ph.name)
@pytest.mark.parametrize("budget, step", [(0, ""), (1, "-public")])
def test_walk_stops_when_the_step_budget_is_spent(ph, budget, step):
    st, at, *_ = _first_hop(ph)
    st.budget = budget
    with pytest.raises(InvariantError) as info:
        _walk(st, ph, [], at, 1)
    assert str(info.value) == (
        f"algorithm-stuck: step budget {budget} exhausted at {ph.name}{step}"
    )


def _one_path_through_two_switch_edges():
    """A fresh walk state on the 4x4 lattice whose forward walk would switch
    at the choke of an R2R1 path with hubs a0 b0 a1 b1 a2 b2 choke, and
    one stored path: the alternating path's own stretch a1 b1 a2 b2, which
    holds both switch edges a1-b1 and a2-b2.  Returns the state, the
    stretch, its vertices and the choke."""
    st = _State(_grid_rep(4, 4), None)
    index = next(i for i, alt in enumerate(st.alt) if alt.kind == _FORWARD.stop)
    a0, b0, a1, b1, a2, b2, choke = st.hubs[index]
    assert st.chokes[index] == choke
    stretch, at = [], a1
    for eid in st.alt[index].steps[3:6]:
        forward = st.g.edge_by_id[eid].u == at
        stretch.append((eid, forward))
        at = st.g.edge_by_id[eid].ends(forward)[1]
    st.store(stretch)
    verts = path_vertices(st.g, Path(steps=tuple(stretch)))
    assert verts == [a1, b1, a2, b2]
    return st, stretch, verts, choke


def test_an_edge_is_found_only_on_the_path_that_holds_it():
    # The stored stretch owns the natural tails of edges it does not hold;
    # looking one of them up finds no path.
    st, stretch, verts, _ = _one_path_through_two_switch_edges()
    assert all(st.path_with_edge(eid) is stretch for eid, _ in stretch)
    held = {eid for eid, _ in stretch}
    foreign = [e.id for e in st.g.edges if e.id not in held and st.ends[e.id][0] in verts]
    assert foreign
    for eid in foreign:
        with pytest.raises(InvariantError) as info:
            st.path_with_edge(eid)
        assert str(info.value) == f"algorithm-stuck: edge {eid} on no interconnecting path"


def test_switch_edges_on_one_path_stop_the_walk():
    # a0 is the only free upper hub left, so the walk switches with d = 2,
    # and both switch edges lie on the one stored stretch.
    st, _, verts, choke = _one_path_through_two_switch_edges()
    st.occupied.update(verts + [choke])
    with pytest.raises(InvariantError) as info:
        _walk(st, _FORWARD, [], choke, 1)
    assert str(info.value) == "algorithm-stuck: switch edges share a path"


def test_a_run_takes_one_step_per_hub_plus_one_per_path(monkeypatch):
    # Each start occupies two hubs, each stop none, and every other step one;
    # an iteration has one start and two stops.  So a run takes as many
    # steps as the representation has hubs plus the run has paths, and a
    # budget one short stops it at its last step, the final backward stop.
    budget = None
    init = _State.__init__

    def init_with_budget(st, *args):
        init(st, *args)
        if budget is not None:
            st.budget = budget

    monkeypatch.setattr(_State, "__init__", init_with_budget)
    runs = [
        (_grid_rep(c1, c2), seed) for c1, c2 in ((3, 3), (4, 3), (4, 4)) for seed in (None, 0, 1)
    ]
    runs += [(to_representation(minimalize(g)), None) for g, _ in two_pair_corpus(401, 6, extra=1)]
    for rep, seed in runs:
        budget = None
        run = run_interconnect(rep, seed=seed)
        budget = int(hub_count(rep.graph)) + len(run.paths)
        assert run_interconnect(rep, seed=seed) == run
        budget -= 1
        with pytest.raises(InvariantError) as info:
            run_interconnect(rep, seed=seed)
        assert str(info.value) == f"algorithm-stuck: step budget {budget} exhausted at backward"
