"""Minimality predicates, rerouting detection, and consistent cycles."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hubmin import (
    InvariantError,
    classify_edges,
    delete_edges,
    enumerate_path_systems,
    deletable_private_edges,
    find_consistent_cycle,
    grid_graph,
    grid_instance,
    in_class,
    is_minimal,
    is_reroutable,
    minimalize,
    parse_instance,
    random_network,
    reroutable_witness,
    serialize_network,
    theorem1_agreement,
    vertex_disjoint_paths,
)
from hubmin import cuts, minimality
from hubmin._flownet import INF, FlowNet

from conftest import FIXTURES, two_pair_corpus


def _systems_for(g):
    return [
        vertex_disjoint_paths(g, i, pair.demand) for i, pair in enumerate(g.pairs)
    ]


def test_grid_is_minimal():
    assert is_minimal(grid_graph(2, 2))


def test_is_minimal_requires_class_membership():
    g = delete_edges(grid_graph(2, 2), [0])
    with pytest.raises(InvariantError) as err:
        is_minimal(g)
    assert err.value.code == "not-in-class"


def test_minimalize_yields_minimal_subgraph():
    g, _ = random_network(5, (2, 2), extra=3)
    h = minimalize(g)
    assert in_class(h) and is_minimal(h)
    assert set(h.edge_by_id) <= set(g.edge_by_id)
    assert h.vertices == g.vertices and h.pairs == g.pairs


def test_minimalize_is_deterministic_and_idempotent():
    g, _ = random_network(6, (2, 3), extra=3)
    a = minimalize(g)
    b = minimalize(g)
    assert a == b
    assert minimalize(a) == a


def test_minimalize_seed_explores_other_minimal_subgraphs():
    # Any seeded variant must still be minimal; different seeds may differ.
    g, _ = random_network(7, (2, 2), extra=3)
    results = {minimalize(g, seed=s) for s in range(6)}
    assert all(is_minimal(h) for h in results)


def test_minimalize_rejects_out_of_class_input():
    with pytest.raises(InvariantError) as err:
        minimalize(delete_edges(grid_graph(2, 2), [0]))
    assert err.value.code == "not-in-class"


def _count_compiles(monkeypatch):
    """Record every network compile and every pair net taken from one."""
    compiles, pair_nets = [], []
    compile_network = cuts._compile_network
    pair_net = cuts._SplitNetwork.pair_net

    def counting_compile(g):
        compiles.append(g)
        return compile_network(g)

    def counting_pair_net(self, i, *args, **kwargs):
        pair_nets.append(i)
        return pair_net(self, i, *args, **kwargs)

    monkeypatch.setattr(cuts, "_compile_network", counting_compile)
    monkeypatch.setattr(cuts._SplitNetwork, "pair_net", counting_pair_net)
    return compiles, pair_nets


def test_membership_check_reuses_the_deletion_nets(monkeypatch):
    # One compile and one flow net per pair: the deletion queries' own max
    # flows decide membership, and an out-of-class network still reads
    # "not-in-class".  A second query of the same network reuses the
    # compile in the slot and builds only its own nets.
    compiles, built = _count_compiles(monkeypatch)
    g, _ = random_network(5, (2, 2), extra=3)
    for run, compiled in ((is_minimal, [g]), (minimalize, [])):
        compiles.clear()
        built.clear()
        run(g)
        assert compiles == compiled
        assert built == [0, 1]
    compiles.clear()
    built.clear()
    with pytest.raises(InvariantError) as err:
        is_minimal(delete_edges(grid_graph(2, 2), [0]))
    assert str(err.value) == "not-in-class"
    assert len(compiles) == 1
    assert built == [0]
    # in_class shares the membership loop: it stops at the first pair whose
    # cut falls short.
    compiles.clear()
    built.clear()
    assert not in_class(delete_edges(grid_graph(2, 2), [0]))
    assert len(compiles) == 1
    assert built == [0]


def test_agreement_compiles_the_network_once(monkeypatch):
    # is_minimal and both is_reroutable checks share one compile; each gets
    # nets of its own, so the answers are those of the separate calls.
    compiles, built = _count_compiles(monkeypatch)
    for g, systems in two_pair_corpus(seed=57, count=12, extra=2):
        compiles.clear()
        built.clear()
        report = theorem1_agreement(g, systems)
        assert compiles == [g]
        assert built == [0, 1, 0, 1] or (built == [0, 1, 0] and not report.non_reroutable)
        assert report.minimal == is_minimal(g)
        assert report.non_reroutable == (
            not (is_reroutable(g, systems, 0) or is_reroutable(g, systems, 1))
        )
        # The separate calls find g's compile in the slot.
        assert compiles == [g]


def test_pipeline_step_compiles_the_minimal_network_once(monkeypatch):
    # The pipeline's step after minimalize: both full systems, then the T1
    # report on the same network.  One compile, and one net and one max
    # flow per pair for the demand flows: the deletion queries take the
    # kept flows over, and every terminal of a minimal network is tight, so
    # no flow runs on.  Each is_reroutable check builds a net of its own.
    compiles, built = _count_compiles(monkeypatch)
    limits = []
    max_flow = FlowNet.max_flow

    def recording(net, s, t, limit=INF):
        limits.append(limit)
        return max_flow(net, s, t, limit)

    monkeypatch.setattr(FlowNet, "max_flow", recording)
    for g, _ in two_pair_corpus(seed=58, count=12, max_demand=5, extra=4):
        m = minimalize(g)
        compiles.clear()
        built.clear()
        limits.clear()
        systems = [vertex_disjoint_paths(m, i, pair.demand) for i, pair in enumerate(m.pairs)]
        report = theorem1_agreement(m, systems)
        assert report.minimal and report.agree
        assert compiles == [m]
        assert built == [0, 1, 0, 1]
        assert limits == [pair.demand for pair in m.pairs]


# ---------------------------------------------------------------------------
# The three equivalent two-pair characterizations.
# ---------------------------------------------------------------------------


def test_characterizations_agree_when_all_edges_used():
    # Hypothesis of the equivalence: every edge lies on a system path.
    for g, systems in two_pair_corpus(seed=201, count=40, extra=0):
        report = theorem1_agreement(g, systems)
        assert report.agree, (g, report)


def test_characterizations_agree_on_minimal_graphs():
    for g, _ in two_pair_corpus(seed=202, count=30, extra=2):
        h = minimalize(g)
        report = theorem1_agreement(h, _systems_for(h))
        assert report.agree
        assert report.minimal and report.non_reroutable and report.no_consistent_cycle


def test_agreement_requires_two_pairs():
    g, systems = random_network(1, (2, 2, 2))
    with pytest.raises(InvariantError) as err:
        theorem1_agreement(g, systems)
    assert err.value.code == "two-pairs-required"


def test_unused_edge_breaks_minimality_but_not_rerouting():
    # With an unused extra edge the graph cannot be minimal, yet the unique
    # systems stay unique: the two predicates legitimately part ways.
    for g, systems in two_pair_corpus(seed=203, count=60, extra=2):
        tags = classify_edges(g, systems)
        if "unused" not in tags.values():
            continue
        report = theorem1_agreement(g, systems)
        assert not report.minimal
        return
    pytest.fail("corpus produced no graph with an unused edge")


def test_reroutable_matches_enumeration():
    for g, systems in two_pair_corpus(seed=204, count=40, extra=1):
        for i in range(2):
            count = len(enumerate_path_systems(g, i))
            assert count >= 1
            assert is_reroutable(g, systems, i) == (count >= 2)


def test_minimal_graphs_have_unique_systems():
    grid = grid_graph(2, 2)
    assert len(enumerate_path_systems(grid, 0)) == 1
    assert len(enumerate_path_systems(grid, 1)) == 1
    spec = grid_instance(2, 2)
    assert not is_reroutable(grid, spec.systems, 0)
    assert not is_reroutable(grid, spec.systems, 1)


def test_reroutable_witness_pairs():
    g = reroutable_witness()
    assert in_class(g) and is_minimal(g)
    systems = _systems_for(g)
    flags = [is_reroutable(g, systems, i) for i in range(len(g.pairs))]
    assert flags == [False, False, True]
    assert len(enumerate_path_systems(g, 2)) == 2


# ---------------------------------------------------------------------------
# Consistent cycles.
# ---------------------------------------------------------------------------


def _fixture(name):
    return parse_instance((FIXTURES / f"{name}.json").read_text())


def _check_cycle(g, systems, cycle):
    """Closed, vertex-simple, terminal-free, and orientation-respecting, and
    at every junction (the wrap-around included) at a vertex the system's
    paths pass through, one of the two steps is on a system edge."""
    seq = []
    prev_head = None
    for eid, forward in cycle.steps:
        tail, head = g.edge_by_id[eid].ends(forward)
        if prev_head is not None:
            assert prev_head == tail
        seq.append(tail)
        prev_head = head
    assert prev_head == seq[0]
    assert len(set(seq)) == len(seq)
    assert not any(g.is_terminal(v) for v in seq)
    system = systems[cycle.system_tag]
    orientation = system.orientation
    for eid, forward in cycle.steps:
        if eid in orientation:
            assert forward == orientation[eid]
    used = {
        v for path in system.paths for eid, fwd in path.steps for v in g.edge_by_id[eid].ends(fwd)
    }
    for k, v in enumerate(seq):
        before, after = cycle.steps[k - 1][0], cycle.steps[k][0]
        if v in used:
            assert before in orientation or after in orientation, (v, cycle.steps)


# The fixture is a raw instance (every edge on a system path).  The first
# closed walk the search finds for tag 1 repeats a vertex, and shortcutting
# it to the inner loop would join two steps off the system at vertex 6.
def _cycle_corpus():
    return two_pair_corpus(seed=205, count=60, extra=0) + [_fixture("theorem1_raw_2090")]


def test_found_cycles_are_well_formed():
    found = 0
    for g, systems in _cycle_corpus():
        for tag in range(2):
            cycle = find_consistent_cycle(g, systems, tag)
            if cycle is not None:
                assert cycle.system_tag == tag
                _check_cycle(g, systems, cycle)
                found += 1
    assert found >= 5, "corpus too tame to exercise cycle extraction"


def test_cycle_found_exactly_for_reroutable_systems():
    for g, systems in _cycle_corpus():
        for tag in range(2):
            found = find_consistent_cycle(g, systems, tag) is not None
            assert found == is_reroutable(g, systems, tag), (tag, serialize_network(g))


# Draw 459 (0-based) of rng = random.Random(11), each draw demands
# (rng.randint(1, 4), rng.randint(1, 4)) and random_network(rng, demands,
# reuse=rng.uniform(0.2, 0.9), extra=rng.randint(0, 4)).  The first closed
# walk the search finds for tag 1 repeats a vertex, and its inner loop is
# already a consistent cycle, so the shortcut returns it.
def test_cycle_search_returns_an_inner_loop(monkeypatch):
    g, systems = _fixture("theorem1_shortcut_459")
    simplify = minimality._simplify_closed_walk
    inner_loops = []

    def counting(g, steps, joins):
        # The shortcut's test is the only ``joins`` call in the routine, and
        # a yes returns the inner loop.
        def watched(a, b):
            ok = joins(a, b)
            inner_loops.append(ok)
            return ok

        return simplify(g, steps, watched)

    monkeypatch.setattr(minimality, "_simplify_closed_walk", counting)
    cycle = find_consistent_cycle(g, systems, 1)
    assert sum(inner_loops) == 1
    assert cycle is not None and len(cycle.steps) == 3
    _check_cycle(g, systems, cycle)
    assert is_reroutable(g, systems, 1)


# Minimal two-pair inputs on which a cycle search without the used-vertex
# rule finds a cycle that no rerouting can use: the "theorem1 cycle" input
# of perfbench/known_failures.json, and three minimalized instances of a
# seeded scan.
@pytest.mark.parametrize(
    "name", ["theorem1_cycle", "theorem1_scan_677", "theorem1_scan_1223", "theorem1_scan_1496"]
)
def test_theorem1_agrees_on_minimal_inputs(name):
    report = theorem1_agreement(*_fixture(name))
    assert report.agree and report.minimal


def test_minimal_graphs_have_no_consistent_cycle():
    spec = grid_instance(3, 2)
    assert find_consistent_cycle(spec.network, spec.systems, 0) is None
    assert find_consistent_cycle(spec.network, spec.systems, 1) is None


# ---------------------------------------------------------------------------
# Constructive rerouting witness: deletable private edges.
# ---------------------------------------------------------------------------


def test_reroutable_systems_expose_deletable_private_edges():
    hits = 0
    for g, systems in two_pair_corpus(seed=206, count=40, extra=0):
        tags = classify_edges(g, systems)
        for i in range(2):
            if not is_reroutable(g, systems, i):
                continue
            hits += 1
            own_tag = "phi" if i == 0 else "psi"
            edges = deletable_private_edges(g, systems, i)
            assert edges, f"reroutable pair {i} without a deletable private edge"
            for eid in edges:
                assert tags[eid] == own_tag
                assert in_class(delete_edges(g, [eid]))
    assert hits >= 5, "corpus too tame to exercise rerouting"


def test_deletable_private_edges_requires_class_membership():
    spec = grid_instance(2, 2)
    with pytest.raises(InvariantError) as err:
        deletable_private_edges(delete_edges(spec.network, [0]), spec.systems, 0)
    assert str(err.value) == "not-in-class"


def test_non_reroutable_minimal_graph_has_no_deletable_private_edges():
    spec = grid_instance(2, 2)
    assert deletable_private_edges(spec.network, spec.systems, 0) == []
    assert deletable_private_edges(spec.network, spec.systems, 1) == []


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_minimalize_never_leaves_class(seed):
    g, _ = random_network(seed, (2, 2), extra=3)
    h = minimalize(g)
    assert in_class(h) and is_minimal(h)
