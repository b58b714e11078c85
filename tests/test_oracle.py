"""Exhaustive enumeration cross-checks and their size guards."""

from __future__ import annotations

import gc
import random

import pytest

import hubmin.cuts
import hubmin.oracle
from hubmin import (
    CutResult,
    Edge,
    InvariantError,
    Network,
    Pair,
    delete_edges,
    enumerate_path_systems,
    grid_graph,
    hub_count,
    in_class,
    is_minimal,
    min_hub_subgraph,
    min_vertex_cut,
    minimalize,
    ones_graph,
    random_network,
    reroutable_witness,
    run_interconnect,
    signature_bound,
    to_representation,
    verify_run,
    vertex_disjoint_paths,
    witness_222,
)
from hubmin._flownet import FlowNet
from hubmin.oracle import MAX_FREE_EDGES, _degree_settled, _search, _survivor_key

from conftest import two_pair_corpus


def test_minimal_input_is_its_own_minimum():
    g = grid_graph(2, 2)
    report = min_hub_subgraph(g)
    assert report.min_hubs == 8
    assert report.num_minimal_subgraphs == 1
    assert report.min_hub_subgraph == g
    assert report.elapsed >= 0.0


def test_witness_222_is_hub_optimal():
    report = min_hub_subgraph(witness_222())
    assert report.min_hubs == 12


def test_frozen_random_instances():
    # Enumeration answers for three fixed seeds, frozen after one-off runs.
    expected = {1: (3, 2), 2: (2, 1), 3: (2, 2)}
    for seed, (min_hubs, n_minimal) in expected.items():
        g, _ = random_network(seed, (2, 2), extra=2)
        report = min_hub_subgraph(g)
        assert (report.min_hubs, report.num_minimal_subgraphs) == (
            min_hubs,
            n_minimal,
        ), seed


def test_oracle_minimum_is_reachable_and_in_class():
    for g, _ in two_pair_corpus(seed=501, count=15, extra=2):
        report = min_hub_subgraph(g)
        sub = report.min_hub_subgraph
        assert in_class(sub)
        assert set(sub.edge_by_id) <= set(g.edge_by_id)
        assert int(hub_count(sub)) == report.min_hubs
        # Greedy minimalization can never beat the exhaustive answer.
        assert report.min_hubs <= int(hub_count(minimalize(g)))


def test_oracle_counts_minimal_subgraphs_of_minimal_inputs():
    for g, _ in two_pair_corpus(seed=502, count=10, extra=0):
        h = minimalize(g)
        report = min_hub_subgraph(h)
        assert report.num_minimal_subgraphs == 1
        assert report.min_hub_subgraph == h
        assert is_minimal(h)


def test_enumeration_contains_the_flow_witness():
    for g, _ in two_pair_corpus(seed=503, count=10, extra=1):
        for i, pair in enumerate(g.pairs):
            all_systems = {
                frozenset(p.steps for p in s.paths)
                for s in enumerate_path_systems(g, i)
            }
            found = vertex_disjoint_paths(g, i, pair.demand)
            assert frozenset(p.steps for p in found.paths) in all_systems


def test_enumeration_counts_on_known_graphs():
    assert len(enumerate_path_systems(grid_graph(2, 2), 0)) == 1
    assert len(enumerate_path_systems(grid_graph(2, 2), 1)) == 1
    assert len(enumerate_path_systems(reroutable_witness(), 2)) == 2


def test_enumeration_size_guard():
    g = ones_graph(4, 4, 3)  # 38 interior vertices
    with pytest.raises(InvariantError) as err:
        enumerate_path_systems(g, 0)
    assert err.value.code == "size-guard-exceeded"


def test_search_size_guard():
    g, _ = random_network(1, (2, 2), extra=2)
    with pytest.raises(InvariantError) as err:
        min_hub_subgraph(g, max_free=0)
    assert err.value.code == "size-guard-exceeded"


def test_search_rejects_deficient_input():
    g = delete_edges(grid_graph(2, 2), [0])
    with pytest.raises(InvariantError) as err:
        min_hub_subgraph(g)
    assert err.value.code == "no-in-class-subgraph"


def test_check_bound_on_small_families():
    # The exhaustive minimum respects the demand-signature bound.
    graphs = [grid_graph(2, 2), witness_222()]
    graphs += [random_network(seed, (2, 2, 2), extra=1)[0] for seed in range(4)]
    for g in graphs:
        assert min_hub_subgraph(g).min_hubs <= signature_bound([p.demand for p in g.pairs])


def test_oracle_leaves_no_garbage_cycles():
    # Everything the search builds is freed by reference counting on
    # return, with nothing left for the cyclic collector.
    graphs = [witness_222(), grid_graph(2, 2)] + [
        random_network(seed, (2, 2), extra=3)[0] for seed in range(4)
    ]
    gc.collect()
    gc.disable()
    try:
        for g in graphs:
            min_hub_subgraph(g)
            assert gc.collect() == 0, g
    finally:
        gc.enable()


def test_oracle_is_deterministic():
    g, _ = random_network(9, (2, 2), extra=3)
    a = min_hub_subgraph(g)
    b = min_hub_subgraph(g)
    assert a.min_hub_subgraph == b.min_hub_subgraph
    assert a.min_hubs == b.min_hubs
    assert a.num_minimal_subgraphs == b.num_minimal_subgraphs


# ---------------------------------------------------------------------------
# Differential check against the plain search: a new Network and fresh
# min_vertex_cut calls for every deletion set it visits.
# ---------------------------------------------------------------------------


def _reference_profile(g):
    feasible = exact = True
    for i, pair in enumerate(g.pairs):
        value = min_vertex_cut(g, i).value
        if value < pair.demand:
            feasible = False
            exact = False
            break
        if value != pair.demand:
            exact = False
    return feasible, exact


def _reference_min_hub_subgraph(g, max_free):
    """(min_hubs, num_minimal_subgraphs, subgraph), or raises like the oracle."""
    if not _reference_profile(g)[0]:
        raise InvariantError("no-in-class-subgraph")
    free = [e for e in sorted(g.edge_by_id) if _reference_profile(delete_edges(g, [e]))[0]]
    if len(free) > max_free:
        raise InvariantError("size-guard-exceeded")
    states = set()

    def search(deleted, from_index):
        h = delete_edges(g, deleted) if deleted else g
        feasible, exact = _reference_profile(h)
        if not feasible:
            return
        if exact:
            states.add(deleted)
        for i in range(from_index, len(free)):
            search(deleted | {free[i]}, i + 1)

    search(frozenset(), 0)
    if not states:
        raise InvariantError("no-in-class-subgraph")
    minimal = [s for s in states if all(s | {f} not in states for f in set(free) - s)]
    best = min(
        states,
        key=lambda s: (
            int(hub_count(delete_edges(g, s))),
            tuple(sorted(g.edge_by_id.keys() - s)),
        ),
    )
    best_graph = delete_edges(g, best)
    return int(hub_count(best_graph)), len(minimal), best_graph


def _with_direct_edge(g, pair_index, raise_demand=True):
    """``g`` plus a direct source->sink edge for one pair; its demand rises by
    one unless ``raise_demand`` is False, which leaves the cut above it."""
    pairs = list(g.pairs)
    pair = pairs[pair_index]
    pairs[pair_index] = Pair(pair.source, pair.sink, pair.demand + raise_demand)
    edge = Edge(max(g.edge_by_id) + 1, pair.source, pair.sink, True)
    return Network(vertices=g.vertices, edges=g.edges + (edge,), pairs=tuple(pairs))


def _with_lowered_demand(g, pair_index):
    """``g`` with one pair's demand one below its cut, where the cut allows."""
    pairs = list(g.pairs)
    pair = pairs[pair_index]
    pairs[pair_index] = Pair(pair.source, pair.sink, max(1, pair.demand - 1))
    return Network(vertices=g.vertices, edges=g.edges, pairs=tuple(pairs))


def _differential_corpus():
    rng = random.Random(4242)
    demand_sets = ((2, 2), (1, 3), (2, 3), (3, 3), (2, 2, 2), (1, 2, 2))
    out = [witness_222(), grid_graph(2, 2)]
    for k in range(2 * len(demand_sets) * 7):
        demands = demand_sets[k % len(demand_sets)]
        g, _ = random_network(
            rng, list(demands), reuse=rng.uniform(0.3, 0.8), extra=k // 2 % 7
        )
        if k % 4 == 1:
            g = _with_direct_edge(g, k % len(g.pairs))
        elif k % 4 == 2:
            g = _with_direct_edge(g, k % len(g.pairs), raise_demand=False)
        elif k % 8 == 3:
            g = delete_edges(g, [rng.choice(sorted(g.edge_by_id))])
        out.append(g)
    # Cuts above their demands, where exactness and feasibility differ.
    for k in range(36):
        demands = demand_sets[k % len(demand_sets)]
        g, _ = random_network(
            rng, list(demands), reuse=rng.uniform(0.3, 0.8), extra=k % 4
        )
        out.append(_with_lowered_demand(g, k % len(g.pairs)))
    return out


def _has_parallel_edges(g):
    ends = [frozenset((e.u, e.v)) for e in g.edges if not e.directed]
    return len(ends) != len(set(ends))


def _outcome(fn, g):
    try:
        return fn(g)
    except InvariantError as exc:
        return exc.code


def test_oracle_matches_the_plain_search():
    max_free = 8
    corpus = _differential_corpus()
    codes = set()
    answered = 0
    for g in corpus:
        want = _outcome(lambda h: _reference_min_hub_subgraph(h, max_free), g)
        got = _outcome(lambda h: min_hub_subgraph(h, max_free=max_free), g)
        if isinstance(want, str):
            assert got == want, g
            codes.add(want)
            continue
        assert not isinstance(got, str), (got, g)
        assert (got.min_hubs, got.num_minimal_subgraphs, got.min_hub_subgraph) == want
        answered += 1
    # The corpus reaches both errors, answers most inputs, and has parallel
    # interior edges and direct source->sink edges.
    assert codes == {"no-in-class-subgraph", "size-guard-exceeded"}
    assert answered >= 80
    assert any(_has_parallel_edges(g) for g in corpus)
    assert any(
        any((e.u, e.v) == (p.source, p.sink) for p in g.pairs for e in g.edges)
        for g in corpus
    )


def _census_host(demands, n):
    """Terminals 0..2k-1 (pair i runs 2i -> 2i+1), interior vertices 2k..2k+n-1
    joined pairwise by undirected edges, and for every pair and interior v
    the edges source -> v and v -> sink."""
    k = len(demands)
    interior = range(2 * k, 2 * k + n)
    ends = [(u, v, False) for u in interior for v in interior if u < v]
    ends += [(2 * i, v, True) for i in range(k) for v in interior]
    ends += [(v, 2 * i + 1, True) for i in range(k) for v in interior]
    return Network(
        vertices=tuple(range(2 * k + n)),
        edges=tuple(Edge(eid, u, v, d) for eid, (u, v, d) in enumerate(ends)),
        pairs=tuple(Pair(2 * i, 2 * i + 1, c) for i, c in enumerate(demands)),
    )


def test_oracle_on_a_fifteen_free_edge_census_host():
    g = _census_host((2, 2), 3)
    assert len(g.edges) == 15
    with pytest.raises(InvariantError) as err:
        min_hub_subgraph(g, max_free=14)
    assert str(err.value) == "size-guard-exceeded: 15 deletable edges (search limit 14)"
    report = min_hub_subgraph(g)
    assert (report.min_hubs, report.num_minimal_subgraphs) == (1, 81)
    want = _reference_min_hub_subgraph(g, max_free=15)
    assert (report.min_hubs, report.num_minimal_subgraphs, report.min_hub_subgraph) == want


# Hosts of the two-pair census: demands, interior size, and the pinned
# (minimal subgraphs, largest hub count among them).
CENSUS = {
    ((1, 1), 2): (16, 2),
    ((1, 1), 3): (177, 2),
    ((1, 2), 2): (4, 2),
    ((1, 2), 3): (123, 3),
    ((2, 2), 2): (1, 2),
    ((2, 2), 3): (81, 3),
}


def test_two_pair_census_of_small_hosts():
    # Every minimal subgraph of a host is a maximal exact deletion set of the
    # oracle's search.  Each must be minimal and pass the whole pipeline.
    for (demands, n), pinned in CENSUS.items():
        g = _census_host(demands, n)
        edge_ids, search = _search(g, MAX_FREE_EDGES)
        maximal = search.maximal_exact_sets()
        assert len(maximal) == min_hub_subgraph(g).num_minimal_subgraphs
        subgraphs = [
            delete_edges(g, [eid for p, eid in enumerate(edge_ids) if s >> p & 1])
            for s in maximal
        ]
        for s, sub in zip(maximal, subgraphs):
            assert int(hub_count(sub)) == search.exact_hubs[s], (demands, n)
            assert is_minimal(sub), (demands, n, s)
            rep = to_representation(sub)
            report = verify_run(rep, run_interconnect(rep))
            assert report.ok, (demands, n, s, report.failures)
        most = max(int(hub_count(sub)) for sub in subgraphs)
        assert (len(maximal), most) == pinned, (demands, n)


def test_degree_settled_deletions_leave_a_cut_short():
    # Menger's bound, checked against fresh flows: deleting an edge the rule
    # settles drops that pair's cut below its demand.
    hosts = [_census_host(demands, n) for demands, n in CENSUS]
    settled_direct = 0
    total = 0
    for g in _differential_corpus() + hosts:
        for eid, i in _degree_settled(g).items():
            pair = g.pairs[i]
            assert min_vertex_cut(delete_edges(g, [eid]), i).value < pair.demand, (g, eid)
            e = g.edge_by_id[eid]
            settled_direct += (e.u, e.v) == (pair.source, pair.sink)
            total += 1
    assert total > 0
    # Some tight terminal carries a direct source->sink edge.
    assert settled_direct > 0


def test_survivor_key_orders_as_sorted_survivor_lists():
    def ids(mask):
        return [p for p in range(mask.bit_length()) if mask >> p & 1]

    rng = random.Random(24)
    for size in (1, 2, 3, 5, 12, 20):
        full = (1 << size) - 1
        masks = [0, full] + [1 << p for p in range(size)]
        masks += [rng.getrandbits(size) for _ in range(200)]
        for _ in range(1000):
            a, b = rng.choice(masks), rng.choice(masks)
            assert (_survivor_key(a) < _survivor_key(b)) == (ids(a) < ids(b)), (a, b)
            assert (_survivor_key(a) == _survivor_key(b)) == (a == b), (a, b)
    # Nothing left (every edge deleted) sorts before any survivor.
    assert _survivor_key(0) == ""
    assert _survivor_key(0) < _survivor_key(1) < _survivor_key(3) < _survivor_key(2)


def test_oracle_compiles_each_pair_once(monkeypatch):
    counts = {"networks": 0}
    compiled = []
    compile_network = hubmin.cuts._compile_network
    init = Network.__post_init__

    def counting_compile(g):
        compiled.append(g)
        return compile_network(g)

    def counting_init(self):
        counts["networks"] += 1
        init(self)

    monkeypatch.setattr(hubmin.cuts, "_compile_network", counting_compile)
    monkeypatch.setattr(hubmin.oracle, "_compile_network", counting_compile)
    monkeypatch.setattr(Network, "__post_init__", counting_init)
    rng = random.Random(77)
    free_counts = set()
    for k in range(12):
        demands = [(2, 2), (2, 2, 2), (2, 3)][k % 3]
        g, _ = random_network(rng, list(demands), reuse=0.5, extra=k % 7)
        free_counts.add(
            sum(_reference_profile(delete_edges(g, [e]))[0] for e in g.edge_by_id)
        )
        counts.update(networks=0)
        compiled.clear()
        min_hub_subgraph(g)
        # The input network once, plus one in_class check of the returned
        # subgraph.
        assert sum(h is g for h in compiled) == 1, k
        assert len(compiled) == 1 + 1, k
        assert 1 <= counts["networks"] <= 2, k
    assert min(free_counts) <= 1 and max(free_counts) >= 6


def test_oracle_decides_each_deletion_set_once(monkeypatch):
    profile = hubmin.oracle._CompiledPairs.profile
    seen = []

    def recording(self, deleted, inherited=None):
        seen.append(deleted)
        return profile(self, deleted, inherited)

    monkeypatch.setattr(hubmin.oracle._CompiledPairs, "profile", recording)
    rng = random.Random(78)
    answered = settled = profiled = 0
    for k in range(10):
        demands = [(2, 2), (2, 2, 2), (1, 3)][k % 3]
        g, _ = random_network(rng, list(demands), reuse=0.5, extra=k % 6)
        # Edges at a terminal with exactly its pair's demand of edges.
        tight = {
            eid
            for pair in g.pairs
            for t in (pair.source, pair.sink)
            if len(g.incident[t]) == pair.demand
            for eid in g.incident[t]
        }
        singles = [1 << p for p, eid in enumerate(sorted(g.edge_by_id)) if eid not in tight]
        seen.clear()
        try:
            min_hub_subgraph(g)
            answered += 1
        except InvariantError as err:
            assert err.code == "size-guard-exceeded", k
        assert len(set(seen)) == len(seen), k
        # The input check comes first, then every single deletion that no
        # terminal's degree settles, in id order: bit p of a mask is the
        # edge at position p in id order.  No other set is a single edge.
        assert seen[: 1 + len(singles)] == [0] + singles, k
        assert sum(m & (m - 1) == 0 for m in seen) == 1 + len(singles), k
        settled += len(tight)
        profiled += len(singles)
    assert answered >= 5
    assert settled > 0 and profiled > 0


def test_oracle_reuses_inherited_witnesses(monkeypatch):
    profile = hubmin.oracle._CompiledPairs.profile
    max_flow = FlowNet.max_flow
    counts = {"flows": 0}
    calls = []

    def counting_flow(self, *args, **kwargs):
        counts["flows"] += 1
        return max_flow(self, *args, **kwargs)

    def recording(self, deleted, inherited=None):
        before = counts["flows"]
        out = profile(self, deleted, inherited)
        calls.append((deleted, inherited, out, counts["flows"] - before))
        return out

    monkeypatch.setattr(FlowNet, "max_flow", counting_flow)
    monkeypatch.setattr(hubmin.oracle._CompiledPairs, "profile", recording)
    rng = random.Random(79)
    flows = pair_checks = reused = 0
    for k in range(12):
        demands = [(2, 2), (2, 2, 2), (2, 3)][k % 3]
        g, _ = random_network(rng, list(demands), reuse=0.5, extra=3 + k % 4)
        calls.clear()
        min_hub_subgraph(g)
        flows += sum(ran for _, _, _, ran in calls)
        feasible_states = sum(out[0] for _, _, out, _ in calls)
        pair_checks += feasible_states * len(g.pairs)
        reference = hubmin.oracle._CompiledPairs(g, sorted(g.edge_by_id))
        for deleted, inherited, out, ran in calls:
            # A witness decides exactly what a fresh flow decides, and
            # never uses a deleted edge.
            assert out[:2] == profile(reference, deleted)[:2], (k, deleted)
            assert all(not edges & deleted for edges, _ in out[2]), (k, deleted)
            # Every set but the input inherits witnesses: the single
            # deletions the input's, the others their parent's.
            assert (inherited is None) == (not deleted), (k, deleted)
            if inherited is None:
                continue
            # A pair runs a flow only when its witness uses a deleted edge.
            hit = sum(bool(edges & deleted) for edges, _ in inherited)
            assert ran == hit if out[0] else ran <= hit, (k, deleted)
            if hit == 0:
                assert out[2] == inherited, (k, deleted)
                reused += 1
    # Without witnesses, every feasible state runs one flow per pair.
    assert flows * 2 < pair_checks
    assert reused > 0


def test_oracle_checks_the_returned_cuts(monkeypatch):
    # in_class decides the check; min_vertex_cut only words the failure.
    monkeypatch.setattr(hubmin.oracle, "in_class", lambda g: False)
    monkeypatch.setattr(
        hubmin.oracle,
        "min_vertex_cut",
        lambda g, i: CutResult(value=g.pairs[i].demand + 1, separator=frozenset()),
    )
    with pytest.raises(InvariantError) as err:
        min_hub_subgraph(grid_graph(2, 2))
    assert err.value.code == "oracle-cut-mismatch"
    assert str(err.value) == "oracle-cut-mismatch: cuts [3, 3] differ from demands [2, 2]"
