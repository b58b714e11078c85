"""Acceptance criteria for the library, one test per criterion.

Each test prints a single summary line; run with ``pytest -v`` to see one
pass/fail line per criterion.  Corpus sizes and time budgets are part of the
criteria and asserted explicitly.  The last test checks how often the
claim catalog compiles its networks.
"""

from __future__ import annotations

import random
import time

import pytest

import hubmin.cuts
from hubmin import (
    classify_edges,
    decompose_private,
    deletable_private_edges,
    enumerate_path_systems,
    finiteness_bound,
    grid_graph,
    hub_count,
    in_class,
    is_minimal,
    is_reroutable,
    match_directions,
    min_hub_subgraph,
    minimalize,
    ones_graph,
    random_network,
    remove_relays,
    run_interconnect,
    signature_bound,
    stretch_crossings,
    theorem1_agreement,
    to_representation,
    verify_run,
    vertex_disjoint_paths,
    witness_222,
)
from hubmin._flownet import INF, FlowNet
from hubmin.acceptance import claim_t6

CORPUS_SIZE = 500


@pytest.fixture(scope="module")
def corpus():
    """Seeded random two-pair instances with demands <= 3.

    ``extra=0`` keeps every edge on a system path, the hypothesis of the
    three-way minimality equivalence.
    """
    rng = random.Random(20_240_817)
    out = []
    while len(out) < CORPUS_SIZE:
        demands = (rng.randint(1, 3), rng.randint(1, 3))
        out.append(
            random_network(rng, demands, reuse=rng.uniform(0.3, 0.8), extra=0)
        )
    return out


def _minimal_systems(h):
    return [vertex_disjoint_paths(h, i, p.demand) for i, p in enumerate(h.pairs)]


def test_criterion_01_lattice_tightness():
    """Lattice instances are in class, minimal, with exactly 2*C1*C2 hubs."""
    start = time.perf_counter()
    for c1 in range(1, 6):
        for c2 in range(1, 6):
            g = grid_graph(c1, c2)
            assert in_class(g), (c1, c2)
            assert is_minimal(g), (c1, c2)
            assert int(hub_count(g)) == 2 * c1 * c2, (c1, c2)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"25 lattice checks took {elapsed:.2f}s"
    print(f"criterion 1: PASS - 25 lattices tight in {elapsed:.2f}s")


def test_criterion_02_construction_pipeline(corpus):
    """Minimalize -> represent -> interconnect -> verify on 500 instances."""
    start = time.perf_counter()
    failures = 0
    for g, _ in corpus:
        h = minimalize(g)
        rep = to_representation(h)
        run = run_interconnect(rep)
        report = verify_run(rep, run)
        c1, c2 = h.pairs[0].demand, h.pairs[1].demand
        delta = len(run.paths)
        bound_ok = (
            int(hub_count(rep.graph)) <= 2 * delta * (c1 + c2 - delta) <= 2 * c1 * c2
        )
        if not (report.ok and bound_ok):
            failures += 1
    elapsed = time.perf_counter() - start
    assert failures == 0
    assert elapsed < 60.0, f"pipeline over {CORPUS_SIZE} instances took {elapsed:.1f}s"
    print(
        f"criterion 2: PASS - {CORPUS_SIZE} pipelines verified in {elapsed:.1f}s"
    )


def test_criterion_03_minimality_equivalence(corpus):
    """The three predicates agree; rerouting always exposes a deletable edge."""
    for g, systems in corpus:
        assert theorem1_agreement(g, systems).agree
        for i in range(2):
            if is_reroutable(g, systems, i):
                assert deletable_private_edges(g, systems, i), i
    print(f"criterion 3: PASS - agreement on {CORPUS_SIZE} instances")


def test_criterion_04_alternating_decomposition(corpus):
    """Every corpus representation splits into C1+C2 well-formed paths."""
    for g, _ in corpus:
        h = minimalize(g)
        rep = to_representation(h)
        paths = decompose_private(rep)
        c1, c2 = h.pairs[0].demand, h.pairs[1].demand
        assert len(paths) == c1 + c2
        kinds = {k: sum(1 for a in paths if a.kind == k) for k in
                 ("S1S2", "S1R1", "R2S2", "R2R1")}
        delta = kinds["S1S2"]
        assert (kinds["R2R1"], kinds["S1R1"], kinds["R2S2"]) == (
            delta,
            c1 - delta,
            c2 - delta,
        )
        tags = classify_edges(rep.graph, rep.systems)
        hubs = {v for v in rep.graph.vertices if not rep.graph.is_terminal(v)}
        deck_union = [v for a in paths for v in a.upper + a.lower]
        assert sorted(deck_union) == sorted(hubs)  # each hub on one path
        for a in paths:
            for left, right in zip(a.steps, a.steps[1:]):
                assert tags[left] != tags[right]
    print(f"criterion 4: PASS - decompositions on {CORPUS_SIZE} instances")


def test_criterion_05_unit_extension_family():
    """The unit-extension family is minimal with 2*(C1*C2+n) hubs."""
    for c1 in range(1, 5):
        for c2 in range(1, 5):
            assert ones_graph(c1, c2, 0) == grid_graph(c1, c2)
            for n in range(0, 4):
                g = ones_graph(c1, c2, n)
                assert int(hub_count(g)) == 2 * (c1 * c2 + n), (c1, c2, n)
                assert in_class(g), (c1, c2, n)
                assert is_minimal(g), (c1, c2, n)
    print("criterion 5: PASS - 64 unit-extension instances exact")


def test_criterion_06_triple_two_signature():
    """The (2,2,2) witness needs 12 hubs; random instances never need more."""
    start = time.perf_counter()
    g = witness_222()
    assert in_class(g)
    assert is_minimal(g)
    assert int(hub_count(g)) == 12
    assert min_hub_subgraph(g).min_hubs == 12
    violations = 0
    rng = random.Random(222)
    for _ in range(50):
        h, _ = random_network(rng, (2, 2, 2), extra=rng.randint(0, 2))
        if min_hub_subgraph(h).min_hubs > signature_bound([2, 2, 2]):
            violations += 1
    elapsed = time.perf_counter() - start
    assert violations == 0
    assert elapsed < 600.0
    print(f"criterion 6: PASS - witness tight, 50 random checks in {elapsed:.1f}s")


def test_criterion_07_oracle_agreement():
    """Fast predicates match exhaustive enumeration on 200 instances."""
    start = time.perf_counter()
    rng = random.Random(707)
    for _ in range(200):
        g, systems = random_network(rng, (2, 2), extra=rng.randint(0, 2))
        report = min_hub_subgraph(g)
        assert report.min_hubs <= 2 * 2 * 2
        per_pair = [
            [s.edge_ids() for s in enumerate_path_systems(g, i)] for i in range(2)
        ]
        for i in range(2):
            assert is_reroutable(g, systems, i) == (len(per_pair[i]) >= 2)
        # An edge is deletable exactly when every pair can avoid it.
        deletable = {
            e.id
            for e in g.edges
            if all(any(e.id not in s for s in per_pair[i]) for i in range(2))
        }
        assert is_minimal(g) == (not deletable)
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    print(f"criterion 7: PASS - 200 oracle agreements in {elapsed:.1f}s")


def test_criterion_08_single_pair_needs_no_hubs():
    """Minimalizing any single-pair instance erases every hub."""
    rng = random.Random(808)
    for _ in range(100):
        demand = rng.randint(1, 4)
        g, _ = random_network(rng, (demand,), extra=rng.randint(0, 3))
        assert int(hub_count(minimalize(g))) == 0
    print("criterion 8: PASS - 100 single-pair instances collapse")


def test_criterion_09_bound_calculator():
    """Closed forms of the finiteness bound, exact arithmetic."""
    for c in range(1, 11):
        assert finiteness_bound([c]) == 0
    for c1 in range(1, 11):
        for c2 in range(1, 11):
            assert finiteness_bound([c1, c2]) == 2 * c1 * c2
    assert finiteness_bound([2, 2, 2]) >= 12
    assert signature_bound([2, 2, 2]) == 12
    print("criterion 9: PASS - bound calculator exact")


def test_criterion_10_hub_counts_through_pipeline(corpus):
    """hubs(G) = hubs(G1) <= hubs(G2) = hubs(G-degree) on every instance."""
    for g, _ in corpus:
        h = minimalize(g)
        systems = _minimal_systems(h)
        h1, s1 = remove_relays(h, systems)
        h2, s2 = stretch_crossings(h1, s1)
        h3, _ = match_directions(h2, s2)
        a, b, c, d = (int(hub_count(x)) for x in (h, h1, h2, h3))
        assert a == b <= c == d, (a, b, c, d)
    print(f"criterion 10: PASS - hub relation on {CORPUS_SIZE} instances")


def test_claim_catalog_compiles_each_network_once(monkeypatch):
    # claim_t6 asks in_class(g) and is_minimal(g) of each grid, (1..4) x
    # (1..4): one compile per grid, and one max flow per pair, which
    # in_class runs and keeps and the deletion queries behind is_minimal
    # take.
    compiled, flows = [], []
    compile_network = hubmin.cuts._compile_network
    max_flow = FlowNet.max_flow

    def counting(g):
        compiled.append(g)
        return compile_network(g)

    def recording(net, s, t, limit=INF):
        flows.append(compiled[-1])
        return max_flow(net, s, t, limit)

    monkeypatch.setattr(hubmin.cuts, "_compile_network", counting)
    monkeypatch.setattr(FlowNet, "max_flow", recording)
    assert claim_t6(0)[0]
    assert len(compiled) == 16
    assert flows == [g for g in compiled for _ in g.pairs]
