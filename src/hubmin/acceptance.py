"""The library's claim catalog, verified end to end.

Each claim T1-T9 is a checkable statement about minimum hub counts; the
functions here re-verify them on generated corpora.  ``run_all`` powers the
``hubmin verify-all`` command; the test suite exercises the same claims on
larger corpora with explicit time budgets.

T1  For two pairs, minimality, non-reroutability of both systems, and
    absence of consistent cycles are one property.
T2  Every minimal two-pair network has a degree-3, naturally oriented
    representation reachable by relay removal, crossing stretches, and
    direction matching.
T3  The private edges of a representation decompose into alternating paths:
    with demands (C1, C2) and delta shared paths, the kind counts are
    (delta, delta, C1-delta, C2-delta) with fixed deck parities.
T4  The interconnecting-path construction terminates with exactly delta
    vertex-disjoint paths that partition the hubs, starting on distinct
    S1S2 paths and ending on distinct R2R1 paths, each path meeting every
    alternating path in at most one private edge.
T5  A representation has at most 2*delta*(C1+C2-delta) <= 2*C1*C2 hubs.
T6  The lattice family attains 2*C1*C2 hubs: it is in class and minimal.
T7  Threading n demand-1 pairs raises the maximum to 2*(C1*C2+n); merging
    them gives a minimal (2,2,2) network with 12 hubs.
T8  A minimal single-pair network has no hubs at all.
T9  Maximum hub counts are finite for every demand vector, with the
    explicit recursive bound; beyond two pairs minimality no longer implies
    non-reroutability.
"""

from __future__ import annotations

import random
from typing import Callable, List, Tuple

from .cuts import _full_systems, in_class
from .extremal import (
    finiteness_bound,
    grid_graph,
    grid_instance,
    ones_graph,
    reroutable_witness,
    signature_bound,
    witness_222,
)
from .graph_core import hub_count
from .interconnect import run_interconnect, verify_run
from .minimality import is_minimal, is_reroutable, minimalize, theorem1_agreement
from .oracle import enumerate_path_systems, min_hub_subgraph
from .random_graphs import random_network
from .representation import S1S2, Representation, decompose_private, to_representation

Claim = Tuple[str, str, bool, str]


def _two_pair_corpus(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        c1, c2 = rng.randint(1, 3), rng.randint(1, 3)
        yield random_network(
            rng, [c1, c2], reuse=rng.uniform(0.3, 0.8), extra=rng.randint(0, 2)
        )


def claim_t1(seed: int) -> Tuple[bool, str]:
    checked = 0
    rng = random.Random(seed)
    for _ in range(30):
        c1, c2 = rng.randint(1, 3), rng.randint(1, 3)
        # The equivalence presumes every edge lies on a system path, so the
        # raw corpus adds no unused extra edges.
        g, systems = random_network(rng, [c1, c2], reuse=rng.uniform(0.3, 0.8))
        if not theorem1_agreement(g, systems).agree:
            return False, f"raw graph after {checked} checks"
        m = minimalize(g)
        ms = _full_systems(m)
        report = theorem1_agreement(m, ms)
        if not (report.agree and report.minimal):
            return False, f"minimalized graph after {checked} checks"
        checked += 1
    return True, f"{checked} raw + {checked} minimalized graphs"


def directions_agree(rep: Representation) -> bool:
    """Whether both systems traverse every edge they share the same way."""
    phi, psi = (system.orientation for system in rep.systems)
    return all(psi[eid] == forward for eid, forward in phi.items() if eid in psi)


def claim_t2(seed: int) -> Tuple[bool, str]:
    checked = 0
    for g, _ in _two_pair_corpus(seed + 1, 30):
        rep = to_representation(minimalize(g))
        for v in rep.graph.vertices:
            if not rep.graph.is_terminal(v) and rep.graph.degree(v) != 3:
                return False, f"degree {rep.graph.degree(v)} hub"
        if not directions_agree(rep):
            return False, "systems traverse a shared edge in opposite directions"
        checked += 1
    return True, f"{checked} representations"


def claim_t3(seed: int) -> Tuple[bool, str]:
    checked = 0
    for g, _ in _two_pair_corpus(seed + 2, 30):
        rep = to_representation(minimalize(g))
        alt = decompose_private(rep)  # validates counts and parities internally
        delta = sum(1 for a in alt if a.kind == S1S2)
        c1, c2 = rep.graph.pairs[0].demand, rep.graph.pairs[1].demand
        if not (0 <= delta <= min(c1, c2)):
            return False, f"delta {delta} out of range"
        checked += 1
    return True, f"{checked} decompositions"


def claim_t4(seed: int) -> Tuple[bool, str]:
    checked = 0
    cases = list(_two_pair_corpus(seed + 3, 20))
    reps = [to_representation(minimalize(g)) for g, _ in cases]
    reps += [
        to_representation(spec.network, list(spec.systems))
        for spec in (grid_instance(a, b) for a in (2, 3) for b in (2, 3))
    ]
    for rep in reps:
        run = run_interconnect(rep)
        report = verify_run(rep, run)
        if not report.ok:
            return False, ", ".join(report.failures)
        checked += 1
    return True, f"{checked} verified runs"


def claim_t5(seed: int) -> Tuple[bool, str]:
    checked = 0
    for g, _ in _two_pair_corpus(seed + 4, 30):
        rep = to_representation(minimalize(g))
        alt = decompose_private(rep)
        delta = sum(1 for a in alt if a.kind == S1S2)
        c1, c2 = rep.graph.pairs[0].demand, rep.graph.pairs[1].demand
        hubs = hub_count(rep.graph)
        if not hubs <= 2 * delta * (c1 + c2 - delta) <= 2 * c1 * c2:
            return False, f"hubs {hubs}, delta {delta}, demands ({c1},{c2})"
        checked += 1
    return True, f"{checked} bound checks"


def claim_t6(_: int) -> Tuple[bool, str]:
    for c1 in range(1, 5):
        for c2 in range(1, 5):
            g = grid_graph(c1, c2)
            if hub_count(g) != 2 * c1 * c2:
                return False, f"grid({c1},{c2}) hub count"
            if not (in_class(g) and is_minimal(g)):
                return False, f"grid({c1},{c2}) membership"
    return True, "grids up to (4,4)"


def claim_t7(_: int) -> Tuple[bool, str]:
    for c1 in range(1, 4):
        for c2 in range(1, 4):
            for n in range(3):
                g = ones_graph(c1, c2, n)
                if hub_count(g) != 2 * (c1 * c2 + n):
                    return False, f"ones({c1},{c2},{n}) hub count"
                if not (in_class(g) and is_minimal(g)):
                    return False, f"ones({c1},{c2},{n}) membership"
    if ones_graph(2, 3, 0) != grid_graph(2, 3):
        return False, "ones(_, _, 0) differs from grid"
    w = witness_222()
    if hub_count(w) != 12 or not (in_class(w) and is_minimal(w)):
        return False, "merged witness"
    if min_hub_subgraph(w).min_hubs != 12:
        return False, "witness not tight"
    return True, "ones family + 12-hub witness"


def claim_t8(seed: int) -> Tuple[bool, str]:
    rng = random.Random(seed + 5)
    for i in range(20):
        g, _ = random_network(rng, [rng.randint(1, 3)], extra=rng.randint(0, 2))
        m = minimalize(g)
        if hub_count(m) != 0:
            return False, f"case {i}: {hub_count(m)} hubs"
    return True, "20 single-pair networks"


def claim_t9(_: int) -> Tuple[bool, str]:
    expected = {
        (2,): 0,
        (2, 2): 8,
        (3, 4): 24,
        (2, 2, 2): 312,
    }
    for demands, value in expected.items():
        if finiteness_bound(demands) != value:
            return False, f"bound{demands} != {value}"
    if signature_bound([2, 2, 2]) != 12 or signature_bound([3, 3, 1, 1]) != 22:
        return False, "signature bound"
    w = reroutable_witness()
    if not (in_class(w) and is_minimal(w)):
        return False, "witness membership"
    systems = _full_systems(w)
    if not is_reroutable(w, systems, 2):
        return False, "third pair not reroutable"
    if len(enumerate_path_systems(w, 2)) != 2:
        return False, "third pair system count"
    return True, "bounds + reroutable witness"


CLAIMS: List[Tuple[str, str, Callable[[int], Tuple[bool, str]]]] = [
    ("T1", "minimal = non-reroutable = no consistent cycle (two pairs)", claim_t1),
    ("T2", "minimal two-pair networks have degree-3 representations", claim_t2),
    ("T3", "private edges decompose into alternating paths", claim_t3),
    ("T4", "interconnecting paths partition the hubs", claim_t4),
    ("T5", "hub count at most 2*delta*(C1+C2-delta) <= 2*C1*C2", claim_t5),
    ("T6", "the lattice attains 2*C1*C2 hubs", claim_t6),
    ("T7", "ones family attains 2*(C1*C2+n); (2,2,2) attains 12", claim_t7),
    ("T8", "minimal single-pair networks have no hubs", claim_t8),
    ("T9", "explicit finite bounds; equivalence stops at two pairs", claim_t9),
]


def run_all(seed: int = 7) -> List[Claim]:
    """Verify every claim; returns (key, description, ok, detail) rows."""
    results = []
    for key, description, fn in CLAIMS:
        try:
            ok, detail = fn(seed)
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        results.append((key, description, ok, detail))
    return results
