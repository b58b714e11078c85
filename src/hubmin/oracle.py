"""Brute-force reference answers for small networks.

Exhaustive enumeration of path systems and of edge-deletion subgraphs.
Deliberately independent of the structural machinery (no representations,
no alternating paths) so it can cross-check those modules; guarded against
inputs too large to enumerate.  The minimum-hub search shares only the
network compiler with ``minimalize``: it runs a fresh max flow for every
deletion set instead of rerouting warm flows.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations
from typing import FrozenSet, Iterable, List, Set, Tuple

from .cuts import _compile_network, min_vertex_cut
from .extremal import signature_bound
from .graph_core import (
    InvariantError,
    Network,
    Path,
    PathSystem,
    delete_edges,
    hub_count,
    make_path_system,
    path_vertices,
)

MAX_INTERIOR_FOR_ENUMERATION = 20
MAX_FREE_EDGES = 24


@dataclass(frozen=True)
class OracleReport:
    """Result of the exhaustive minimum-hub search."""

    min_hub_subgraph: Network
    min_hubs: int
    num_minimal_subgraphs: int
    elapsed: float


def _all_simple_paths(g: Network, pair_index: int) -> List[Path]:
    """Every simple source->sink path, in (length, edge ids) order."""
    pair = g.pairs[pair_index]
    out: List[Path] = []
    steps: List[Tuple[int, bool]] = []
    visited: Set[int] = {pair.source}

    def extend(at: int) -> None:
        if at == pair.sink:
            out.append(Path(steps=tuple(steps)))
            return
        for eid in g.incident.get(at, ()):
            e = g.edge_by_id[eid]
            forward = e.u == at
            if e.directed and not forward:
                continue
            nxt = e.other(at)
            if nxt in visited:
                continue
            if g.is_terminal(nxt) and nxt != pair.sink:
                continue
            visited.add(nxt)
            steps.append((eid, forward))
            extend(nxt)
            steps.pop()
            visited.discard(nxt)

    extend(pair.source)
    out.sort(key=lambda p: (len(p.steps), p.edge_ids()))
    return out


def enumerate_path_systems(g: Network, pair_index: int) -> List[PathSystem]:
    """All systems of pairwise disjoint paths meeting the pair's demand."""
    interior = [v for v in g.vertices if not g.is_terminal(v)]
    if len(interior) > MAX_INTERIOR_FOR_ENUMERATION:
        raise InvariantError(
            "size-guard-exceeded",
            f"{len(interior)} interior vertices (enumeration limit "
            f"{MAX_INTERIOR_FOR_ENUMERATION})",
        )
    paths = _all_simple_paths(g, pair_index)
    demand = g.pairs[pair_index].demand
    interiors = [
        frozenset(path_vertices(g, p)[1:-1]) for p in paths
    ]
    edge_sets = [frozenset(p.edge_ids()) for p in paths]
    systems: List[PathSystem] = []
    for combo in combinations(range(len(paths)), demand):
        ok = True
        for a, b in combinations(combo, 2):
            if interiors[a] & interiors[b] or edge_sets[a] & edge_sets[b]:
                ok = False
                break
        if ok:
            systems.append(
                make_path_system(g, pair_index, [paths[i] for i in combo])
            )
    return systems


class _CompiledPairs:
    """Every pair's vertex-split net, on one compile of the network.

    ``profile`` decides a deletion set with a fresh max flow per pair on
    the compiled nets, with the deleted edges' arcs at zero capacity.  The
    flows start from zero on every call, so no answer depends on the order
    in which deletion sets are visited.
    """

    def __init__(self, g: Network):
        split = _compile_network(g)
        self._pairs = []
        for i, pair in enumerate(g.pairs):
            built = split.pair_net(i)
            self._pairs.append(
                (built.net, built.s, built.t, pair.demand, built.arcs_of_edge)
            )

    def profile(self, deleted: Iterable[int]) -> Tuple[bool, bool]:
        """(feasible: all cuts >= demand, exact: all cuts == demand) once the
        ``deleted`` edges are gone."""
        exact = True
        for net, s, t, demand, arcs_of_edge in self._pairs:
            cap = net.cap
            cap[:] = net.base_cap
            for eid in deleted:
                for arc in arcs_of_edge[eid]:
                    cap[arc] = 0
            # One unit past the demand tells "above" from "exact".
            value = net.max_flow(s, t, limit=demand + 1)
            if value < demand:
                return False, False
            if value != demand:
                exact = False
        return True, exact


def min_hub_subgraph(g: Network, max_free: int = MAX_FREE_EDGES) -> OracleReport:
    """Exhaustive search for a spanning subgraph in class with fewest hubs.

    Edges whose single removal already destroys feasibility can never be
    deleted; the search branches only on the rest, pruning any deletion set
    that drops some pair's cut below its demand.  Each pair's net is
    compiled once; only the returned subgraph is built as a ``Network``,
    and its cuts are checked once more with ``min_vertex_cut``.
    """
    start = time.perf_counter()
    nets = _CompiledPairs(g)
    root = nets.profile(())
    if not root[0]:
        raise InvariantError(
            "no-in-class-subgraph", "a cut is already below its demand"
        )
    singles = {e: nets.profile((e,)) for e in sorted(g.edge_by_id)}
    free = [e for e, (feasible, _) in singles.items() if feasible]
    if len(free) > max_free:
        raise InvariantError(
            "size-guard-exceeded",
            f"{len(free)} deletable edges (search limit {max_free})",
        )

    in_class_states: Set[FrozenSet[int]] = set()

    def search(
        deleted: FrozenSet[int], from_index: int, profile: Tuple[bool, bool]
    ) -> None:
        sub_feasible, exact = profile
        if not sub_feasible:
            return
        if exact:
            in_class_states.add(deleted)
        for i in range(from_index, len(free)):
            child = deleted | {free[i]}
            # The root and its children were decided by the checks above.
            search(child, i + 1, nets.profile(child) if deleted else singles[free[i]])

    search(frozenset(), 0, root)
    if not in_class_states:
        raise InvariantError(
            "no-in-class-subgraph", "no deletion set reaches exact cuts"
        )

    free_set = set(free)
    minimal = [
        s
        for s in in_class_states
        if all(s | {f} not in in_class_states for f in free_set - s)
    ]

    interior_degree = {v: g.degree(v) for v in g.vertices if not g.is_terminal(v)}

    def keyed(state: FrozenSet[int]) -> Tuple[int, Tuple[int, ...]]:
        degree = dict(interior_degree)
        for eid in state:
            e = g.edge_by_id[eid]
            for end in (e.u, e.v):
                if end in degree:
                    degree[end] -= 1
        hubs = sum(1 for d in degree.values() if d >= 3)
        return (hubs, tuple(sorted(g.edge_by_id.keys() - state)))

    best = min(in_class_states, key=keyed)
    best_graph = delete_edges(g, best)
    for i, pair in enumerate(best_graph.pairs):
        value = min_vertex_cut(best_graph, i).value
        if value != pair.demand:
            raise InvariantError(
                "oracle-cut-mismatch",
                f"pair {i} cut {value} differs from demand {pair.demand}",
            )
    return OracleReport(
        min_hub_subgraph=best_graph,
        min_hubs=hub_count(best_graph),
        num_minimal_subgraphs=len(minimal),
        elapsed=time.perf_counter() - start,
    )


def check_bound(g: Network, max_free: int = MAX_FREE_EDGES) -> bool:
    """Does the exhaustive minimum respect the demand-signature bound?"""
    report = min_hub_subgraph(g, max_free=max_free)
    return report.min_hubs <= signature_bound([p.demand for p in g.pairs])
