"""Brute-force reference answers for small networks.

Exhaustive enumeration of path systems and of edge-deletion subgraphs.
Deliberately independent of the structural machinery (no representations,
no alternating paths) so it can cross-check those modules; guarded against
inputs too large to enumerate.  The minimum-hub search shares only the
network compiler with ``minimalize``.  A deletion set reuses its parent's
flow for a pair when that flow avoids every deleted edge, and otherwise
runs a max flow from zero; it never reroutes or augments a warm flow and
reads no residual components, so it stays independent of
``cuts._DeletionQueries``, which it cross-checks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations
from typing import Collection, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

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
    interiors = [frozenset(path_vertices(g, p)[1:-1]) for p in paths]
    edge_sets = [frozenset(p.edge_ids()) for p in paths]
    return [
        make_path_system(g, pair_index, [paths[i] for i in combo])
        for combo in combinations(range(len(paths)), demand)
        if not any(
            interiors[a] & interiors[b] or edge_sets[a] & edge_sets[b]
            for a, b in combinations(combo, 2)
        )
    ]


# A pair's witness: the edges its flow uses, and the flow's value.
_Witness = Tuple[FrozenSet[int], int]


class _CompiledPairs:
    """Every pair's vertex-split net, on one compile of the network.

    ``profile`` decides a deletion set pair by pair.  A pair's *witness* is
    a flow found on some deletion set A by a max flow from zero with
    ``limit = demand + 1``: the edges that carry it, and its value.  On a
    superset D of A whose deleted edges the witness avoids, the same flow
    is still a flow, so the value decides D exactly.  ``demand + 1`` shows
    that D's cut is above the demand.  ``demand`` means cut(A) = demand;
    deleting edges never raises a cut, so cut(D) <= demand, and the
    witness gives cut(D) >= demand.  Only a pair whose witness uses a
    deleted edge runs a fresh max flow, from zero flow, with the deleted
    edges' arcs at zero capacity.  A flow's edges are read from the
    reverse arcs, whose capacity is the flow on their forward arc and
    stays 0 on a deleted arc.  Every arc id a pair uses, deleted and
    witness arcs alike, comes from that pair's own net, so any
    ``_PairNet`` serves.
    """

    def __init__(self, g: Network):
        split = _compile_network(g)
        self._pairs = []
        for i, pair in enumerate(g.pairs):
            built = split.pair_net(i)
            flow_arcs = [(arc ^ 1, eid) for arc, (eid, _) in built.edge_arcs.items()]
            self._pairs.append(
                (built.net, built.s, built.t, pair.demand, built.arcs_of_edge, flow_arcs)
            )

    def profile(
        self,
        deleted: Collection[int],
        inherited: Optional[Sequence[_Witness]] = None,
    ) -> Tuple[bool, bool, Tuple[_Witness, ...]]:
        """(feasible: all cuts >= demand, exact: all cuts == demand, the
        pairs' witnesses) once the ``deleted`` edges are gone.

        ``inherited`` holds the witnesses of a deletion set that ``deleted``
        contains.  An infeasible set stops at its first short pair and
        returns no witnesses.
        """
        exact = True
        witnesses: List[_Witness] = []
        for k, (net, s, t, demand, arcs_of_edge, flow_arcs) in enumerate(self._pairs):
            if inherited is not None and inherited[k][0].isdisjoint(deleted):
                witness = inherited[k]
            else:
                cap = net.cap
                cap[:] = net.base_cap
                for eid in deleted:
                    for arc in arcs_of_edge[eid]:
                        cap[arc] = 0
                # One unit past the demand tells "above" from "exact".
                value = net.max_flow(s, t, limit=demand + 1)
                if value < demand:
                    return False, False, ()
                witness = (frozenset(eid for rev, eid in flow_arcs if cap[rev]), value)
            if witness[1] != demand:
                exact = False
            witnesses.append(witness)
        return True, exact, tuple(witnesses)


def min_hub_subgraph(g: Network, max_free: int = MAX_FREE_EDGES) -> OracleReport:
    """Exhaustive search for a spanning subgraph in class with fewest hubs.

    Edges whose single removal already destroys feasibility can never be
    deleted; the search branches only on the rest, pruning any deletion set
    that drops some pair's cut below its demand.  Each pair's net is
    compiled once, and each deletion set inherits its parent's witnesses
    (see ``_CompiledPairs``); the single deletions inherit the input's.
    The hub count follows the deletions down the search.  Only the returned
    subgraph is built as a ``Network``, and its cuts are checked once more
    with ``min_vertex_cut``.
    """
    start = time.perf_counter()
    nets = _CompiledPairs(g)
    root_feasible, root_exact, root_witnesses = nets.profile(())
    if not root_feasible:
        raise InvariantError(
            "no-in-class-subgraph", "a cut is already below its demand"
        )
    singles = {e: nets.profile((e,), root_witnesses) for e in sorted(g.edge_by_id)}
    free = [e for e, (feasible, _, _) in singles.items() if feasible]
    if len(free) > max_free:
        raise InvariantError(
            "size-guard-exceeded",
            f"{len(free)} deletable edges (search limit {max_free})",
        )

    degree = {v: g.degree(v) for v in g.vertices if not g.is_terminal(v)}
    interior_ends = {
        eid: [end for end in g.edge_by_id[eid].ends(True) if end in degree] for eid in free
    }
    # Hub count of every deletion set that reaches exact cuts.
    exact_hubs: Dict[FrozenSet[int], int] = {}

    def search(
        deleted: FrozenSet[int],
        from_index: int,
        witnesses: Tuple[_Witness, ...],
        hubs: int,
    ) -> None:
        for i in range(from_index, len(free)):
            eid = free[i]
            child = deleted | {eid}
            # The children of the root were decided by the checks above.
            feasible, exact, child_witnesses = (
                nets.profile(child, witnesses) if deleted else singles[eid]
            )
            if not feasible:
                continue
            ends = interior_ends[eid]
            child_hubs = hubs
            for v in ends:
                degree[v] -= 1
                if degree[v] == 2:
                    child_hubs -= 1
            if exact:
                exact_hubs[child] = child_hubs
            search(child, i + 1, child_witnesses, child_hubs)
            for v in ends:
                degree[v] += 1

    root_hubs = hub_count(g)
    if root_exact:
        exact_hubs[frozenset()] = root_hubs
    search(frozenset(), 0, root_witnesses, root_hubs)
    if not exact_hubs:
        raise InvariantError(
            "no-in-class-subgraph", "no deletion set reaches exact cuts"
        )

    free_set = set(free)
    minimal = [
        s
        for s in exact_hubs
        if all(s | {f} not in exact_hubs for f in free_set - s)
    ]

    # Fewest hubs first, then the smallest sorted tuple of surviving edges.
    min_hubs = min(exact_hubs.values())
    best = min(
        (s for s, hubs in exact_hubs.items() if hubs == min_hubs),
        key=lambda s: tuple(sorted(g.edge_by_id.keys() - s)),
    )
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
