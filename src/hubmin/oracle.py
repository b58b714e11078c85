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

Menger's bound decides some single deletions with no flow: each of a
pair's paths leaves its source and enters its sink by an edge of its own,
so deleting an edge at a terminal with exactly ``demand`` edges leaves the
pair's cut below its demand.  The oracle codes that count itself
(``_degree_settled``) rather than sharing ``cuts``' tight-terminal code.
The bound never settles exactness: every max flow runs one unit past the
demand, so a flow of value ``demand`` never settles a pair as exact.

The search state is plain integers: a deletion set, the edges of a pair's
flow and the keys of the exact-set table are bit masks, one bit per edge
position in id order.  The recursion is a method, not a closure that
refers to itself, so everything a search builds is freed by reference
counting when it returns.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .cuts import _compile_network, in_class, min_vertex_cut
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


@dataclass(frozen=True, slots=True)
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


# A pair's witness: a bit mask of the edges its flow uses, and the flow's value.
_Witness = Tuple[int, int]


class _CompiledPairs:
    """Every pair's vertex-split net, on one compile of the network.

    Deletion sets are bit masks: bit p stands for the edge at position p in
    id order.  ``profile`` decides a deletion set pair by pair.  A pair's
    *witness* is a flow found on some deletion set A by a max flow from
    zero with ``limit = demand + 1``: the mask of the edges that carry it,
    and its value.  On a superset D of A whose deleted edges the witness
    avoids, the same flow is still a flow, so the value decides D exactly.
    ``demand + 1`` shows that D's cut is above the demand.  ``demand``
    means cut(A) = demand; deleting edges never raises a cut, so cut(D) <=
    demand, and the witness gives cut(D) >= demand.  Only a pair whose
    witness uses a deleted edge runs a fresh max flow, from zero flow, with
    the deleted edges' arcs at zero capacity.  A flow's edges are read from
    the reverse arcs, whose capacity is the flow on their forward arc and
    stays 0 on a deleted arc.  Every arc id a pair uses, deleted and
    witness arcs alike, comes from that pair's own net, so any
    ``_PairNet`` serves.
    """

    def __init__(self, g: Network, edge_ids: Sequence[int]):
        split = _compile_network(g)
        bit_of = {eid: 1 << p for p, eid in enumerate(edge_ids)}
        self._pairs = []
        for i, pair in enumerate(g.pairs):
            built = split.pair_net(i)
            arcs_of_position = [built.arcs_of_edge[eid] for eid in edge_ids]
            flow_arcs = [
                (arc ^ 1, bit_of[eid]) for eid, arcs in built.arcs_of_edge.items() for arc in arcs
            ]
            self._pairs.append(
                (built.net, built.s, built.t, pair.demand, arcs_of_position, flow_arcs)
            )

    def profile(
        self,
        deleted: int,
        inherited: Optional[Sequence[_Witness]] = None,
    ) -> Tuple[bool, bool, Sequence[_Witness]]:
        """(feasible: all cuts >= demand, exact: all cuts == demand, the
        pairs' witnesses) once the edges of the ``deleted`` mask are gone.

        ``inherited`` holds the witnesses of a deletion set that ``deleted``
        contains.  An infeasible set stops at its first short pair and
        returns no witnesses.
        """
        exact = True
        witnesses: List[_Witness] = []
        for k, (net, s, t, demand, arcs_of_position, flow_arcs) in enumerate(self._pairs):
            if inherited is not None and not inherited[k][0] & deleted:
                witness = inherited[k]
            else:
                cap = net.cap
                cap[:] = net.base_cap
                rest = deleted
                while rest:
                    low = rest & -rest
                    for arc in arcs_of_position[low.bit_length() - 1]:
                        cap[arc] = 0
                    rest ^= low
                # One unit past the demand tells "above" from "exact".
                value = net.max_flow(s, t, limit=demand + 1)
                if value < demand:
                    return False, False, ()
                used = 0
                for rev, bit in flow_arcs:
                    if cap[rev]:
                        used |= bit
                witness = (used, value)
            if witness[1] != demand:
                exact = False
            witnesses.append(witness)
        return True, exact, witnesses


class _Search:
    """The search's state: the compiled nets, the free edges, the interior
    degrees and the exact sets found so far.

    ``free`` lists each free edge's bit and interior ends, ``singles`` the
    decision of each free edge's single deletion, and ``degree`` the
    interior degrees once the deletion set being extended is gone.
    ``exact_hubs`` maps every exact deletion set found to its hub count.
    """

    def __init__(
        self,
        nets: _CompiledPairs,
        free: Sequence[Tuple[int, List[int]]],
        singles: Sequence[Tuple[bool, bool, Sequence[_Witness]]],
        degree: Dict[int, int],
    ):
        self.nets = nets
        self.free = free
        self.singles = singles
        self.degree = degree
        self.exact_hubs: Dict[int, int] = {}

    def extend(
        self, deleted: int, from_index: int, witnesses: Sequence[_Witness], hubs: int
    ) -> None:
        """Visit every feasible deletion set that adds to ``deleted`` free
        edges from ``from_index`` on, and record the exact ones."""
        profile, free, degree, exact_hubs = (
            self.nets.profile, self.free, self.degree, self.exact_hubs
        )
        for i in range(from_index, len(free)):
            bit, ends = free[i]
            child = deleted | bit
            # The children of the root were decided by the checks above.
            feasible, exact, child_witnesses = (
                profile(child, witnesses) if deleted else self.singles[i]
            )
            if not feasible:
                continue
            child_hubs = hubs
            for v in ends:
                degree[v] -= 1
                if degree[v] == 2:
                    child_hubs -= 1
            if exact:
                exact_hubs[child] = child_hubs
            self.extend(child, i + 1, child_witnesses, child_hubs)
            for v in ends:
                degree[v] += 1

    def maximal_exact_sets(self) -> List[int]:
        """The exact deletion sets that no free edge extends to another
        exact set: those whose subgraphs are minimal."""
        exact_hubs = self.exact_hubs
        free_bits = [bit for bit, _ in self.free]
        out = []
        for s in exact_hubs:
            for bit in free_bits:
                if not s & bit and (s | bit) in exact_hubs:
                    break
            else:
                out.append(s)
        return out


def _degree_settled(g: Network) -> Dict[int, int]:
    """Edge id -> a pair whose cut falls below its demand once that edge
    alone is deleted, as Menger's bound shows: the edge meets one of the
    pair's terminals, and that terminal has exactly ``demand`` edges."""
    settled: Dict[int, int] = {}
    for i, pair in enumerate(g.pairs):
        for t in (pair.source, pair.sink):
            if g.degree(t) == pair.demand:
                for eid in g.incident[t]:
                    settled[eid] = i
    return settled


_DELETED_DIGIT = str.maketrans("0", "2")


def _survivor_key(survivors: int) -> str:
    """A string that orders survivor masks as their sorted position lists
    order: character p is "1" when position p survives and "2" when it is
    deleted, up to the last survivor, so a list that is a prefix of
    another sorts first.  No survivors give ""."""
    return format(survivors, "b")[::-1].translate(_DELETED_DIGIT) if survivors else ""


def _search(g: Network, max_free: int) -> Tuple[List[int], _Search]:
    """``g``'s edge ids in order, and the finished search over its deletion
    sets; raises as ``min_hub_subgraph`` does."""
    edge_ids = sorted(g.edge_by_id)
    nets = _CompiledPairs(g, edge_ids)
    root_feasible, root_exact, root_witnesses = nets.profile(0)
    if not root_feasible:
        raise InvariantError(
            "no-in-class-subgraph", "a cut is already below its demand"
        )
    settled = _degree_settled(g)
    singles = [
        (False, False, ()) if eid in settled else nets.profile(1 << p, root_witnesses)
        for p, eid in enumerate(edge_ids)
    ]
    free = [p for p, (feasible, _, _) in enumerate(singles) if feasible]
    if len(free) > max_free:
        raise InvariantError(
            "size-guard-exceeded",
            f"{len(free)} deletable edges (search limit {max_free})",
        )

    degree = {v: g.degree(v) for v in g.vertices if not g.is_terminal(v)}
    free_ends = [
        (1 << p, [end for end in g.edge_by_id[edge_ids[p]].ends(True) if end in degree])
        for p in free
    ]
    search = _Search(nets, free_ends, [singles[p] for p in free], degree)
    root_hubs = hub_count(g)
    if root_exact:
        search.exact_hubs[0] = root_hubs
    search.extend(0, 0, root_witnesses, root_hubs)
    if not search.exact_hubs:
        raise InvariantError(
            "no-in-class-subgraph", "no deletion set reaches exact cuts"
        )
    return edge_ids, search


def min_hub_subgraph(g: Network, max_free: int = MAX_FREE_EDGES) -> OracleReport:
    """Exhaustive search for a spanning subgraph in class with fewest hubs.

    Edges whose single removal already destroys feasibility can never be
    deleted; the search branches only on the rest, pruning any deletion set
    that drops some pair's cut below its demand.  A single deletion at a
    terminal with exactly its pair's demand of edges is decided by that
    count alone; every other one is decided by the pairs' flows.  Deletion
    sets are bit masks over the edges in id order.  Each pair's net is
    compiled once, and each deletion set inherits its parent's witnesses
    (see ``_CompiledPairs``); the single deletions inherit the input's.
    The hub count follows the deletions down the search.  Each maximal
    exact deletion set leaves one minimal subgraph.  Only the returned
    subgraph is built as a ``Network``, and one ``in_class`` call checks
    its cuts once more.
    """
    start = time.perf_counter()
    edge_ids, search = _search(g, max_free)
    exact_hubs = search.exact_hubs
    # Fewest hubs first, then the smallest sorted list of surviving edges.
    min_hubs = min(exact_hubs.values())
    full = (1 << len(edge_ids)) - 1
    best = min(
        (s for s, hubs in exact_hubs.items() if hubs == min_hubs),
        key=lambda s: _survivor_key(full ^ s),
    )
    best_graph = delete_edges(g, [eid for p, eid in enumerate(edge_ids) if best >> p & 1])
    if not in_class(best_graph):
        found = [min_vertex_cut(best_graph, i).value for i in range(len(best_graph.pairs))]
        raise InvariantError(
            "oracle-cut-mismatch",
            f"cuts {found} differ from demands {[p.demand for p in best_graph.pairs]}",
        )
    return OracleReport(
        min_hub_subgraph=best_graph,
        min_hubs=hub_count(best_graph),
        num_minimal_subgraphs=len(search.maximal_exact_sets()),
        elapsed=time.perf_counter() - start,
    )
