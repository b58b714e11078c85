"""Minimality predicates for two-pair networks and minimal-subgraph extraction.

Three independently implemented characterizations are provided for the
two-pair case: edge-deletion minimality, non-reroutability of both path
systems, and absence of consistent cycles.  They must agree on every two-pair
instance; ``theorem1_agreement`` evaluates all three and reports whether they
do.  The equivalence is known to fail for three or more pairs, so the
agreement report rejects such inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ._flownet import strongly_connected_components
from .cuts import _build_pair_net, _DeletionQueries
from .cuts import in_class  # noqa: F401  (still importable here; perfbench's tests look it up)
from .graph_core import (
    InvariantError,
    Network,
    PathSystem,
    delete_edges,
)


@dataclass(frozen=True)
class ConsistentCycle:
    """A directed cycle compatible with one system's natural orientation.

    Every step whose edge the tagged system uses follows that edge's natural
    direction; steps on other edges may go either way.  No terminal vertex
    appears on the cycle.
    """

    steps: Tuple[Tuple[int, bool], ...]
    system_tag: int


def _cycle_arcs(g: Network, system: PathSystem) -> List[Tuple[int, bool, int, int]]:
    """Directed arcs (edge_id, forward, tail, head) of the auxiliary digraph.

    Edges used by the tagged system contribute only their natural-direction
    arc; every other edge contributes every direction it can be walked.
    Terminal-incident arcs are dropped: no cycle can pass through a terminal.
    """
    terminals = g.terminal_set
    arcs = []
    for e in sorted(g.edges, key=lambda e: e.id):
        if e.u in terminals or e.v in terminals:
            continue
        if e.id in system.orientation:
            directions = [system.orientation[e.id]]
        elif e.directed:
            directions = [True]
        else:
            directions = [True, False]
        for forward in directions:
            tail, head = e.ends(forward)
            arcs.append((e.id, forward, tail, head))
    return arcs


def _simplify_closed_walk(
    g: Network, steps: List[Tuple[int, bool]]
) -> List[Tuple[int, bool]]:
    """Shrink a closed edge walk (no immediate edge reversal anywhere,
    including the wrap-around) to one with pairwise distinct vertices."""
    while True:
        seq = [g.edge_by_id[eid].ends(fwd)[0] for eid, fwd in steps]
        first_seen: Dict[int, int] = {}
        dup: Optional[Tuple[int, int]] = None
        for pos, v in enumerate(seq):
            if v in first_seen:
                dup = (first_seen[v], pos)
                break
            first_seen[v] = pos
        if dup is None:
            # Vertex-simple closed walks cannot reverse an edge at the wrap
            # either (that would repeat the shared endpoint), so we are done.
            return steps
        i, j = dup
        # The contiguous sub-walk between the two visits is closed and keeps
        # every interior junction; only its new wrap-around needs care.
        inner = steps[i:j]
        if inner[-1][0] != inner[0][0]:
            steps = inner
        else:
            # The wrap would reverse one edge: the sub-walk starts and ends
            # with that edge, so peel both copies off; the remainder is still
            # closed (both peeled steps border the same two vertices).
            steps = inner[1:-1]
            if not steps:
                raise AssertionError("closed-walk simplification emptied the walk")


def find_consistent_cycle(
    g: Network, systems: Sequence[PathSystem], tag: int
) -> Optional[ConsistentCycle]:
    """A cycle every step of which respects the tagged system's orientation.

    The search runs on the digraph of admissible directed steps; a cycle is a
    closed walk that never uses one edge in both directions back to back.
    """
    system = systems[tag]
    arcs = _cycle_arcs(g, system)
    # Nodes of the search are directed steps; consecutive steps must chain at
    # a vertex and may not reverse the same edge immediately.
    out_steps: Dict[int, List[int]] = {}
    for idx, (_, _, tail, _) in enumerate(arcs):
        out_steps.setdefault(tail, []).append(idx)

    WHITE, GRAY, BLACK = 0, 1, 2
    color = [WHITE] * len(arcs)

    for start in range(len(arcs)):
        if color[start] != WHITE:
            continue
        stack: List[Tuple[int, int]] = [(start, 0)]
        on_path: List[int] = [start]
        color[start] = GRAY
        while stack:
            node, child_pos = stack[-1]
            eid, fwd, tail, head = arcs[node]
            candidates = out_steps.get(head, ())
            advanced = False
            while child_pos < len(candidates):
                nxt = candidates[child_pos]
                child_pos += 1
                stack[-1] = (node, child_pos)
                if arcs[nxt][0] == eid:
                    continue  # immediate reversal of the same edge
                if color[nxt] == GRAY:
                    # Found a cycle among the gray path: slice it out.
                    at = on_path.index(nxt)
                    cycle_nodes = on_path[at:]
                    steps = [(arcs[n][0], arcs[n][1]) for n in cycle_nodes]
                    steps = _simplify_closed_walk(g, steps)
                    return ConsistentCycle(steps=tuple(steps), system_tag=tag)
                if color[nxt] == WHITE:
                    color[nxt] = GRAY
                    stack.append((nxt, 0))
                    on_path.append(nxt)
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                stack.pop()
                on_path.pop()
    return None


def is_reroutable(g: Network, systems: Sequence[PathSystem], pair_index: int) -> bool:
    """True iff a different set of demand-many vertex-disjoint paths exists.

    The given system is loaded as a unit flow on the vertex-split network
    (all arcs capacity 1).  A different system exists exactly when the
    residual graph has an augmenting source->sink path or a directed cycle
    through at least one cancellation arc; a cancellation arc lies on a cycle
    iff its endpoints share a strongly connected component.
    """
    system = systems[pair_index]
    pair = g.pairs[pair_index]
    built = _build_pair_net(g, pair_index, edge_cap=1)
    net = built.net

    used_vertices: Set[int] = set()
    for path in system.paths:
        for eid, fwd in path.steps:
            net.push(built.arc_of_step[(eid, fwd)], 1)
            edge = g.edge_by_id[eid]
            for v in edge.ends(fwd):
                if v not in (pair.source, pair.sink):
                    used_vertices.add(v)
    for v in used_vertices:
        net.push(built.vertex_arc[v], 1)

    # More flow available than the system carries: any augmentation yields
    # extra disjoint paths, hence a different selection.
    if net.residual_path(built.s, built.t) is not None:
        return True

    residual_adj = [[net.to[a] for a in arc_ids if net.cap[a] > 0] for arc_ids in net.adj]
    comp = strongly_connected_components(residual_adj)
    for arc in range(1, len(net.to), 2):  # odd ids are the reverse directions
        if net.cap[arc] > 0:  # forward arc carries flow: cancellation possible
            if comp[net.frm[arc]] == comp[net.to[arc]]:
                return True
    return False


def _queries_in_class(g: Network) -> _DeletionQueries:
    """Deletion queries on ``g``, which refuse an out-of-class network."""
    try:
        return _DeletionQueries(g)
    except InvariantError:
        raise InvariantError("not-in-class") from None


def is_minimal(g: Network) -> bool:
    """True iff no single edge can be deleted without leaving the class."""
    queries = _queries_in_class(g)
    return not any(
        queries.stays_in_class(e.id) for e in sorted(g.edges, key=lambda e: e.id)
    )


def minimalize(g: Network, seed: Optional[int] = None) -> Network:
    """Delete deletable edges until none remains; result is minimal.

    The sweep runs in ascending edge-id order and restarts after every
    deletion; a seed permutes the sweep to sample other minimal subgraphs.
    An edge found undeletable is never queried again: deleting edges never
    raises a cut, so it stays undeletable, and each sweep still deletes the
    first deletable edge of the same (possibly shuffled) order.  Seeded and
    unseeded results are therefore those of the plain restart loop.
    """
    queries = _queries_in_class(g)
    rng = random.Random(seed) if seed is not None else None
    surviving = sorted(e.id for e in g.edges)
    deleted: List[int] = []
    undeletable: Set[int] = set()
    while True:
        order = list(surviving)
        if rng is not None:
            rng.shuffle(order)
        for eid in order:
            if eid in undeletable:
                continue
            if queries.stays_in_class(eid, delete=True):
                surviving.remove(eid)
                deleted.append(eid)
                break
            undeletable.add(eid)
        else:
            return delete_edges(g, deleted)


@dataclass(frozen=True)
class Theorem1Report:
    """The three two-pair minimality characterizations, plus agreement."""

    minimal: bool
    non_reroutable: bool
    no_consistent_cycle: bool

    @property
    def agree(self) -> bool:
        return self.minimal == self.non_reroutable == self.no_consistent_cycle


def theorem1_agreement(g: Network, systems: Sequence[PathSystem]) -> Theorem1Report:
    """Evaluate all three characterizations independently on a two-pair graph.

    The three predicates agree whenever every edge of ``g`` lies on a path of
    one of the given systems; an edge used by neither system is deletable
    without making anything reroutable, so agreement is not guaranteed then.
    """
    if len(g.pairs) != 2:
        raise InvariantError(
            "two-pairs-required",
            f"the three-way equivalence holds only for two pairs, got {len(g.pairs)}",
        )
    minimal = is_minimal(g)
    non_reroutable = not (
        is_reroutable(g, systems, 0) or is_reroutable(g, systems, 1)
    )
    no_cycle = (
        find_consistent_cycle(g, systems, 0) is None
        and find_consistent_cycle(g, systems, 1) is None
    )
    return Theorem1Report(
        minimal=minimal,
        non_reroutable=non_reroutable,
        no_consistent_cycle=no_cycle,
    )


def deletable_private_edges(
    g: Network, systems: Sequence[PathSystem], pair_index: int
) -> List[int]:
    """Private edges of the system whose deletion keeps the graph in class.

    When a system is reroutable, at least one such edge exists (rerouting
    frees an edge only that system was using).  ``g`` must be in class.
    """
    other = systems[1 - pair_index] if len(systems) == 2 else None
    own = systems[pair_index].edge_ids()
    shared = own & other.edge_ids() if other is not None else frozenset()
    queries = _DeletionQueries(g)
    return [eid for eid in sorted(own - shared) if queries.stays_in_class(eid)]
