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
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ._flownet import strongly_connected_components
from .cuts import _DeletionQueries, _split
from .cuts import in_class  # noqa: F401  (still importable here; perfbench's tests look it up)
from .graph_core import (
    InvariantError,
    Network,
    PathSystem,
    delete_edges,
)

# One directed step of a walk: (edge id, forward).
Step = Tuple[int, bool]


@dataclass(frozen=True, slots=True)
class ConsistentCycle:
    """A directed cycle compatible with one system's natural orientation.

    Every step whose edge the tagged system uses follows that edge's natural
    direction; steps on other edges may go either way.  No terminal vertex
    appears on the cycle.  At a vertex that the system's paths pass through,
    at least one of the two steps meeting there is on a system edge: in the
    vertex-split residual graph of the system's flow, the in-node of a used
    vertex leads only back along the system's own flow arc, so a rerouting
    cycle that enters such a vertex by a foreign edge leaves it along the
    system's path.
    """

    steps: Tuple[Step, ...]
    system_tag: int


def _cycle_arcs(g: Network, system: PathSystem) -> List[Tuple[int, bool, int, int]]:
    """Directed arcs (edge_id, forward, tail, head) of the auxiliary digraph.

    Edges used by the tagged system contribute only their natural-direction
    arc; every other edge contributes both directions, since the edges left
    are interior and ``Network`` rejects a directed interior edge.
    Terminal-incident arcs are dropped: no cycle can pass through a terminal.
    """
    terminals = g.terminal_set
    arcs = []
    for e in sorted(g.edges, key=lambda e: e.id):
        if e.u in terminals or e.v in terminals:
            continue
        if e.id in system.orientation:
            directions = [system.orientation[e.id]]
        else:
            directions = [True, False]
        for forward in directions:
            tail, head = e.ends(forward)
            arcs.append((e.id, forward, tail, head))
    return arcs


def _simplify_closed_walk(
    g: Network, steps: List[Step], joins: Callable[[Step, Step], bool]
) -> List[Step]:
    """Shrink a closed edge walk to one with pairwise distinct vertices.

    Every junction of the walk, the wrap-around included, must pass
    ``joins`` (see ``find_consistent_cycle``), and every junction of the
    result does too.
    """
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
            return steps
        i, j = dup
        # The walk splits at the repeated vertex v into two closed walks,
        # each keeping its own junctions and gaining one at v.  The inner
        # one has distinct vertices (j is the first repeat), so its new
        # junction cannot reverse an edge: the inner walk would then be just
        # that edge's two steps, joined at the far end by a junction of the
        # walk.
        inner = steps[i:j]
        if joins(inner[-1], inner[0]):
            return inner
        # The inner junction joins two steps off the system at a used v, so
        # the walk's junctions at v flank them with system steps, and the
        # outer walk's new junction joins those two.
        steps = steps[j:] + steps[:i]


def find_consistent_cycle(
    g: Network, systems: Sequence[PathSystem], tag: int
) -> Optional[ConsistentCycle]:
    """A cycle every step of which respects the tagged system's orientation.

    The search runs on the digraph of admissible directed steps; a cycle is a
    closed walk that never uses one edge in both directions back to back,
    and never joins two steps off the system at a vertex the system uses.
    """
    system = systems[tag]
    arcs = _cycle_arcs(g, system)
    orientation = system.orientation
    used = {v for eid in orientation for v in g.edge_by_id[eid].ends(True)}

    def joins(a: Step, b: Step) -> bool:
        """Whether step b may follow step a at the vertex between them."""
        if a[0] == b[0]:
            return False
        if a[0] in orientation or b[0] in orientation:
            return True
        return g.edge_by_id[b[0]].ends(b[1])[0] not in used

    # Nodes of the search are directed steps; consecutive steps must chain at
    # a vertex and pass ``joins``.
    step_of = [(eid, fwd) for eid, fwd, _, _ in arcs]
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
            _, _, _, head = arcs[node]
            step = step_of[node]
            candidates = out_steps.get(head, ())
            advanced = False
            while child_pos < len(candidates):
                nxt = candidates[child_pos]
                child_pos += 1
                stack[-1] = (node, child_pos)
                if not joins(step, step_of[nxt]):
                    continue
                if color[nxt] == GRAY:
                    # Found a cycle among the gray path: slice it out.
                    at = on_path.index(nxt)
                    cycle_nodes = on_path[at:]
                    steps = [step_of[n] for n in cycle_nodes]
                    steps = _simplify_closed_walk(g, steps, joins)
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

    The given system is loaded as a flow on the pair's vertex-split net, a
    net of its own from the slot's compile of ``g``.  A different system
    exists exactly when the residual graph has an augmenting source->sink
    path or a directed cycle through at least one cancellation arc; a
    cancellation arc lies on a cycle iff its endpoints share a strongly
    connected component.  Each edge arc carries at most one unit in any
    flow, so the flow's unit residual view has those cycles, and the
    components alone decide, with no source->sink search.

    Only the system's edge arcs are tested for a shared component, so the
    labelling runs only from their tails (see
    ``strongly_connected_components``); its used vertices' arcs are pushed
    to load the flow, but their tests never decide.  A cycle through the
    reverse of a used vertex v's arc enters in(v), where the vertex arc is
    full and the only other residual arc is the reverse of the system's
    edge arc into v.  So that edge arc lies on the cycle too, and its ends
    share a component.

    A simple augmenting path P needs no search of its own.  P takes no
    forward edge arc a that carries a unit: if a's head is not t, a's
    reverse is the only residual arc out of it, and if it is t, a's
    reverse is the only residual arc into a's tail.  So P lies in the
    unit residual view.  P followed by one of the flow's paths walked
    backward (the demand is at least 1) is a closed walk in the view, so
    every edge arc of that path has both ends in one component, and the
    test below answers yes.
    """
    system = systems[pair_index]
    pair = g.pairs[pair_index]
    built = _split(g).pair_net(pair_index)
    net = built.net

    # The edge arcs that carry the system's flow, then the vertex arcs of
    # the vertices it uses, each pushed once.
    edge_flow = [built.arcs_of_edge[eid][not fwd] for eid, fwd in system.orientation.items()]
    used_vertices = {v for eid in system.orientation for v in g.edge_by_id[eid].ends(True)}
    for arc in edge_flow:
        net.push(arc)
    for v in used_vertices - {pair.source, pair.sink}:
        net.push(built.vertex_arc[v])

    # Cancelling a carrying arc's unit is possible exactly when its ends
    # share a component; only the components the arcs' tails reach are read.
    to = net.to
    comp = strongly_connected_components(net, [to[arc ^ 1] for arc in edge_flow])
    return any(comp[to[arc ^ 1]] == comp[to[arc]] for arc in edge_flow)


def is_minimal(g: Network) -> bool:
    """True iff no single edge can be deleted without leaving the class."""
    return not _DeletionQueries(g).deletable(g.edge_by_id)


def minimalize(g: Network, seed: Optional[int] = None) -> Network:
    """Delete deletable edges until none remains; result is minimal.

    One pass in ascending edge-id order, or in one seeded shuffle of it to
    sample other minimal subgraphs, deletes every edge that can go after
    the deletions before it.  Deleting edges never raises a cut, so an edge
    found undeletable stays undeletable.  So the pass deletes the first
    edge a bulk query keeps and asks again only about the edges after it,
    and the result is minimal.  Unseeded, the pass deletes what the plain
    restart loop does.
    """
    queries = _DeletionQueries(g)
    order = sorted(g.edge_by_id)
    if seed is not None:
        random.Random(seed).shuffle(order)
    deleted = []
    left = queries.deletable(order)
    while left:
        queries.delete(left[0])
        deleted.append(left[0])
        left = queries.deletable(left[1:])
    return delete_edges(g, deleted)


@dataclass(frozen=True, slots=True)
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
    # is_minimal and both is_reroutable checks share the slot's compile of
    # g.  The deletion queries take over the kept demand flows; each
    # is_reroutable check loads the given system into a net of its own.
    minimal = is_minimal(g)
    non_reroutable = not (is_reroutable(g, systems, 0) or is_reroutable(g, systems, 1))
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
    frees an edge only that system was using).  ``g`` must be in class;
    otherwise ``not-in-class`` is raised.
    """
    other = systems[1 - pair_index] if len(systems) == 2 else None
    own = systems[pair_index].edge_ids()
    shared = own & other.edge_ids() if other is not None else frozenset()
    queries = _DeletionQueries(g)
    return queries.deletable(sorted(own - shared))
