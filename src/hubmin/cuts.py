"""Minimum vertex cuts, vertex-disjoint path systems, and class membership.

The cut between a pair is taken over interior vertices: every vertex other
than the pair's own terminals is split into an in/out half joined by a
unit-capacity arc, edges get effectively unbounded capacity, and the max flow
equals the min cut.  A direct source->sink edge of the queried pair has no
interior vertex to cut, so it counts 1 toward the cut value (as if it were
subdivided); ``CutResult.separator`` holds interior vertices only, hence
``value == len(separator) + number of direct pair edges``.

``_compile_network`` splits every vertex of a network once.  A source only
sends and a sink only receives, so that one topology serves every pair:
each pair's net (``_SplitNetwork.pair_net``) owns only its capacities, and
every flow here runs on such a net.  ``_exact_flows`` decides membership
and leaves a max flow in each net; ``_DeletionQueries`` keeps those nets
and answers "is the network still in class without edge e?" from the
strongly connected components of each flow's residual graph, labelled only
from the arcs the query asks about, instead of rebuilding the nets; an edge
it keeps is deleted by moving each flow off it.  The compile lists each
edge's arcs and each edge arc's edge id; flow decomposition, the only
reader of an arc's step, works it out from those lists (``_step``).

One module-level slot keeps the compile of the network queried last
(``_split``), keyed by identity: it holds the network itself, so no other
network can match it.  The slot is per thread, so threads share no flow.
Every query here and in ``minimality`` but the oracle's search starts
from the slot, so a pipeline that asks several questions of one network
compiles it once.  For each pair the split also keeps the net that
carries the flow stopped at the pair's demand, once a caller has run it
(``_SplitNetwork.demand_flow``).  A caller that only decomposes that flow
reads the kept net and leaves it kept.  The two callers that go on to
change the flow, ``min_vertex_cut`` and ``_exact_flows``, pop the net:
the split forgets it, so no net is shared with a caller that changes it
and none is copied.  A caller that finds no kept net builds its own, so
a network queried once does no extra work.  Reusing a kept
flow changes no answer: ``FlowNet.max_flow`` pushes Edmonds-Karp's paths
unit for unit, each the first shortest residual path from the flow
before it, so a flow stopped at the demand and then continued is the
flow of one run from zero.

Menger's bound at a terminal: a pair's cut is at most the number of edges
at its source, and likewise at its sink.  Every unit of a pair's flow
leaves out(source) along an edge at the source and enters in(sink) along
an edge at the sink, and each such edge arc carries at most one unit (see
``_SplitNetwork.pair_net``).  Call a terminal *tight* when it has exactly
``demand`` edges (``_tight_terminals``).  At a tight terminal, those d
edges, each carrying at most one unit, carry a flow of value d only when
every one of them carries a unit.  So a flow of value ``demand`` already
proves the cut exact there, and no edge at a tight terminal can be deleted
without leaving the class.  ``is_reroutable`` does not use the bound.
The oracle settles single deletions at tight terminals by it, from its own
count of terminal edges (``oracle._degree_settled``); its exactness checks
and its search over larger deletion sets run max flows instead, so they
stay independent cross-checks of the bound.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ._flownet import INF, FlowNet, strongly_connected_components
from .graph_core import InvariantError, Network, Pair, Path, PathSystem, make_path_system


@dataclass(frozen=True, slots=True)
class CutResult:
    """Cut value and one minimum separator of interior vertices."""

    value: int
    separator: frozenset


@dataclass
class _PairNet:
    """One pair's vertex-split flow network, with arc bookkeeping.

    ``s`` and ``t`` are the node ids of the pair's source and sink.  Every
    other vertex ``v`` is split into an in-node and an out-node joined by the
    unit arc ``vertex_arc[v]``; the map may also hold the pair's own
    terminals, whose arcs then have capacity 0.  The vertex arcs come first,
    and then the edge arcs, each with its reverse: ``edge_of`` lists the
    edge id of each of those arc pairs in arc order.  ``arcs_of_edge``
    lists each edge's arcs, forward first, so step ``(e, fwd)`` runs on
    ``arcs_of_edge[e][not fwd]``, and ``_step`` maps an edge arc back to
    its step.  Nets of one network share these lists and maps; only the
    capacities are the pair's own.
    """

    net: FlowNet
    s: int
    t: int
    vertex_arc: Dict[int, int]
    edge_of: List[int]
    arcs_of_edge: Dict[int, List[int]]


@dataclass
class _SplitNetwork:
    """Every vertex of ``g`` split into an in/out half (see ``_compile_network``).

    ``to``/``adj`` are the arc lists every pair's ``FlowNet`` shares;
    ``vertex_arc``, ``edge_of`` and ``arcs_of_edge`` are those of
    ``_PairNet``.  ``demand_nets`` maps a pair index to
    the net kept for it, carrying the flow stopped at the pair's demand,
    and the flow's value (see ``demand_flow``).
    """

    g: Network
    to: List[int]
    adj: List[List[int]]
    vertex_arc: Dict[int, int]
    edge_of: List[int]
    arcs_of_edge: Dict[int, List[int]]
    demand_nets: Dict[int, Tuple[_PairNet, int]] = field(default_factory=dict)

    def pair_net(self, pair_index: int) -> _PairNet:
        """The net of one pair: s = out(source), t = in(sink).

        Vertex arcs get capacity 1 and edge arcs effectively unbounded,
        except the pair's direct source->sink edges, which get 1 (see module
        docstring).  The pair's own terminals are not cut: their vertex arcs
        get capacity 0.  No other pair can reach this pair's direct edges or
        terminal halves.  Any other edge arc leaves an out-node fed only by
        a vertex arc or enters an in-node drained only by one, so it carries
        at most one unit in any flow.
        """
        g = self.g
        pair = g.pairs[pair_index]
        base_cap = [1, 0] * len(self.vertex_arc) + [INF, 0] * len(self.edge_of)
        source_arc, sink_arc = self.vertex_arc[pair.source], self.vertex_arc[pair.sink]
        base_cap[source_arc] = base_cap[sink_arc] = 0
        for eid in g.incident[pair.source]:
            if g.edge_by_id[eid].v == pair.sink:
                base_cap[self.arcs_of_edge[eid][0]] = 1
        return _PairNet(
            net=FlowNet(self.to, self.adj, base_cap),
            s=source_arc + 1,
            t=sink_arc,
            vertex_arc=self.vertex_arc,
            edge_of=self.edge_of,
            arcs_of_edge=self.arcs_of_edge,
        )

    def demand_flow(self, pair_index: int) -> Tuple[_PairNet, int]:
        """The pair's net carrying the flow stopped at its demand, and the
        flow's value: the kept net, or a new one run to the demand and kept.
        The caller must not change its flow (module docstring)."""
        kept = self.demand_nets.get(pair_index)
        if kept is None:
            built = self.pair_net(pair_index)
            demand = self.g.pairs[pair_index].demand
            value = built.net.max_flow(built.s, built.t, limit=demand)
            kept = self.demand_nets[pair_index] = (built, value)
        return kept


def _compile_network(g: Network) -> _SplitNetwork:
    """Split every vertex of ``g`` once, for the nets of all its pairs.

    The vertex at sorted position i has in-node 2i and out-node 2i + 1,
    joined by arc 2i.  Edge arcs follow in edge-id order, each running from
    its tail's out-node to its head's in-node: forward, then backward for an
    undirected edge.  This is the arc order of a net compiled for a single
    pair, so every node's adjacency keeps its relative order and searches
    visit nodes in the same order.
    """
    order = sorted(g.vertices)
    # A vertex's arc id equals its in-node id.
    in_node = {v: 2 * i for i, v in enumerate(order)}
    n = 2 * len(order)
    to = [a ^ 1 for a in range(n)]
    adj = [[a] for a in range(n)]
    edge_of: List[int] = []
    arcs_of_edge: Dict[int, List[int]] = {}
    arc = n
    for e in sorted(g.edges, key=lambda e: e.id):
        eid = e.id
        in_u = in_node[e.u]
        in_v = in_node[e.v]
        # Forward: out(u) -> in(v).
        to.append(in_v)
        to.append(in_u + 1)
        adj[in_u + 1].append(arc)
        adj[in_v].append(arc + 1)
        edge_of.append(eid)
        if e.directed:
            arcs_of_edge[eid] = [arc]
            arc += 2
        else:
            # Backward: out(v) -> in(u).
            to.append(in_u)
            to.append(in_v + 1)
            adj[in_v + 1].append(arc + 2)
            adj[in_u].append(arc + 3)
            edge_of.append(eid)
            arcs_of_edge[eid] = [arc, arc + 2]
            arc += 4
    return _SplitNetwork(g, to, adj, in_node, edge_of, arcs_of_edge)


# ``_slot.split``: this thread's split of the network queried last (module
# docstring).
_slot = threading.local()


def _split(g: Network) -> _SplitNetwork:
    """The slot's split of ``g``; on a miss, ``g`` is compiled into the slot."""
    split = getattr(_slot, "split", None)
    if split is None or split.g is not g:
        # The old split goes first, so two are never held at once.
        _slot.split = None
        split = _slot.split = _compile_network(g)
    return split


def _build_pair_net(g: Network, pair_index: int) -> _PairNet:
    """A net with no flow for one pair of ``g``, from the slot's split (see
    ``_SplitNetwork.pair_net``)."""
    return _split(g).pair_net(pair_index)


def min_vertex_cut(g: Network, pair_index: int) -> CutResult:
    """Exact minimum interior-vertex cut between the pair's terminals.

    The flow runs on from a kept demand flow, which it takes over (module
    docstring), or from zero in a net of its own.
    """
    kept = _split(g).demand_nets.pop(pair_index, None)
    built, value = kept if kept is not None else (_build_pair_net(g, pair_index), 0)
    net = built.net
    value += net.max_flow(built.s, built.t)
    reachable = net.residual_reachable(built.s)
    # The pair's own terminals drop out: nothing reaches in(source), and t
    # is unreachable once the flow is maximum.
    separator = frozenset(
        v
        for v, arc in built.vertex_arc.items()
        if reachable[net.to[arc ^ 1]] and not reachable[net.to[arc]]
    )
    return CutResult(value=value, separator=separator)


def vertex_disjoint_paths(g: Network, pair_index: int, k: int) -> Optional[PathSystem]:
    """k pairwise vertex-disjoint source->sink paths, or None if fewer exist.

    The integral flow is decomposed deterministically, lowest arc id first.
    At ``k == demand`` it is the pair's kept demand flow (module docstring).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == g.pairs[pair_index].demand:
        built, value = _split(g).demand_flow(pair_index)
    else:
        built = _build_pair_net(g, pair_index)
        value = built.net.max_flow(built.s, built.t, limit=k)
    if value < k:
        return None
    return _decompose(g, pair_index, built, k)


def _step(built: _PairNet, arc: int) -> Tuple[int, bool]:
    """The step ``(edge_id, forward)`` that the edge arc ``arc`` runs: the
    edge of its arc pair, forward exactly when ``arc`` is the edge's first
    arc."""
    eid = built.edge_of[(arc >> 1) - len(built.vertex_arc)]
    return eid, arc == built.arcs_of_edge[eid][0]


def _decompose(g: Network, pair_index: int, built: _PairNet, k: int) -> PathSystem:
    """The k paths of the flow of value k that ``built`` carries."""
    net = built.net
    # Arcs below this id are vertex arcs and their reverses.
    first_edge_arc = 2 * len(built.vertex_arc)
    # The flow left to walk, over all arcs: reverse arcs read <= 0.  Units on
    # both arcs of an undirected edge u-v need no netting: the edge touches
    # no terminal, so u's and v's vertex arcs carry those units, and the four
    # arcs close a unit cycle that no other flow enters.  The walk from s
    # follows flow only, so it never reaches that cycle.
    remaining = [b - c for b, c in zip(net.base_cap, net.cap)]

    paths: List[Path] = []
    for _ in range(k):
        steps: List[Tuple[int, bool]] = []
        node = built.s
        while node != built.t:
            for arc in net.adj[node]:
                if remaining[arc] > 0:
                    remaining[arc] -= 1
                    if arc >= first_edge_arc:
                        steps.append(_step(built, arc))
                    node = net.to[arc]
                    break
            else:
                raise AssertionError("flow decomposition ran out of arcs")
        paths.append(Path(steps=tuple(steps)))
    return make_path_system(g, pair_index, paths)


def _full_systems(g: Network) -> List[Optional[PathSystem]]:
    """Every pair's full system, ``vertex_disjoint_paths(g, i, demand)``, or
    None when the cut is below the demand, from the pairs' kept demand
    flows.  Raises nothing of its own; callers word their own errors."""
    return [vertex_disjoint_paths(g, i, pair.demand) for i, pair in enumerate(g.pairs)]


def _tight_terminals(g: Network, pair: Pair) -> List[int]:
    """The pair's terminals that have exactly ``demand`` edges."""
    return [t for t in (pair.source, pair.sink) if len(g.incident[t]) == pair.demand]


def _exact_flows(split: _SplitNetwork) -> Optional[List[_PairNet]]:
    """Each pair's net, in pair order, carrying a max flow of value
    ``demand``; None at the first pair whose cut differs from its demand.

    A flow stops one unit past the demand, or at the demand when the pair
    has a tight terminal: its d edges, each carrying at most one unit,
    bound the cut by d, so a flow of value d proves the cut exact (module
    docstring).  Both limits run the same first d augmentations, so a kept
    demand flow, which the nets are taken over from, needs at most one more
    unit; a kept flow below the demand is already maximum.
    """
    g = split.g
    nets = []
    for i, pair in enumerate(g.pairs):
        limit = pair.demand if _tight_terminals(g, pair) else pair.demand + 1
        kept = split.demand_nets.pop(i, None)
        if kept is None:
            built = split.pair_net(i)
            value = built.net.max_flow(built.s, built.t, limit=limit)
        else:
            built, value = kept
            if value == pair.demand < limit:
                value += built.net.max_flow(built.s, built.t, limit=1)
        if value != pair.demand:
            return None
        nets.append(built)
    return nets


def in_class(g: Network) -> bool:
    """True iff every pair's minimum vertex cut equals its demand exactly."""
    return _exact_flows(_split(g)) is not None


class _DeletionQueries:
    """Answers "does ``g`` stay in class without edge e?" from warm max flows.

    The network's split comes from the slot, and each pair's net carries
    the max flow of value ``demand`` left by ``_exact_flows`` (a network
    out of class raises ``not-in-class``).  An edge arc carries
    at most one unit.  Deleting edges never raises a cut, so the network
    stays in class without e exactly when every pair still reaches its
    demand avoiding e.

    ``deletable`` decides every query, many at once, with no search, and
    answers no at once for an edge of ``_needed``, the edges at tight
    terminals read from ``g`` (module docstring).  ``delete`` deletes an
    edge it has kept, so none of ``_needed`` is ever deleted, their
    terminals stay tight and the set stays valid for the object's life.
    """

    def __init__(self, g: Network):
        self.g = g
        nets = _exact_flows(_split(g))
        if nets is None:
            raise InvariantError("not-in-class")
        self._nets: List[_PairNet] = nets
        self._needed = frozenset(
            eid for pair in g.pairs for t in _tight_terminals(g, pair) for eid in g.incident[t]
        )

    def deletable(self, eids: Iterable[int]) -> List[int]:
        """The edges of ``eids``, in order, whose deletion on its own keeps
        ``g`` (minus every edge deleted before) in class.  Changes no flow.

        The edges at tight terminals go first, before any pair is labelled:
        a tight terminal's d edges, each carrying at most one unit, all
        carry a unit in every flow of value d, so each is needed (module
        docstring).

        Then each pair makes one pass over the edges still left, reading
        each edge's one or two arcs in place.  An edge survives the pass
        when the pair's flow f avoids it, or when both directions of an
        undirected edge carry a unit: f then runs the unit cycle through
        both endpoints, and cancelling it leaves a flow of value ``demand``
        that avoids the edge.  Otherwise exactly one arc a of the edge
        carries a unit, and the pair's strongly connected components
        decide.  They are those of the *unit residual view* of f
        (``strongly_connected_components``): reverse arcs with remaining
        capacity, and forward arcs that carry no flow.  The pass first
        collects each such edge's carrying arc a, then labels the net once,
        rooted at the tails of those arcs: only the components of the
        nodes they reach are read, and a head they do not reach shares no
        component with its tail.  So a pair labels its net at most once per
        call, only when some edge needs it, and no pair is asked once no
        edge is left.

        Different labels answer no.  If a flow f' of value ``demand``
        avoids e, f' - f is a circulation with -1 on a.  It uses no forward
        arc that already carries a unit: every edge arc carries at most one
        unit in any feasible flow, f' included.  So it runs on the view's
        arcs, even where f carries an opposed unit on some other edge, and
        one of its cycles runs through the reverse of a: a's tail and head
        share a component.

        Equal labels answer yes.  They give a simple path P in the view from
        a's tail to its head.  P avoids a, which carries flow, and a's
        reverse, which ends where P starts.  If e is undirected, with a =
        out(u) -> in(v), P may pass through e's other arc b = out(v) ->
        in(u), which carries nothing.  P then goes on from in(u).  But e
        touches no terminal, so u's vertex arc carries a's unit, and its
        reverse leads from out(u) to in(u) directly.  Replacing P's part up
        to in(u) with that arc gives a path that avoids e.  Pushing a unit
        along it and taking the unit off a yields a flow of value
        ``demand`` that avoids e.
        """
        needed = self._needed
        left = [eid for eid in eids if eid not in needed]
        for built in self._nets:
            if not left:
                break
            net = built.net
            cap, base_cap, to = net.cap, net.base_cap, net.to
            arcs_of_edge = built.arcs_of_edge
            # Per edge of ``left``: the one arc that carries a unit, or -1
            # when the edge survives the pass without labels; and the
            # carrying arcs' tails, the roots of the labelling.
            asked = []
            tails = []
            for eid in left:
                arcs = arcs_of_edge[eid]
                a = arcs[0]
                carries = cap[a] < base_cap[a]
                if len(arcs) == 2:
                    b = arcs[1]
                    if cap[b] < base_cap[b]:
                        # Only b carries, or both do and the edge survives.
                        a, carries = b, not carries
                if carries:
                    asked.append(a)
                    tails.append(to[a ^ 1])
                else:
                    asked.append(-1)
            if tails:
                # A head no tail reaches reads -1, which no tail's label is.
                labels = strongly_connected_components(net, tails)
                left = [
                    eid
                    for eid, a in zip(left, asked)
                    if a < 0 or labels[to[a ^ 1]] == labels[to[a]]
                ]
        return left

    def delete(self, eid: int) -> None:
        """Delete ``eid``, an edge ``deletable`` has just kept: move every
        pair's flow off it, then remove its arcs.

        A pair's flow needs no move when no arc of e carries a unit.  When
        both directions of an undirected e carry one, the unit cycle through
        both endpoints is cancelled.  Otherwise e's arcs are blocked, and
        one residual path from the carrying arc's tail to its head takes
        over its unit: ``deletable``'s equal labels promise that path.  If
        the search finds none, e was not deletable, and ``edge-not-deletable``
        is raised with the flows left part-moved.
        """
        for i, built in enumerate(self._nets):
            net = built.net
            cap, base_cap = net.cap, net.base_cap
            arcs = built.arcs_of_edge[eid]
            carrying = [arc for arc in arcs if cap[arc] < base_cap[arc]]
            if len(carrying) == 2:
                edge = self.g.edge_by_id[eid]
                for arc in (*arcs, built.vertex_arc[edge.u], built.vertex_arc[edge.v]):
                    net.push(arc ^ 1)
            elif carrying:
                for arc in arcs:
                    cap[arc] = cap[arc ^ 1] = 0
                a = carrying[0]
                path = net.residual_path(net.to[a ^ 1], net.to[a])
                if path is None:
                    raise InvariantError(
                        "edge-not-deletable", f"pair {i}'s flow cannot avoid edge {eid}"
                    )
                for arc in path:
                    net.push(arc)
            # No flow is left on e's arcs; zero capacity removes them.
            for arc in arcs:
                cap[arc] = base_cap[arc] = 0
