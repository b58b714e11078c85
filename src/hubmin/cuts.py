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
strongly connected components of each flow's residual graph, or by
rerouting that flow around e, instead of rebuilding the nets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ._flownet import INF, FlowNet, strongly_connected_components
from .graph_core import InvariantError, Network, Path, PathSystem, make_path_system


@dataclass(frozen=True)
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
    terminals, whose arcs then have capacity 0.  ``edge_arcs`` maps each
    edge arc to its step ``(edge_id, forward)``, and ``arcs_of_edge`` lists
    each edge's arcs, forward first, so step ``(e, fwd)`` runs on
    ``arcs_of_edge[e][not fwd]``.  Nets of one network share these maps and
    their arc lists; only the capacities are the pair's own.
    """

    net: FlowNet
    s: int
    t: int
    vertex_arc: Dict[int, int]
    edge_arcs: Dict[int, Tuple[int, bool]]
    arcs_of_edge: Dict[int, List[int]]


@dataclass
class _SplitNetwork:
    """Every vertex of ``g`` split into an in/out half (see ``_compile_network``).

    ``to``/``adj`` are the arc lists every pair's ``FlowNet`` shares; the
    maps are those of ``_PairNet``.
    """

    g: Network
    to: List[int]
    adj: List[List[int]]
    vertex_arc: Dict[int, int]
    edge_arcs: Dict[int, Tuple[int, bool]]
    arcs_of_edge: Dict[int, List[int]]

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
        base_cap = [1, 0] * len(self.vertex_arc) + [INF, 0] * len(self.edge_arcs)
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
            edge_arcs=self.edge_arcs,
            arcs_of_edge=self.arcs_of_edge,
        )


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
    edge_arcs: Dict[int, Tuple[int, bool]] = {}
    arcs_of_edge: Dict[int, List[int]] = {}
    for e in sorted(g.edges, key=lambda e: e.id):
        arcs = arcs_of_edge[e.id] = []
        for forward in (True,) if e.directed else (True, False):
            tail, head = e.ends(forward)
            out_tail, in_head = in_node[tail] + 1, in_node[head]
            arc = len(to)
            to += (in_head, out_tail)
            adj[out_tail].append(arc)
            adj[in_head].append(arc + 1)
            edge_arcs[arc] = (e.id, forward)
            arcs.append(arc)
    return _SplitNetwork(g, to, adj, in_node, edge_arcs, arcs_of_edge)


def _build_pair_net(g: Network, pair_index: int) -> _PairNet:
    """Compile ``g`` for a single pair (see ``_SplitNetwork.pair_net``)."""
    return _compile_network(g).pair_net(pair_index)


def min_vertex_cut(g: Network, pair_index: int) -> CutResult:
    """Exact minimum interior-vertex cut between the pair's terminals."""
    built = _build_pair_net(g, pair_index)
    net = built.net
    value = net.max_flow(built.s, built.t)
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
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    built = _build_pair_net(g, pair_index)
    if built.net.max_flow(built.s, built.t, limit=k) < k:
        return None
    return _decompose(g, pair_index, built, k)


def _decompose(g: Network, pair_index: int, built: _PairNet, k: int) -> PathSystem:
    """The k paths of the flow of value k that ``built`` carries."""
    net, edge_arcs = built.net, built.edge_arcs
    # The flow left to walk, over all arcs: reverse arcs read <= 0.  Opposing
    # flow on the two directions of each undirected edge is netted out so
    # the walk below never doubles back across one edge.
    remaining = [b - c for b, c in zip(net.base_cap, net.cap)]
    for arcs in built.arcs_of_edge.values():
        if len(arcs) == 2:
            cancel = min(remaining[arcs[0]], remaining[arcs[1]])
            remaining[arcs[0]] -= cancel
            remaining[arcs[1]] -= cancel

    paths: List[Path] = []
    for _ in range(k):
        steps: List[Tuple[int, bool]] = []
        node = built.s
        while node != built.t:
            for arc in net.adj[node]:
                if remaining[arc] > 0:
                    remaining[arc] -= 1
                    if arc in edge_arcs:
                        steps.append(edge_arcs[arc])
                    node = net.to[arc]
                    break
            else:
                raise AssertionError("flow decomposition ran out of arcs")
        paths.append(Path(steps=tuple(steps)))
    return make_path_system(g, pair_index, paths)


def _cuts_and_systems(g: Network) -> List[Tuple[int, Optional[PathSystem]]]:
    """Every pair's cut value and full system, from one compile of ``g``.

    The system is ``vertex_disjoint_paths(g, i, demand)``, or None when the
    cut is below the demand: the flow stops at the demand for the paths and
    then runs on to the cut value, along the augmentations of one maximum
    flow.  Raises nothing of its own; callers word their own errors.
    """
    split = _compile_network(g)
    out = []
    for i, pair in enumerate(g.pairs):
        built = split.pair_net(i)
        net = built.net
        value = net.max_flow(built.s, built.t, limit=pair.demand)
        system = None
        if value == pair.demand:
            system = _decompose(g, i, built, value)
            value += net.max_flow(built.s, built.t)
        out.append((value, system))
    return out


def _exact_flows(split: _SplitNetwork) -> Optional[List[_PairNet]]:
    """Each pair's net, in pair order, carrying a max flow of value
    ``demand``; None at the first pair whose cut differs from its demand
    (each flow stops one unit past the demand)."""
    nets = []
    for i, pair in enumerate(split.g.pairs):
        built = split.pair_net(i)
        if built.net.max_flow(built.s, built.t, limit=pair.demand + 1) != pair.demand:
            return None
        nets.append(built)
    return nets


def in_class(g: Network) -> bool:
    """True iff every pair's minimum vertex cut equals its demand exactly."""
    return _exact_flows(_compile_network(g)) is not None


class _DeletionQueries:
    """Answers "does ``g`` stay in class without edge e?" from warm max flows.

    The network is compiled once (``split``), and each pair's net carries
    the max flow of value ``demand`` left by ``_exact_flows`` (a network out
    of class raises ``not-in-class``).  An edge arc carries at most one unit.
    For each pair, a query on edge e:

    * does nothing when no arc of e carries flow: the flow already avoids e;
    * cancels the unit cycle through both endpoints when both directions of
      an undirected e carry flow, which leaves the flow valid and e idle;
    * otherwise blocks e's arcs, takes the unit off the carrying arc a, and
      looks for one residual path from a's tail to its head.  Such a path
      exists exactly when a flow of value ``demand`` avoids e: for any such
      flow f', f' - f is a circulation that runs through the reverse of a.

    Before that search, a pair's strongly connected components decide every
    read-only query on their own, and a deletion's no when they are
    present.  The labels are those of the *unit residual view* of the
    pair's flow f (``strongly_connected_components``): reverse arcs with
    remaining capacity, and forward arcs that carry no flow.  Every edge
    arc carries at most one unit in any feasible flow, so the view has the
    same flows of value ``demand`` as the net with unbounded edges.  If a
    flow f' of value ``demand`` avoids e, f' - f is a circulation on the
    view's arcs with -1 on a; one of its cycles runs through the reverse of
    a, so a's tail and head share a component.  Hence different labels
    answer no, exactly, with no search.

    Equal labels answer yes.  They give a simple path P in the view from
    a's tail to its head.  P avoids a, which carries flow, and a's reverse,
    which ends where P starts.  If e is undirected, with a = out(u) ->
    in(v), P may pass through e's other arc b = out(v) -> in(u), which
    carries nothing.  P then goes on from in(u).  But e touches no
    terminal, so u's vertex arc carries a's unit, and its reverse leads
    from out(u) to in(u) directly.  Replacing P's part up to in(u) with
    that arc gives a path that avoids e.  Pushing a unit along it and
    taking the unit off a yields a flow of value ``demand`` that avoids e.
    A read-only query stops there.  A query with ``delete=True`` still runs
    the search, because the deletion keeps the rerouted flow.

    Labels are built lazily per pair, by the first query without ``delete``
    that needs them, and dropped when flows change for good: every pair's
    after a committed deletion, one pair's when it cancels an opposed unit.
    So labels always describe the flow they are tested on.  A query with
    ``delete=True`` uses labels but never builds them, so ``minimalize``,
    which only deletes, searches as before.

    Deleting edges never raises a cut, so the network stays in class after
    a deletion exactly when every pair still reaches its demand.  A query
    with ``delete=True`` that answers yes keeps the rerouted flows and
    removes e's arcs for good; every other query restores the flows.
    """

    def __init__(self, g: Network):
        self.split = _compile_network(g)
        nets = _exact_flows(self.split)
        if nets is None:
            raise InvariantError("not-in-class")
        self._nets: List[_PairNet] = nets
        self._labels: List[Optional[List[int]]] = [None] * len(self._nets)

    def stays_in_class(self, eid: int, delete: bool = False) -> bool:
        """Whether ``g`` minus ``eid`` (and every edge deleted before) is in
        class; with ``delete``, a yes also deletes ``eid``."""
        undo: List[Tuple[List[int], int, int]] = []
        ok = all(
            self._pair_stays(i, built.arcs_of_edge[eid], delete, undo)
            for i, built in enumerate(self._nets)
        )
        if ok and delete:
            # No flow is left on e's arcs; zero capacity removes them.
            for built in self._nets:
                for arc in built.arcs_of_edge[eid]:
                    built.net.cap[arc] = built.net.base_cap[arc] = 0
            self._labels = [None] * len(self._nets)
        else:
            for cap, arc, old in reversed(undo):
                cap[arc] = old
        return ok

    def _pair_stays(self, i: int, arcs: List[int], delete: bool, undo: list) -> bool:
        """Pair i's answer for the edge with these arcs: the labels' where
        present (only their no when deleting), otherwise ``_reroute``'s."""
        built = self._nets[i]
        net = built.net
        cap, base_cap = net.cap, net.base_cap
        carrying = [arc for arc in arcs if cap[arc] < base_cap[arc]]
        if not carrying:
            return True
        if len(carrying) == 2:
            # _reroute cancels the opposed units for good.
            self._labels[i] = None
        else:
            labels = self._labels[i]
            if labels is None and not delete:
                labels = self._labels[i] = strongly_connected_components(net)
            if labels is not None:
                a = carrying[0]
                if labels[net.to[a ^ 1]] != labels[net.to[a]]:
                    return False
                if not delete:
                    return True
        return self._reroute(built, arcs, undo)

    def _reroute(self, built: _PairNet, arcs: List[int], undo: list) -> bool:
        """Move one pair's flow off the edge with these arcs, which carries
        some of it; False if the demand cannot avoid the edge.  Saves every
        capacity it changes."""
        net = built.net
        cap = net.cap
        carrying = [arc for arc in arcs if net.flow_on(arc) > 0]
        if len(carrying) == 2:
            edge = self.split.g.edge_by_id[built.edge_arcs[arcs[0]][0]]
            for arc in (*arcs, built.vertex_arc[edge.u], built.vertex_arc[edge.v]):
                net.push(arc ^ 1, 1)
            return True
        for arc in arcs:
            for a in (arc, arc ^ 1):
                undo.append((cap, a, cap[a]))
                cap[a] = 0
        tail, head = net.to[carrying[0] ^ 1], net.to[carrying[0]]
        parent = net._bfs_parent(tail, head)
        if parent is None:
            return False
        for arc in net.path_arcs(parent, tail, head):
            undo.append((cap, arc, cap[arc]))
            undo.append((cap, arc ^ 1, cap[arc ^ 1]))
            cap[arc] -= 1
            cap[arc ^ 1] += 1
        return True
