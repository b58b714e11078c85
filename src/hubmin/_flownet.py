"""Integer max-flow and SCC plumbing shared by the cut and rerouting code.

Nodes are the integers ``0 .. len(adj) - 1``; ``adj[node]`` lists the arc
ids leaving a node.  Arcs are stored as flat lists where arc ``i`` and
``i ^ 1`` form a forward/residual pair, so the tail of arc ``a`` is
``to[a ^ 1]``.  All traversals follow the order of the adjacency lists, so
results are deterministic.
"""

from __future__ import annotations

from typing import List, Optional

INF = 10**9

_UNSEEN = -1
_ROOT = -2


class FlowNet:
    """Arc-list flow network in which every augmentation carries one unit.

    Every residual s->t path crosses an arc with one unit of residual
    capacity: a unit vertex arc, a direct source->sink edge arc, or a
    reverse arc, which carries at most one unit (see
    ``cuts._SplitNetwork.pair_net``).  So every bottleneck is 1.

    ``to`` and ``adj`` are held, not copied, so several nets can share one
    topology; ``base_cap`` is the net's own, and ``cap`` starts as a copy of
    it.
    """

    def __init__(self, to: List[int], adj: List[List[int]], base_cap: List[int]):
        self.to = to
        self.adj = adj
        self.base_cap = base_cap
        self.cap = list(base_cap)

    def flow_on(self, arc: int) -> int:
        return self.base_cap[arc] - self.cap[arc]

    def push(self, arc: int) -> None:
        """Force one unit through an arc (used to pre-load a known flow)."""
        if self.cap[arc] < 1:
            raise ValueError(f"arc {arc} cannot carry a unit")
        self.cap[arc] -= 1
        self.cap[arc ^ 1] += 1

    def _bfs_parent(self, s: int, t: int) -> Optional[List[int]]:
        """Shortest residual s->t search.

        Returns the parent array (``parent[node]`` is the arc that reached
        ``node``; only the entries along the found path are meaningful to
        callers) or None when ``t`` is unreachable.
        """
        adj, cap, to = self.adj, self.cap, self.to
        parent = [_UNSEEN] * len(adj)
        parent[s] = _ROOT
        # A plain list is the FIFO queue: iterating it while appending visits
        # nodes in the order they were queued.
        queue = [s]
        for node in queue:
            for arc in adj[node]:
                if cap[arc] > 0:
                    nxt = to[arc]
                    if parent[nxt] == _UNSEEN:
                        parent[nxt] = arc
                        if nxt == t:
                            return parent
                        queue.append(nxt)
        return None

    def max_flow(self, s: int, t: int, limit: int = INF) -> int:
        """Edmonds-Karp augmentation until no path remains or ``limit`` reached.

        Every bottleneck is 1 (class docstring), so each path found is
        walked once, to push its unit.
        """
        cap, to = self.cap, self.to
        total = 0
        while total < limit:
            parent = self._bfs_parent(s, t)
            if parent is None:
                break
            node = t
            while node != s:
                arc = parent[node]
                cap[arc] -= 1
                cap[arc ^ 1] += 1
                node = to[arc ^ 1]
            total += 1
        return total

    def residual_reachable(self, s: int) -> List[bool]:
        """``reachable[node]``: whether arcs with remaining capacity lead s to node."""
        adj, cap, to = self.adj, self.cap, self.to
        seen = [False] * len(adj)
        seen[s] = True
        queue = [s]
        for node in queue:
            for arc in adj[node]:
                if cap[arc] > 0:
                    nxt = to[arc]
                    if not seen[nxt]:
                        seen[nxt] = True
                        queue.append(nxt)
        return seen

    def residual_path(self, s: int, t: int) -> Optional[List[int]]:
        """Arc ids of one shortest residual s->t path, s first, or None."""
        parent = self._bfs_parent(s, t)
        if parent is None:
            return None
        arcs: List[int] = []
        node = t
        while node != s:
            arc = parent[node]
            arcs.append(arc)
            node = self.to[arc ^ 1]
        arcs.reverse()
        return arcs


def strongly_connected_components(net: FlowNet) -> List[int]:
    """Component id of every node in the unit residual view of ``net``'s flow.

    The view keeps a reverse arc (odd id) with remaining capacity and a
    forward arc (even id) that carries no flow, ``cap == base_cap > 0``.
    When every forward arc carries at most one unit, this is the residual
    graph of the same flow with all forward capacities cut to 1.  Iterative
    Tarjan, scanning ``adj`` in order with the arc filter inline; component
    ids are arbitrary.
    """
    adj, to, cap, base_cap = net.adj, net.to, net.cap, net.base_cap
    n = len(adj)
    index = [-1] * n
    lowlink = [0] * n
    # comp[node] < 0 while a visited node is still on the Tarjan stack.
    comp = [-1] * n
    next_pos = [0] * n
    stack: List[int] = []
    counter = 0
    comp_count = 0

    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        work = [root]
        while work:
            node = work[-1]
            arcs = adj[node]
            pos = next_pos[node]
            while pos < len(arcs):
                arc = arcs[pos]
                pos += 1
                c = cap[arc]
                if c <= 0 or (not arc & 1 and c != base_cap[arc]):
                    continue
                nxt = to[arc]
                if index[nxt] < 0:
                    next_pos[node] = pos
                    index[nxt] = lowlink[nxt] = counter
                    counter += 1
                    stack.append(nxt)
                    work.append(nxt)
                    break
                if comp[nxt] < 0 and index[nxt] < lowlink[node]:
                    lowlink[node] = index[nxt]
            else:
                work.pop()
                low = lowlink[node]
                if work and low < lowlink[work[-1]]:
                    lowlink[work[-1]] = low
                if low == index[node]:
                    while True:
                        member = stack.pop()
                        comp[member] = comp_count
                        if member == node:
                            break
                    comp_count += 1
    return comp
