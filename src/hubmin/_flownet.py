"""Integer max-flow and SCC plumbing shared by the cut and rerouting code.

Nodes are the integers ``0 .. len(adj) - 1``; ``adj[node]`` lists the arc
ids leaving a node.  Arcs are stored as flat lists where arc ``i`` and
``i ^ 1`` form a forward/residual pair.  All traversals follow the order of
the adjacency lists, so results are deterministic.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

INF = 10**9

_UNSEEN = -1
_ROOT = -2


class FlowNet:
    """Arc-list flow network with unit or large integer capacities.

    ``to``, ``frm`` and ``adj`` are held, not copied, so several nets can
    share one topology; ``base_cap`` is the net's own, and ``cap`` starts as
    a copy of it.
    """

    def __init__(
        self, to: List[int], frm: List[int], adj: List[List[int]], base_cap: List[int]
    ):
        self.to = to
        self.frm = frm
        self.adj = adj
        self.base_cap = base_cap
        self.cap = list(base_cap)

    def flow_on(self, arc: int) -> int:
        return self.base_cap[arc] - self.cap[arc]

    def push(self, arc: int, amount: int) -> None:
        """Force ``amount`` units through an arc (used to pre-load a known flow)."""
        if self.cap[arc] < amount:
            raise ValueError(f"arc {arc} cannot carry {amount}")
        self.cap[arc] -= amount
        self.cap[arc ^ 1] += amount

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

    def path_arcs(self, parent: List[int], s: int, t: int) -> List[int]:
        """Arc ids of the s->t path recorded in a ``_bfs_parent`` result, s first."""
        arcs: List[int] = []
        node = t
        while node != s:
            arc = parent[node]
            arcs.append(arc)
            node = self.frm[arc]
        arcs.reverse()
        return arcs

    def max_flow(self, s: int, t: int, limit: int = INF) -> int:
        """Edmonds-Karp augmentation until no path remains or ``limit`` reached."""
        cap = self.cap
        total = 0
        while total < limit:
            parent = self._bfs_parent(s, t)
            if parent is None:
                break
            arcs = self.path_arcs(parent, s, t)
            bottleneck = min(limit - total, min(cap[arc] for arc in arcs))
            for arc in arcs:
                cap[arc] -= bottleneck
                cap[arc ^ 1] += bottleneck
            total += bottleneck
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
        """Arc ids of one shortest residual s->t path, or None."""
        parent = self._bfs_parent(s, t)
        if parent is None:
            return None
        return self.path_arcs(parent, s, t)


def strongly_connected_components(adj: Sequence[Sequence[int]]) -> List[int]:
    """Iterative Tarjan over nodes ``0 .. len(adj) - 1``; returns each node's
    component id (ids are arbitrary)."""
    n = len(adj)
    index = [-1] * n
    lowlink = [0] * n
    on_stack = [False] * n
    stack: List[int] = []
    comp = [-1] * n
    counter = 0
    comp_count = 0

    for root in range(n):
        if index[root] >= 0:
            continue
        work = [(root, iter(adj[root]))]
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            node, it = work[-1]
            advanced = False
            for nxt in it:
                if index[nxt] < 0:
                    index[nxt] = lowlink[nxt] = counter
                    counter += 1
                    stack.append(nxt)
                    on_stack[nxt] = True
                    work.append((nxt, iter(adj[nxt])))
                    advanced = True
                    break
                if on_stack[nxt]:
                    lowlink[node] = min(lowlink[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    comp[member] = comp_count
                    if member == node:
                        break
                comp_count += 1
    return comp
