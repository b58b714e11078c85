"""Integer max-flow and SCC plumbing shared by the cut and rerouting code.

Nodes are the integers ``0 .. len(adj) - 1``; ``adj[node]`` lists the arc
ids leaving a node.  Arcs are stored as flat lists where arc ``i`` and
``i ^ 1`` form a forward/residual pair, so the tail of arc ``a`` is
``to[a ^ 1]``.  All traversals follow the order of the adjacency lists, so
results are deterministic.  The component labelling searches only from the
roots its caller names, so it reads no more of a net than a query needs.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

INF = 10**9

_UNSEEN = -1
_ROOT = -2


class FlowNet:
    """Arc-list flow network in which every augmentation carries one unit.

    Three invariants of the nets ``cuts._SplitNetwork.pair_net`` builds
    hold for every flow they carry:

    - Every arc joins the in-node and the out-node halves of split
      vertices, one each; s is an out-node and t an in-node.
    - Every residual s->t path crosses an arc with one unit of residual
      capacity: a unit vertex arc, a direct source->sink edge arc, or a
      reverse arc, which carries at most one unit.  So every bottleneck is
      1.
    - Every node other than s with an arc into t has one unit of residual
      capacity on its entering arcs, in total: it is an out-node, fed by a
      unit vertex arc, and each unit it sends on reopens one reverse arc
      into it.

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

    def _bfs_parent(self, s: int, t: int) -> Optional[Tuple[List[int], List[int]]]:
        """Shortest residual s->t search.

        Returns ``(parent, queue)``, or None when ``t`` is unreachable.
        ``parent[node]`` is the arc that reached ``node``; it is meaningful
        for the nodes of ``queue``, every node reached before ``t``, in the
        order reached, and for ``t``.  Adjacency lists are scanned in order,
        so each node's parent chain is its lexicographically first shortest
        path (compared arc by arc at the node where two paths part, by
        adjacency position), and ``queue`` lists the nodes of each depth in
        the order of those paths.
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
                            return parent, queue
                        queue.append(nxt)
        return None

    def max_flow(self, s: int, t: int, limit: int = INF) -> int:
        """Edmonds-Karp augmentation until no path remains or ``limit`` is
        reached, with one search per round.

        Each unit goes along the path a search per unit would return: the
        first shortest residual path (``_bfs_parent``).  So the flow is
        Edmonds-Karp's, unit for unit.  A round searches once and pushes
        the path found, of length L.  Then it takes the other tails of
        positive arcs into t that the search reached, in queue order, and
        while the next one's tree path has capacity left on every arc,
        pushes a unit along that path and the tail's first positive arc
        into t.  The round ends at the first tail whose tree path is
        broken, or at ``limit``.

        Why the next search would return that same path P (the invariants
        are the class docstring's):
        - t lies at odd depth L and every tail, an out-node, at even depth.
          The search reached no node deeper than L, so each tail it
          reached lies at depth L - 1, and P has length L.  When L = 1, s
          is the only node at depth 0, so no other tail was reached.
        - Pushing along paths of length L opens only reverse arcs, each
          leading one depth up the round's search.  So a residual path of
          length L runs one depth down at every arc, and its first L - 1
          arcs are a path of the search to a tail at depth L - 1.
        - A tail used in the round is spent: its one unit of entering
          capacity now lies on the reverse of its arc into t, which leads
          up.
        - So the next search's path ends at a tail no earlier in queue
          order than P's, and a tree path is the first path of its length
          to its node.  The next path therefore comes no earlier than P,
          and P is a residual path of length L, so the two are one.
        """
        adj, cap, to = self.adj, self.cap, self.to
        total = 0
        while total < limit:
            found = self._bfs_parent(s, t)
            if found is None:
                break
            parent, queue = found
            node = t
            while node != s:
                arc = parent[node]
                cap[arc] -= 1
                cap[arc ^ 1] += 1
                node = to[arc ^ 1]
            total += 1
            if total == limit:
                break
            first = to[parent[t] ^ 1]
            # Arc b leaves t exactly when arc b ^ 1 enters it, from to[b].
            tails = []
            for b in adj[t]:
                if cap[b ^ 1] > 0:
                    v = to[b]
                    if v != first and parent[v] != _UNSEEN:
                        tails.append(v)
            if len(tails) > 1:
                tails.sort(key=queue.index)
            for v in tails:
                path = []
                node = v
                while node != s and cap[parent[node]] > 0:
                    arc = parent[node]
                    path.append(arc)
                    node = to[arc ^ 1]
                if node != s:
                    break
                # No push has touched v's arcs into t, so one is positive.
                for arc in adj[v]:
                    if to[arc] == t and cap[arc] > 0:
                        break
                path.append(arc)
                for arc in path:
                    cap[arc] -= 1
                    cap[arc ^ 1] += 1
                total += 1
                if total == limit:
                    break
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
        found = self._bfs_parent(s, t)
        if found is None:
            return None
        parent = found[0]
        arcs: List[int] = []
        node = t
        while node != s:
            arc = parent[node]
            arcs.append(arc)
            node = self.to[arc ^ 1]
        arcs.reverse()
        return arcs


def strongly_connected_components(net: FlowNet, roots: Iterable[int]) -> List[int]:
    """Component id of every node that ``roots`` reach in the unit residual
    view of ``net``'s flow, and -1 for every other node.

    The view keeps a reverse arc (odd id) with remaining capacity and a
    forward arc (even id) that carries no flow, ``cap == base_cap > 0``.
    When every forward arc carries at most one unit, this is the residual
    graph of the same flow with all forward capacities cut to 1.  Iterative
    Tarjan: DFS from each root in turn, each node's ``adj`` scanned in
    order with the arc filter inline.  Every frame of the DFS path keeps one
    iterator over its node's arcs, so a node's scan resumes where its last
    child was entered and reads each arc once; the path and its iterators
    are lists, so a deep DFS needs no recursion.

    The labels of the nodes reached are exact: whatever reaches one member
    of a component reaches all of it, so each reached component lies whole
    among the reached nodes, and Tarjan's DFS forest over them labels it as
    a run over the whole view would.  Component ids are arbitrary.
    """
    adj, to, cap, base_cap = net.adj, net.to, net.cap, net.base_cap
    n = len(adj)
    index = [-1] * n
    lowlink = [0] * n
    # comp[node] < 0 while a visited node is still on the Tarjan stack, and
    # for good on a node no root reaches.
    comp = [-1] * n
    stack: List[int] = []
    counter = 0
    comp_count = 0

    for root in roots:
        if index[root] >= 0:
            continue
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        # The DFS path, and beside it each node's iterator over its arcs.
        work = [root]
        arcs_left = [iter(adj[root])]
        while work:
            node = work[-1]
            for arc in arcs_left[-1]:
                c = cap[arc]
                if c <= 0 or (not arc & 1 and c != base_cap[arc]):
                    continue
                nxt = to[arc]
                if index[nxt] < 0:
                    index[nxt] = lowlink[nxt] = counter
                    counter += 1
                    stack.append(nxt)
                    work.append(nxt)
                    arcs_left.append(iter(adj[nxt]))
                    break
                if comp[nxt] < 0 and index[nxt] < lowlink[node]:
                    lowlink[node] = index[nxt]
            else:
                work.pop()
                arcs_left.pop()
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
