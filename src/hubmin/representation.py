"""Canonical form for minimal two-pair networks, and its private-edge anatomy.

The transformation has three steps: merge away degree-2 relay vertices,
stretch vertices where the two systems cross without sharing an edge into a
public edge, and rewire the systems so every public edge is traversed the
same way by both.  The result ("representation") has all non-terminal
vertices of degree exactly 3 and is naturally oriented; its private edges
decompose into alternating paths, the combinatorial skeleton that the
interconnecting-path algorithm walks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .cuts import _full_systems
from .graph_core import (
    PHI,
    PSI,
    PUBLIC,
    UNUSED,
    Edge,
    InvariantError,
    Network,
    Path,
    PathSystem,
    _require_two_systems,
    make_path_system,
)

# Alternating-path kinds, named by their terminal anchors.
S1S2 = "S1S2"
S1R1 = "S1R1"
R2S2 = "R2S2"
R2R1 = "R2R1"


# Not slotted, unlike the other records: ``cached_property`` stores its
# value in the instance ``__dict__``.
@dataclass(frozen=True)
class Representation:
    """A degree-3, naturally oriented minimal two-pair network.

    The alternating-path decomposition and the hub table are derived from
    the fields once per representation, on first use.
    """

    graph: Network
    systems: Tuple[PathSystem, PathSystem]

    @cached_property
    def _decomposition(self) -> Tuple[Tuple[AlternatingPath, ...], HubTable]:
        # A failed decomposition raises and caches nothing, so it raises again
        # on the next use.
        return _decompose(self)


@dataclass(frozen=True, slots=True)
class AlternatingPath:
    """A maximal private-edge path, anchored at its S1- or R2-side end.

    ``upper`` vertices are tails of both their private edges (and head of
    their public edge); ``lower`` vertices are heads of both (and tail of
    their public edge).  Vertex and edge order follow ``steps``, so "right"
    means a higher index.
    """

    steps: Tuple[int, ...]
    kind: str
    upper: Tuple[int, ...]
    lower: Tuple[int, ...]
    choke: Optional[int]


class HubTable(NamedTuple):
    """Per-edge and per-hub lookups of a representation, for walks over it.

    The decomposition builds it in the same pass, and the interconnect reads
    it as it is.  ``direction`` is the representation's natural direction of
    every edge (the first system's where both use it) and ``ends`` its
    natural (tail, head).  ``public`` and ``private`` map each hub to its
    public edge and to its (phi, psi) private edges.  ``hubs`` lists each
    alternating path's hubs in step order (hub i sits between steps i and
    i + 1); ``path_index`` maps each hub to the index of its alternating
    path, and ``position`` to its index in that path's ``hubs``.
    ``unpatterned`` is the first non-terminal vertex, in vertex order,
    without one public and two private edges; when it is None, every hub
    has an entry in every per-hub map.
    """

    direction: Dict[int, bool]
    ends: Dict[int, Tuple[int, int]]
    public: Dict[int, int]
    private: Dict[int, Tuple[int, int]]
    hubs: Tuple[Tuple[int, ...], ...]
    path_index: Dict[int, int]
    position: Dict[int, int]
    unpatterned: Optional[int]


class _Rewrite:
    """The working state the three rewrites edit: vertices, edges, incidence
    and paths.

    It reads ``g`` and ``systems`` as they are until a rewrite first has work
    to do; that rewrite copies the vertices, edges and paths (``_edit``), and
    every later rewrite edits the same copies.  ``incident`` holds the
    ascending incident edge ids of the non-terminals the rewrites read: the
    degree-2 ``relays`` and the ``crowded`` vertices of degree above 3.  A
    merge leaves every other vertex's degree as it was, so both lists, taken
    once from ``g`` in ascending order, stay the ones each rewrite would
    find on the network the rewrites before it left; ``odd`` lists every
    non-terminal of ``g`` whose degree is not 3.  ``result`` validates the
    copies once, as one network and one path system per pair.
    """

    def __init__(self, g: Network, systems: Sequence[PathSystem]):
        self.g = g
        self.systems = systems
        self.odd = _odd_vertices(g)
        self.relays: List[int] = []
        self.crowded: List[int] = []
        self.isolated: set = set()
        for v in self.odd:
            degree = len(g.incident[v])
            if degree == 2:
                self.relays.append(v)
            elif degree > 3:
                self.crowded.append(v)
            elif not degree:
                self.isolated.add(v)
        self.relays.sort()
        self.crowded.sort()
        self.incident = {v: list(g.incident[v]) for v in self.relays + self.crowded}
        self.vertices: Optional[Dict[int, None]] = None
        self.edges: Optional[Dict[int, Edge]] = None
        self.paths: List[List[List[Tuple[int, bool]]]] = []
        self.path_of: List[Dict[int, int]] = []  # per system: edge id -> path index
        self.next_id = 0

    def _edit(self) -> Dict[int, Edge]:
        """The working edges, copied with the vertices and paths on first use."""
        if self.edges is None:
            g = self.g
            self.vertices = dict.fromkeys(g.vertices)
            self.edges = dict(g.edge_by_id)
            self.paths = [[list(p.steps) for p in s.paths] for s in self.systems]
            self.path_of = [
                {eid: i for i, p in enumerate(ps) for eid, _ in p} for ps in self.paths
            ]
            self.next_id = max(self.edges, default=0) + 1
        return self.edges

    def _orientations(self) -> List[Dict[int, bool]]:
        """Each system's edge id -> direction, as the paths stand now."""
        if self.edges is None:
            return [s.orientation for s in self.systems]
        return [{eid: fwd for p in ps for eid, fwd in p} for ps in self.paths]

    def result(self) -> Tuple[Network, List[PathSystem]]:
        """The network and systems the rewrites leave: ``g`` and the systems
        themselves when none had work to do, else one validated build."""
        if self.edges is None:
            return self.g, list(self.systems)
        net = Network(
            vertices=tuple(self.vertices), edges=tuple(self.edges.values()), pairs=self.g.pairs
        )
        return net, [
            make_path_system(net, s.pair_index, [Path(steps=tuple(p)) for p in ps])
            for s, ps in zip(self.systems, self.paths)
        ]

    def merge_relays(self) -> None:
        """Merge each relay's two edges into one, in ascending relay order,
        and drop the relays and isolated non-terminals."""
        relays = self.relays
        if not relays and not self.isolated:
            return
        g = self.g
        edges = self._edit()
        incident = self.incident
        sources, sinks = g.source_set, g.sink_set
        for relay in relays:
            e_id, f_id = incident[relay]
            e, f = edges[e_id], edges[f_id]
            a, b = e.other(relay), f.other(relay)
            if a == b:
                raise InvariantError(
                    "degenerate-relay", f"merging at {relay} would close a loop"
                )
            # Direction of the merged edge: a source endpoint forces a->b, a
            # sink endpoint b; otherwise the edge is interior and undirected.
            new_id = self.next_id
            self.next_id += 1
            if a in sources or b in sinks:
                new_edge = Edge(id=new_id, u=a, v=b, directed=True)
            elif b in sources or a in sinks:
                new_edge = Edge(id=new_id, u=b, v=a, directed=True)
            else:
                new_edge = Edge(id=new_id, u=a, v=b, directed=False)
            del edges[e_id], edges[f_id]
            edges[new_id] = new_edge
            if new_edge.v in sources or new_edge.u in sinks:
                # An edge into a source or out of a sink fails at this merge,
                # with the error the network's own validation gives.
                Network(vertices=g.vertices, edges=tuple(edges.values()), pairs=g.pairs)
            for end, old in ((a, e_id), (b, f_id)):
                if end in incident:  # the new id is the largest, so order holds
                    incident[end].remove(old)
                    incident[end].append(new_id)
            for ps, where in zip(self.paths, self.path_of):
                i = where.pop(e_id, None)
                if i is None:
                    continue
                del where[f_id]
                where[new_id] = i
                steps = ps[i]
                at = _step_index(steps, (e_id, f_id))  # the step into the relay
                eid, forward = steps[at]
                tail = (e if eid == e_id else f).ends(forward)[0]
                steps[at:at + 2] = [(new_id, new_edge.u == tail)]
        for v in self.isolated.union(relays):
            del self.vertices[v]

    def stretch_crossings(self) -> None:
        """Split each crowded vertex, in ascending order, into an in-half and
        an out-half joined by a new public edge."""
        _require_two_systems(self.systems)
        if not self.crowded:
            return
        phi_direction, psi_direction = self._orientations()
        # A crossing's four edges are private: each has one system's direction.
        direction = {**phi_direction, **psi_direction}
        edges = self._edit()
        vertices = self.vertices
        top_vertex = max(vertices, default=0)
        for v in self.crowded:
            eids = self.incident[v]
            counts = {PHI: 0, PSI: 0, PUBLIC: 0, UNUSED: 0}
            for eid in eids:
                if eid in phi_direction:
                    counts[PUBLIC if eid in psi_direction else PHI] += 1
                else:
                    counts[PSI if eid in psi_direction else UNUSED] += 1
            if len(eids) != 4 or counts[PHI] != 2 or counts[PSI] != 2:
                raise InvariantError(
                    "unexpected-degree-4",
                    f"vertex {v} has degree {len(eids)} with tags "
                    f"{{phi: {counts[PHI]}, psi: {counts[PSI]}, "
                    f"public: {counts[PUBLIC]}, unused: {counts[UNUSED]}}}",
                )

            v1, v2 = top_vertex + 1, top_vertex + 2
            top_vertex = v2
            new_eid = self.next_id
            self.next_id += 1
            # Sort the four incident edges by how their system traverses them.
            incoming, outgoing = [], []
            for eid in eids:
                head = edges[eid].ends(direction[eid])[1]
                (incoming if head == v else outgoing).append(eid)
            if len(incoming) != 2 or len(outgoing) != 2:
                raise InvariantError(
                    "unexpected-degree-4", f"vertex {v} is not a two-in two-out crossing"
                )

            for group, target in ((incoming, v1), (outgoing, v2)):
                for eid in group:
                    e = edges[eid]
                    u = target if e.u == v else e.u
                    w = target if e.v == v else e.v
                    edges[eid] = Edge(id=e.id, u=u, v=w, directed=e.directed)
            edges[new_eid] = Edge(id=new_eid, u=v1, v=v2, directed=False)
            del vertices[v]
            vertices[v1] = vertices[v2] = None

            # Each system's step into v now enters v1 and is followed by
            # v1->v2; its step out of v leaves from v2.  Step directions
            # (u->v flags) survive because re-attaching keeps endpoint order.
            for ps, where in zip(self.paths, self.path_of):
                for eid in incoming:
                    i = where.get(eid)
                    if i is not None:
                        steps = ps[i]
                        steps.insert(_step_index(steps, (eid,)) + 1, (new_eid, True))
                        break

    def match_directions(self) -> None:
        """Swap the second system's private edges around each public edge it
        traverses against the first system, in ascending edge-id order."""
        _require_two_systems(self.systems)
        phi_direction, psi_direction = self._orientations()
        conflicts = sorted(
            [eid for eid, fwd in phi_direction.items() if psi_direction.get(eid, fwd) != fwd]
        )
        if not conflicts:
            return
        g = self.g
        edges = self._edit()
        psi_paths = self.paths[1]
        phi_path_of, path_of = self.path_of
        for conflict in conflicts:
            u, v = edges[conflict].ends(phi_direction[conflict])  # phi runs u -> v
            # The psi path runs ... w3 -> v -> u -> w4 ...; find its two
            # private steps around the public edge.
            steps = psi_paths[path_of[conflict]]
            at = _step_index(steps, (conflict,))
            if at == 0 or at == len(steps) - 1:
                raise InvariantError(
                    "decomposition-violation", f"public edge {conflict} at a path end"
                )
            enter_eid = steps[at - 1][0]
            leave_eid = steps[at + 1][0]
            # Both are on the psi path, so they are private unless phi uses them.
            if enter_eid in phi_path_of or leave_eid in phi_path_of:
                raise InvariantError(
                    "decomposition-violation",
                    f"edges around inconsistent public edge {conflict} are not private",
                )
            w3 = edges[enter_eid].other(v)
            w4 = edges[leave_eid].other(u)
            id1, id2 = self.next_id, self.next_id + 1
            self.next_id += 2
            del edges[enter_eid], edges[leave_eid]
            edges[id1] = Edge(id=id1, u=w3, v=u, directed=w3 in g.source_set)
            edges[id2] = Edge(id=id2, u=v, v=w4, directed=w4 in g.sink_set)
            path_of[id1] = path_of[id2] = path_of.pop(enter_eid)
            del path_of[leave_eid]
            steps[at - 1:at + 2] = [
                (id1, True),
                (conflict, phi_direction[conflict]),
                (id2, True),
            ]


def _odd_vertices(g: Network) -> List[int]:
    """The non-terminals of ``g`` whose degree is not 3, in vertex order."""
    terminals = g.terminal_set
    return [v for v, eids in g.incident.items() if len(eids) != 3 and v not in terminals]


def _step_index(steps: List[Tuple[int, bool]], eids: Sequence[int]) -> int:
    """Index of the first step on one of these edges."""
    return next(i for i, (eid, _) in enumerate(steps) if eid in eids)


Rewritten = Tuple[Network, List[PathSystem]]


def _rewrite(g: Network, systems: Sequence[PathSystem], step) -> Rewritten:
    """Run one rewrite step (a ``_Rewrite`` method) on a working state."""
    state = _Rewrite(g, systems)
    step(state)
    return state.result()


def remove_relays(g: Network, systems: Sequence[PathSystem]) -> Rewritten:
    """Merge every non-terminal degree-2 vertex's edge pair into one edge.

    Isolated non-terminal vertices (possible after edge deletions) are
    dropped as well.  Returns the new network and rewritten systems.

    A merge leaves every other vertex's degree as it was, so the relays are
    the degree-2 non-terminals of ``g``, merged in ascending order.  Without
    one (or an isolated vertex), ``g`` and the systems are returned as they
    are; otherwise the merges edit working copies of the edges and paths,
    and one validated build ends the step.  ``to_representation`` runs the
    same code on the state it shares with the other two rewrites.
    """
    return _rewrite(g, systems, _Rewrite.merge_relays)


def stretch_crossings(g: Network, systems: Sequence[PathSystem]) -> Rewritten:
    """Split every crossing vertex into an in-half and an out-half.

    A crossing is a degree-4 non-terminal where both systems pass without
    sharing an edge.  Both incoming edges are re-attached to a new vertex v1,
    both outgoing edges to v2, and a new public edge v1->v2 carries both
    systems through.  Any other degree-4 (or higher) non-terminal means the
    input was not a relay-free minimal two-pair network.

    A stretch changes no other vertex's degree or edge tags, so the vertices
    to stretch are the non-terminals of degree above 3 in ``g``, taken in
    ascending order; without one, ``g`` and the systems are returned as they
    are.  Otherwise the stretches edit working copies of the vertices, edges
    and paths, and one validated build ends the step.  ``to_representation``
    runs the same code on the state it shares with the other two rewrites.
    """
    return _rewrite(g, systems, _Rewrite.stretch_crossings)


def match_directions(g: Network, systems: Sequence[PathSystem]) -> Rewritten:
    """Rewire the second system so every public edge is traversed one way.

    For a public edge with opposite traversal directions, the second system's
    path enters and leaves through private edges; those two private edges are
    replaced by their "swapped" counterparts so the path runs through the
    public edge in the first system's direction.

    A swap fixes its own public edge and adds only private edges, so the
    conflicts are those of ``g``: the edges both systems traverse, opposite
    ways, swapped in ascending edge-id order.  Without one, ``g`` and the
    systems are returned as they are.  Otherwise the swaps edit working
    copies of the edges and the second system's paths, and one validated
    build ends the step.  ``to_representation`` runs the same code on the
    state it shares with the other two rewrites.
    """
    return _rewrite(g, systems, _Rewrite.match_directions)


def to_representation(
    g: Network, systems: Optional[Sequence[PathSystem]] = None
) -> Representation:
    """Run the three steps on a minimal two-pair network.

    When systems are not supplied, maximal vertex-disjoint path systems are
    computed for both pairs, from one compile of ``g``, each flow stopping
    at its pair's demand.

    The relay merges, crossing stretches and direction swaps edit one
    working state in turn, as ``remove_relays``, ``stretch_crossings`` and
    ``match_directions`` chained would, and raise what the chain raises on
    valid systems.  The state is validated once at the end: one ``Network``
    and two ``make_path_system`` builds when any step had work to do, none
    otherwise.
    """
    if len(g.pairs) != 2:
        raise InvariantError("two-pairs-required", f"got {len(g.pairs)} pairs")
    if systems is None:
        systems = []
        for i, system in enumerate(_full_systems(g)):
            if system is None:
                raise InvariantError("not-in-class", f"pair {i} has no full system")
            systems.append(system)
    state = _Rewrite(g, systems)
    state.merge_relays()
    state.stretch_crossings()
    state.match_directions()
    g3, systems3 = state.result()
    # Without a rewrite, g3 is g, whose odd vertices the state has listed.
    odd = state.odd if g3 is g else _odd_vertices(g3)
    if odd:
        v = odd[0]
        raise InvariantError(
            "decomposition-violation",
            f"non-terminal vertex {v} has degree {g3.degree(v)} after transformation",
        )
    return Representation(graph=g3, systems=(systems3[0], systems3[1]))


def decompose_private(rep: Representation) -> List[AlternatingPath]:
    """Partition the private edges into their alternating paths.

    Walks start from the terminal edges at S1 and at R2 (so stored order is
    anchored there), hopping at each hub to its other private edge.  Kinds
    are named by the two terminals the walk connects; decks follow the
    head/tail rule; the initial choke is the rightmost lower vertex for an
    S1S2 path and the rightmost upper vertex for an R2R1 path.

    The decomposition is walked and validated once per representation,
    together with its hub table; each call returns a new list of the same
    paths.  A representation that fails validation raises on every call.
    """
    return list(rep._decomposition[0])


def hub_table(rep: Representation) -> HubTable:
    """The hub table built by the pass that walks the decomposition.

    A representation whose decomposition fails validation raises here as in
    ``decompose_private``.
    """
    return rep._decomposition[1]


def _decompose(rep: Representation) -> Tuple[Tuple[AlternatingPath, ...], HubTable]:
    """Walk and validate the decomposition that ``decompose_private`` returns,
    and build the hub table on the way."""
    g = rep.graph
    phi_direction, psi_direction = (s.orientation for s in rep.systems)
    s1, r1 = g.pairs[0].source, g.pairs[0].sink
    s2, r2 = g.pairs[1].source, g.pairs[1].sink
    terminals = g.terminal_set
    edge_by_id = g.edge_by_id

    # One pass over the edges in id order: natural directions and ends, each
    # private edge's system (True for phi), each hub's public edge (noting
    # hubs with more than one) and its private edges.
    direction: Dict[int, bool] = {}
    ends: Dict[int, Tuple[int, int]] = {}
    on_phi: Dict[int, bool] = {}
    public: Dict[int, int] = {}
    crowded: set = set()
    private_at: Dict[int, List[int]] = {}
    for eid in sorted(edge_by_id):
        e = edge_by_id[eid]
        u = e.u
        v = e.v
        forward = phi_direction.get(eid)
        if forward is None:
            forward = psi_direction.get(eid)
            if forward is None:
                raise InvariantError(
                    "decomposition-violation", "unused edge in representation"
                )
            on_phi[eid] = False
        elif eid in psi_direction:
            direction[eid] = forward
            ends[eid] = (u, v) if forward else (v, u)
            if u in public:
                crowded.add(u)
            elif u not in terminals:
                public[u] = eid
            if v in public:
                crowded.add(v)
            elif v not in terminals:
                public[v] = eid
            continue
        else:
            on_phi[eid] = True
        direction[eid] = forward
        ends[eid] = (u, v) if forward else (v, u)
        if u not in terminals:
            listed = private_at.get(u)
            if listed is None:
                private_at[u] = [eid]
            else:
                listed.append(eid)
        if v not in terminals:
            listed = private_at.get(v)
            if listed is None:
                private_at[v] = [eid]
            else:
                listed.append(eid)
    for v, eids in private_at.items():
        if len(eids) != 2:
            raise InvariantError(
                "decomposition-violation",
                f"hub {v} has {len(eids)} private edges (want 2)",
            )

    private: Dict[int, Tuple[int, int]] = {}
    path_index: Dict[int, int] = {}
    position: Dict[int, int] = {}
    seen: set = set()
    paths: List[AlternatingPath] = []
    hub_order: List[Tuple[int, ...]] = []

    def walk(first_eid: int, anchor: int) -> AlternatingPath:
        # Hop at each hub to its other private edge.  A hub is the head of
        # both its private edges (lower) or the tail of both (upper), so the
        # walk runs its edges alternately with and against their direction,
        # and the hubs it passes alternate between the decks.
        index = len(paths)
        steps, hubs = [first_eid], []
        eid = first_eid
        on_phi_left = on_phi[eid]
        tail, head = ends[eid]
        left_in = first_in = tail == anchor  # the hub reached is the head of eid
        at = head if left_in else tail
        while at not in terminals:
            first, second = private_at[at]
            right = second if first == eid else first
            tail, head = ends[right]
            if (head == at) != left_in:
                raise InvariantError(
                    "decomposition-violation",
                    f"hub {at} is head of one private edge and tail of the other",
                )
            if on_phi[right] == on_phi_left:
                raise InvariantError(
                    "decomposition-violation",
                    f"private edges {eid}, {right} at hub {at} share a system",
                )
            private[at] = (eid, right) if on_phi_left else (right, eid)
            path_index[at] = index
            position[at] = len(hubs)
            hubs.append(at)
            steps.append(right)
            eid = right
            at = tail if left_in else head
            left_in = not left_in
            on_phi_left = not on_phi_left
        lower = tuple(hubs[0 if first_in else 1 :: 2])
        upper = tuple(hubs[1 if first_in else 0 :: 2])

        if anchor == s1:
            kind = S1S2 if at == s2 else (S1R1 if at == r1 else None)
        else:
            kind = R2S2 if at == s2 else (R2R1 if at == r1 else None)
        if kind is None:
            raise InvariantError(
                "decomposition-violation", f"walk from {anchor} ended at {at}"
            )
        if kind == S1S2:
            choke = lower[-1]
        elif kind == R2R1:
            choke = upper[-1]
        else:
            choke = None
        seen.update(steps)
        hub_order.append(tuple(hubs))
        return AlternatingPath(
            steps=tuple(steps),
            kind=kind,
            upper=upper,
            lower=lower,
            choke=choke,
        )

    for anchor in (s1, r2):
        for eid in g.incident.get(anchor, ()):
            if eid in on_phi:
                paths.append(walk(eid, anchor))

    # Walks take private edges only, so they cover them all when they take
    # as many distinct ones.
    if len(seen) != len(on_phi):
        raise InvariantError(
            "decomposition-violation",
            f"private edges not covered: {sorted(set(on_phi) - seen)}",
        )
    # The wanted counts sum to c1 + c2, so they also check the path count.
    c1, c2 = g.pairs[0].demand, g.pairs[1].demand
    delta = sum(1 for p in paths if p.kind == S1S2)
    counts = {
        S1S2: delta,
        R2R1: delta,
        S1R1: c1 - delta,
        R2S2: c2 - delta,
    }
    for kind, want in counts.items():
        have = sum(1 for p in paths if p.kind == kind)
        if have != want:
            raise InvariantError(
                "decomposition-violation", f"{have} {kind} paths, expected {want}"
            )
    for p in paths:
        if p.kind == S1S2 and len(p.lower) != len(p.upper) + 1:
            raise InvariantError("decomposition-violation", "S1S2 deck parity")
        if p.kind == R2R1 and len(p.upper) != len(p.lower) + 1:
            raise InvariantError("decomposition-violation", "R2R1 deck parity")
        if p.kind in (S1R1, R2S2) and len(p.upper) != len(p.lower):
            raise InvariantError("decomposition-violation", f"{p.kind} deck parity")

    # Every private edge is walked, so ``private`` holds every vertex with
    # private edges, and each has two of distinct systems.
    unpatterned = None
    n_hubs = len(g.vertices) - len(terminals)
    if crowded or len(public) != n_hubs or len(private) != n_hubs:
        unpatterned = next(
            v
            for v in g.vertices
            if v not in terminals and (v in crowded or v not in public or v not in private)
        )
    return tuple(paths), HubTable(
        direction, ends, public, private, tuple(hub_order), path_index, position, unpatterned
    )
