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
from typing import Dict, List, Optional, Sequence, Tuple

from .cuts import vertex_disjoint_paths
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
    classify_edges,
    make_path_system,
)

# Alternating-path kinds, named by their terminal anchors.
S1S2 = "S1S2"
S1R1 = "S1R1"
R2S2 = "R2S2"
R2R1 = "R2R1"


@dataclass(frozen=True)
class Representation:
    """A degree-3, naturally oriented minimal two-pair network.

    The merged edge orientation and the alternating-path decomposition are
    derived from the fields once per representation, on first use.
    """

    graph: Network
    systems: Tuple[PathSystem, PathSystem]
    provenance: Dict[str, Dict[int, int]]
    naturally_oriented: bool

    @cached_property
    def _orientation(self) -> Dict[int, bool]:
        """Edge id -> natural direction; the first system's where both use it."""
        merged: Dict[int, bool] = {}
        for system in reversed(self.systems):
            merged.update(system.orientation)
        return merged

    @cached_property
    def _alternating(self) -> Tuple[AlternatingPath, ...]:
        # A failed decomposition raises and caches nothing, so it raises again
        # on the next use.
        return tuple(_decompose(self))

    def natural_direction(self, edge_id: int) -> bool:
        """The direction every system path traverses this edge."""
        try:
            return self._orientation[edge_id]
        except KeyError:
            raise KeyError(f"edge {edge_id} is on neither system") from None


@dataclass(frozen=True)
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


def _build(
    g: Network,
    vertices: Sequence[int],
    edges: Dict[int, Edge],
    systems: Sequence[PathSystem],
    paths: Sequence[Sequence[Sequence[Tuple[int, bool]]]],
) -> Tuple[Network, List[PathSystem]]:
    """Validate a rewrite step's working copies as one network and one path
    system per pair."""
    net = Network(vertices=tuple(vertices), edges=tuple(edges.values()), pairs=g.pairs)
    return net, [
        make_path_system(net, s.pair_index, [Path(steps=tuple(p)) for p in ps])
        for s, ps in zip(systems, paths)
    ]


def _working_paths(systems: Sequence[PathSystem]):
    """Mutable step lists per system, and per system a map from each edge id
    to the index of the path that uses it."""
    paths = [[list(p.steps) for p in s.paths] for s in systems]
    path_of = [{eid: i for i, p in enumerate(ps) for eid, _ in p} for ps in paths]
    return paths, path_of


def _step_index(steps: List[Tuple[int, bool]], eids: Sequence[int]) -> int:
    """Index of the first step on one of these edges."""
    return next(i for i, (eid, _) in enumerate(steps) if eid in eids)


def remove_relays(
    g: Network, systems: Sequence[PathSystem]
) -> Tuple[Network, List[PathSystem], Dict[str, Dict[int, int]]]:
    """Merge every non-terminal degree-2 vertex's edge pair into one edge.

    Isolated non-terminal vertices (possible after edge deletions) are
    dropped as well.  Returns the new network, rewritten systems, and a
    provenance map (new edge id -> id of one merged original edge).

    A merge leaves every other vertex's degree as it was, so the relays are
    the degree-2 non-terminals of ``g``, merged in ascending order.  The
    merges edit working copies of the edges and paths; the step ends with
    one validated build of the network and its path systems.
    """
    provenance = {"vertices": {}, "edges": {}}
    relays = [v for v in sorted(g.vertices) if not g.is_terminal(v) and g.degree(v) == 2]
    isolated = {v for v in g.vertices if not g.is_terminal(v) and g.degree(v) == 0}
    if not relays and not isolated:
        return g, list(systems), provenance
    edges = dict(g.edge_by_id)
    incident = {v: list(g.incident[v]) for v in relays}
    paths, path_of = _working_paths(systems)
    sources, sinks = g.source_set, g.sink_set
    next_id = max(edges, default=0) + 1
    for relay in relays:
        e_id, f_id = incident[relay]
        e, f = edges[e_id], edges[f_id]
        a, b = e.other(relay), f.other(relay)
        if a == b:
            raise InvariantError("degenerate-relay", f"merging at {relay} would close a loop")
        # Direction of the merged edge: a source endpoint forces a->b, a sink
        # endpoint b; otherwise the edge is interior and undirected.
        if a in sources or b in sinks:
            new_edge = Edge(id=next_id, u=a, v=b, directed=True)
        elif b in sources or a in sinks:
            new_edge = Edge(id=next_id, u=b, v=a, directed=True)
        else:
            new_edge = Edge(id=next_id, u=a, v=b, directed=False)
        next_id += 1
        del edges[e_id], edges[f_id]
        edges[new_edge.id] = new_edge
        if new_edge.v in sources or new_edge.u in sinks:
            # An edge into a source or out of a sink fails at this merge, with
            # the error the network's own validation gives.
            Network(vertices=g.vertices, edges=tuple(edges.values()), pairs=g.pairs)
        for end, old in ((a, e_id), (b, f_id)):
            if end in incident:  # a later relay: the new id is the largest
                incident[end].remove(old)
                incident[end].append(new_edge.id)
        for ps, where in zip(paths, path_of):
            i = where.pop(e_id, None)
            if i is None:
                continue
            del where[f_id]
            where[new_edge.id] = i
            steps = ps[i]
            at = _step_index(steps, (e_id, f_id))  # the step into the relay
            eid, forward = steps[at]
            tail = (e if eid == e_id else f).ends(forward)[0]
            steps[at:at + 2] = [(new_edge.id, new_edge.u == tail)]
        provenance["edges"][new_edge.id] = min(
            provenance["edges"].get(e_id, e_id), provenance["edges"].get(f_id, f_id)
        )
        provenance["edges"].pop(e_id, None)
        provenance["edges"].pop(f_id, None)

    doomed = isolated.union(relays)
    vertices = [v for v in g.vertices if v not in doomed]
    return (*_build(g, vertices, edges, systems, paths), provenance)


def stretch_crossings(
    g: Network, systems: Sequence[PathSystem]
) -> Tuple[Network, List[PathSystem], Dict[str, Dict[int, int]]]:
    """Split every crossing vertex into an in-half and an out-half.

    A crossing is a degree-4 non-terminal where both systems pass without
    sharing an edge.  Both incoming edges are re-attached to a new vertex v1,
    both outgoing edges to v2, and a new public edge v1->v2 carries both
    systems through.  Any other degree-4 (or higher) non-terminal means the
    input was not a relay-free minimal two-pair network.

    A stretch changes no other vertex's degree or edge tags, so one
    ascending scan of ``g`` meets the crossings in order.  The stretches
    edit working copies of the vertices, edges and paths; the step ends
    with one validated build of the network and its path systems.
    """
    provenance = {"vertices": {}, "edges": {}}
    tags = classify_edges(g, systems)
    orientation_all: Dict[int, bool] = {}
    for s in systems:
        orientation_all.update(s.orientation)
    vertices = dict.fromkeys(g.vertices)
    edges = dict(g.edge_by_id)
    paths, path_of = _working_paths(systems)
    top_vertex = max(g.vertices, default=0)
    next_id = max(edges, default=0) + 1
    for v in sorted(g.vertices):
        if g.is_terminal(v):
            continue
        deg = g.degree(v)
        if deg <= 3:
            continue
        by_tag = {PHI: [], PSI: [], PUBLIC: [], UNUSED: []}
        for eid in g.incident[v]:
            by_tag[tags[eid]].append(eid)
        if deg != 4 or len(by_tag[PHI]) != 2 or len(by_tag[PSI]) != 2:
            raise InvariantError(
                "unexpected-degree-4",
                f"vertex {v} has degree {deg} with tags "
                f"{{phi: {len(by_tag[PHI])}, psi: {len(by_tag[PSI])}, "
                f"public: {len(by_tag[PUBLIC])}, unused: {len(by_tag[UNUSED])}}}",
            )

        v1, v2 = top_vertex + 1, top_vertex + 2
        top_vertex = v2
        new_eid = next_id
        next_id += 1
        # Sort the four incident edges by how their system traverses them.
        incoming, outgoing = [], []
        for eid in g.incident[v]:
            head = edges[eid].ends(orientation_all[eid])[1]
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

        # Each system's step into v now enters v1 and is followed by v1->v2;
        # its step out of v leaves from v2.  Step directions (u->v flags)
        # survive because re-attaching keeps endpoint order.
        for ps, where in zip(paths, path_of):
            for eid in incoming:
                i = where.get(eid)
                if i is not None:
                    steps = ps[i]
                    steps.insert(_step_index(steps, (eid,)) + 1, (new_eid, True))
                    break

        provenance["vertices"][v1] = provenance["vertices"].pop(v, v)
        provenance["vertices"][v2] = provenance["vertices"][v1]
    if not provenance["vertices"]:
        return g, list(systems), provenance
    return (*_build(g, vertices, edges, systems, paths), provenance)


def match_directions(
    g: Network, systems: Sequence[PathSystem]
) -> Tuple[Network, List[PathSystem], Dict[str, Dict[int, int]]]:
    """Rewire the second system so every public edge is traversed one way.

    For a public edge with opposite traversal directions, the second system's
    path enters and leaves through private edges; those two private edges are
    replaced by their "swapped" counterparts so the path runs through the
    public edge in the first system's direction.

    A swap fixes its own public edge and adds only private edges, so the
    conflicts are those of ``g``, swapped in ascending edge-id order.  The
    swaps edit working copies of the edges and the second system's paths;
    the step ends with one validated build of the network and both systems.
    """
    provenance = {"vertices": {}, "edges": {}}
    tags = classify_edges(g, systems)
    phi, psi = systems
    conflicts = [
        eid
        for eid in sorted(tags)
        if tags[eid] == PUBLIC and phi.orientation[eid] != psi.orientation[eid]
    ]
    if not conflicts:
        return g, list(systems), provenance
    edges = dict(g.edge_by_id)
    (psi_paths,), (path_of,) = _working_paths((psi,))
    next_id = max(edges) + 1
    for conflict in conflicts:
        u, v = edges[conflict].ends(phi.orientation[conflict])  # phi runs u -> v
        # The psi path runs ... w3 -> v -> u -> w4 ...; find its two private
        # steps around the public edge.
        steps = psi_paths[path_of[conflict]]
        at = _step_index(steps, (conflict,))
        if at == 0 or at == len(steps) - 1:
            raise InvariantError(
                "decomposition-violation", f"public edge {conflict} at a path end"
            )
        enter_eid = steps[at - 1][0]
        leave_eid = steps[at + 1][0]
        if tags[enter_eid] != PSI or tags[leave_eid] != PSI:
            raise InvariantError(
                "decomposition-violation",
                f"edges around inconsistent public edge {conflict} are not private",
            )
        w3 = edges[enter_eid].other(v)
        w4 = edges[leave_eid].other(u)
        id1, id2 = next_id, next_id + 1
        next_id += 2
        del edges[enter_eid], edges[leave_eid]
        edges[id1] = Edge(id=id1, u=w3, v=u, directed=w3 in g.source_set)
        edges[id2] = Edge(id=id2, u=v, v=w4, directed=w4 in g.sink_set)
        tags[id1] = tags[id2] = PSI
        path_of[id1] = path_of[id2] = path_of.pop(enter_eid)
        del path_of[leave_eid]
        steps[at - 1:at + 2] = [
            (id1, True),
            (conflict, phi.orientation[conflict]),
            (id2, True),
        ]
        provenance["edges"][id1] = provenance["edges"].pop(enter_eid, enter_eid)
        provenance["edges"][id2] = provenance["edges"].pop(leave_eid, leave_eid)
    phi_paths = [p.steps for p in phi.paths]
    return (*_build(g, g.vertices, edges, (phi, psi), (phi_paths, psi_paths)), provenance)


def _compose_provenance(
    earlier: Dict[str, Dict[int, int]], later: Dict[str, Dict[int, int]]
) -> Dict[str, Dict[int, int]]:
    """Chain two new->old maps: resolve later's targets through earlier."""
    out = {"vertices": dict(earlier["vertices"]), "edges": dict(earlier["edges"])}
    for kind in ("vertices", "edges"):
        for new, old in later[kind].items():
            out[kind][new] = earlier[kind].get(old, old)
    return out


def to_representation(
    g: Network, systems: Optional[Sequence[PathSystem]] = None
) -> Representation:
    """Run the three steps on a minimal two-pair network.

    When systems are not supplied, maximal vertex-disjoint path systems are
    computed for both pairs.
    """
    if len(g.pairs) != 2:
        raise InvariantError("two-pairs-required", f"got {len(g.pairs)} pairs")
    if systems is None:
        systems = []
        for i, pair in enumerate(g.pairs):
            system = vertex_disjoint_paths(g, i, pair.demand)
            if system is None:
                raise InvariantError("not-in-class", f"pair {i} has no full system")
            systems.append(system)
    g1, systems1, prov1 = remove_relays(g, systems)
    g2, systems2, prov2 = stretch_crossings(g1, systems1)
    g3, systems3, prov3 = match_directions(g2, systems2)
    provenance = _compose_provenance(_compose_provenance(prov1, prov2), prov3)
    # Composition can leave entries for intermediate ids that a later step
    # replaced; only ids present in the final graph are meaningful.
    provenance["edges"] = {
        k: v for k, v in provenance["edges"].items() if k in g3.edge_by_id
    }
    vertex_set = set(g3.vertices)
    provenance["vertices"] = {
        k: v for k, v in provenance["vertices"].items() if k in vertex_set
    }

    rep = Representation(
        graph=g3,
        systems=(systems3[0], systems3[1]),
        provenance=provenance,
        naturally_oriented=True,
    )
    for v in g3.vertices:
        if not g3.is_terminal(v) and g3.degree(v) != 3:
            raise InvariantError(
                "decomposition-violation",
                f"non-terminal vertex {v} has degree {g3.degree(v)} after transformation",
            )
    return rep


def decompose_private(rep: Representation) -> List[AlternatingPath]:
    """Partition the private edges into their alternating paths.

    Walks start from the terminal edges at S1 and at R2 (so stored order is
    anchored there), hopping at each hub to its other private edge.  Kinds
    are named by the two terminals the walk connects; decks follow the
    head/tail rule; the initial choke is the rightmost lower vertex for an
    S1S2 path and the rightmost upper vertex for an R2R1 path.

    The decomposition is walked and validated once per representation; each
    call returns a new list of the same paths.  A representation that fails
    validation raises on every call.
    """
    return list(rep._alternating)


def _decompose(rep: Representation) -> List[AlternatingPath]:
    """Walk and validate the decomposition that ``decompose_private`` returns."""
    g = rep.graph
    tags = classify_edges(g, rep.systems)
    if any(tag == UNUSED for tag in tags.values()):
        raise InvariantError("decomposition-violation", "unused edge in representation")
    s1, r1 = g.pairs[0].source, g.pairs[0].sink
    s2, r2 = g.pairs[1].source, g.pairs[1].sink

    private_at: Dict[int, List[int]] = {}
    for eid, tag in sorted(tags.items()):
        if tag == PUBLIC:
            continue
        e = g.edge_by_id[eid]
        for x in (e.u, e.v):
            if not g.is_terminal(x):
                private_at.setdefault(x, []).append(eid)
    for v, eids in private_at.items():
        if len(eids) != 2:
            raise InvariantError(
                "decomposition-violation",
                f"hub {v} has {len(eids)} private edges (want 2)",
            )

    seen: set = set()
    paths: List[AlternatingPath] = []

    def walk(first_eid: int, anchor: int) -> AlternatingPath:
        steps = [first_eid]
        prev_vertex = anchor
        edge = g.edge_by_id[first_eid]
        while True:
            nxt = edge.other(prev_vertex)
            if g.is_terminal(nxt):
                end = nxt
                break
            pair_edges = private_at[nxt]
            other = pair_edges[0] if pair_edges[1] == edge.id else pair_edges[1]
            if other == edge.id:
                raise InvariantError("decomposition-violation", f"stuck at hub {nxt}")
            steps.append(other)
            prev_vertex = nxt
            edge = g.edge_by_id[other]

        # Hubs sit between consecutive steps; classify each by head/tail.
        upper, lower = [], []
        walk_v = anchor
        hubs = []
        for eid in steps[:-1]:
            walk_v = g.edge_by_id[eid].other(walk_v)
            hubs.append(walk_v)
        for i, h in enumerate(hubs):
            left = g.edge_by_id[steps[i]]
            right = g.edge_by_id[steps[i + 1]]
            left_head = left.ends(rep.natural_direction(left.id))[1]
            right_head = right.ends(rep.natural_direction(right.id))[1]
            if left_head == h and right_head == h:
                lower.append(h)
            elif left_head != h and right_head != h:
                upper.append(h)
            else:
                raise InvariantError(
                    "decomposition-violation",
                    f"hub {h} is head of one private edge and tail of the other",
                )
            if tags[steps[i]] == tags[steps[i + 1]]:
                raise InvariantError(
                    "decomposition-violation",
                    f"private edges {steps[i]}, {steps[i+1]} at hub {h} share a system",
                )

        if anchor == s1:
            kind = S1S2 if end == s2 else (S1R1 if end == r1 else None)
        else:
            kind = R2S2 if end == s2 else (R2R1 if end == r1 else None)
        if kind is None:
            raise InvariantError(
                "decomposition-violation", f"walk from {anchor} ended at {end}"
            )
        if kind == S1S2:
            choke = lower[-1]
        elif kind == R2R1:
            choke = upper[-1]
        else:
            choke = None
        seen.update(steps)
        return AlternatingPath(
            steps=tuple(steps),
            kind=kind,
            upper=tuple(upper),
            lower=tuple(lower),
            choke=choke,
        )

    for anchor in (s1, r2):
        for eid in g.incident.get(anchor, ()):
            if tags[eid] != PUBLIC:
                paths.append(walk(eid, anchor))

    all_private = {eid for eid, tag in tags.items() if tag != PUBLIC}
    if seen != all_private:
        raise InvariantError(
            "decomposition-violation",
            f"private edges not covered: {sorted(all_private - seen)}",
        )
    c1, c2 = g.pairs[0].demand, g.pairs[1].demand
    if len(paths) != c1 + c2:
        raise InvariantError(
            "decomposition-violation",
            f"{len(paths)} alternating paths for demands ({c1},{c2})",
        )
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
    return paths
