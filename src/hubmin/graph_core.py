"""Core multigraph model: networks with terminal pairs, paths, and path systems.

Interior edges are undirected; edges incident with a source or sink are
directed (out of sources, into sinks).  Parallel edges are allowed, self-loops
are not.  Everything is immutable after construction; operations on networks
return new networks and never reuse deleted ids.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

# Edge classification tags (two-system case).
PUBLIC = "public"
PHI = "phi"  # private to the first system
PSI = "psi"  # private to the second system
UNUSED = "unused"


class InvariantError(ValueError):
    """A structural invariant failed; ``code`` names the failed invariant."""

    def __init__(self, code: str, detail: str = ""):
        self.code = code
        super().__init__(f"{code}: {detail}" if detail else code)


class ParseError(ValueError):
    """Malformed input text; ``where`` locates the offending field."""

    def __init__(self, where: str, detail: str):
        self.where = where
        super().__init__(f"{where}: {detail}")


@dataclass(frozen=True)
class Edge:
    """One edge; ``directed`` is True exactly for terminal-incident edges (u -> v)."""

    id: int
    u: int
    v: int
    directed: bool = False

    def other(self, vertex: int) -> int:
        if vertex == self.u:
            return self.v
        if vertex == self.v:
            return self.u
        raise ValueError(f"vertex {vertex} is not an endpoint of edge {self.id}")

    def ends(self, forward: bool) -> Tuple[int, int]:
        """(tail, head) when the edge is traversed forward (u->v) or backward."""
        return (self.u, self.v) if forward else (self.v, self.u)


@dataclass(frozen=True)
class Pair:
    """A source/sink terminal pair and its demand (required connectivity)."""

    source: int
    sink: int
    demand: int


@dataclass(frozen=True)
class HubCount:
    """Number of non-terminal vertices of degree >= 3."""

    value: int

    def __int__(self) -> int:
        return self.value


@dataclass(frozen=True)
class Network:
    """A multigraph with undirected interior edges and directed terminal edges."""

    vertices: Tuple[int, ...]
    edges: Tuple[Edge, ...]
    pairs: Tuple[Pair, ...]
    # Derived lookups, built once in __post_init__.
    edge_by_id: Dict[int, Edge] = field(init=False, repr=False, compare=False)
    incident: Dict[int, Tuple[int, ...]] = field(init=False, repr=False, compare=False)
    source_set: frozenset = field(init=False, repr=False, compare=False)
    sink_set: frozenset = field(init=False, repr=False, compare=False)
    terminal_set: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        vertex_set = set()
        for v in self.vertices:
            if v in vertex_set:
                raise InvariantError("duplicate-vertex", f"vertex {v}")
            vertex_set.add(v)

        sources = set()
        sinks = set()
        for i, p in enumerate(self.pairs):
            if p.demand < 1:
                raise InvariantError("nonpositive-demand", f"pair {i}")
            if p.source == p.sink:
                raise InvariantError("pair-source-equals-sink", f"pair {i}")
            for t in (p.source, p.sink):
                if t not in vertex_set:
                    raise InvariantError("unknown-vertex", f"pair {i} terminal {t}")
                if t in sources or t in sinks:
                    raise InvariantError("terminal-reuse", f"vertex {t}")
            sources.add(p.source)
            sinks.add(p.sink)

        by_id: Dict[int, Edge] = {}
        inc: Dict[int, List[int]] = {v: [] for v in self.vertices}
        for e in self.edges:
            if e.id in by_id:
                raise InvariantError("duplicate-edge-id", f"edge {e.id}")
            if e.u not in vertex_set or e.v not in vertex_set:
                raise InvariantError("unknown-vertex", f"edge {e.id}")
            if e.u == e.v:
                raise InvariantError("self-loop", f"edge {e.id}")
            touches_terminal = False
            for end in (e.u, e.v):
                if end in sources:
                    touches_terminal = True
                    # A source tolerates only directed edges leaving it.
                    if not e.directed or e.v == end:
                        raise InvariantError("source-incoming-edge", f"edge {e.id} at {end}")
                if end in sinks:
                    touches_terminal = True
                    if not e.directed or e.u == end:
                        raise InvariantError("sink-outgoing-edge", f"edge {e.id} at {end}")
            if e.directed and not touches_terminal:
                raise InvariantError("interior-directed-edge", f"edge {e.id}")
            by_id[e.id] = e
            inc[e.u].append(e.id)
            inc[e.v].append(e.id)

        object.__setattr__(self, "edge_by_id", by_id)
        object.__setattr__(
            self, "incident", {v: tuple(sorted(ids)) for v, ids in inc.items()}
        )
        object.__setattr__(self, "source_set", frozenset(sources))
        object.__setattr__(self, "sink_set", frozenset(sinks))
        object.__setattr__(self, "terminal_set", frozenset(sources | sinks))

    def __hash__(self):
        return hash((self.vertices, self.edges, self.pairs))

    def degree(self, v: int) -> int:
        return len(self.incident.get(v, ()))

    def is_terminal(self, v: int) -> bool:
        return v in self.terminal_set


def delete_edges(g: Network, edge_ids: Iterable[int]) -> Network:
    """New network without the given edges; vertices, pairs and ids unchanged."""
    doomed = set(edge_ids)
    return Network(
        vertices=g.vertices,
        edges=tuple(e for e in g.edges if e.id not in doomed),
        pairs=g.pairs,
    )


def hub_count(g: Network) -> HubCount:
    """Count non-terminal vertices of degree >= 3."""
    terminals = g.terminal_set
    n = sum(1 for v in g.vertices if v not in terminals and g.degree(v) >= 3)
    return HubCount(n)


@dataclass(frozen=True)
class Path:
    """A simple path as (edge_id, forward) steps; forward means u -> v."""

    steps: Tuple[Tuple[int, bool], ...]

    def edge_ids(self) -> Tuple[int, ...]:
        return tuple(eid for eid, _ in self.steps)


def path_vertices(g: Network, path: Path) -> List[int]:
    """Vertex sequence walked by the path, validating chaining and simplicity."""
    if not path.steps:
        raise InvariantError("empty-path")
    seq: List[int] = []
    for eid, forward in path.steps:
        e = g.edge_by_id.get(eid)
        if e is None:
            raise InvariantError("unknown-edge", f"edge {eid}")
        if e.directed and not forward:
            raise InvariantError("directed-edge-reversed", f"edge {eid}")
        tail, head = e.ends(forward)
        if not seq:
            seq.extend((tail, head))
        else:
            if seq[-1] != tail:
                raise InvariantError("broken-path", f"edge {eid} does not continue the walk")
            seq.append(head)
    if len(set(seq)) != len(seq):
        raise InvariantError("path-revisits-vertex")
    return seq


@dataclass(frozen=True)
class PathSystem:
    """Vertex-disjoint source->sink paths for one pair, with induced orientation.

    ``orientation`` maps each used edge id to its natural direction: True when
    the path traverses the edge u -> v as stored.
    """

    pair_index: int
    paths: Tuple[Path, ...]
    orientation: Dict[int, bool] = field(repr=False, compare=False)

    def __hash__(self):
        return hash((self.pair_index, self.paths))

    def edge_ids(self) -> frozenset:
        return frozenset(self.orientation)


def make_path_system(g: Network, pair_index: int, paths: Sequence[Path]) -> PathSystem:
    """Validate and assemble a path system for ``g.pairs[pair_index]``."""
    pair = g.pairs[pair_index]
    orientation: Dict[int, bool] = {}
    seen_interior: set = set()
    for path in paths:
        seq = path_vertices(g, path)
        if seq[0] != pair.source or seq[-1] != pair.sink:
            raise InvariantError(
                "path-endpoint-mismatch",
                f"path runs {seq[0]}->{seq[-1]}, pair {pair_index} wants "
                f"{pair.source}->{pair.sink}",
            )
        interior = set(seq[1:-1])
        if interior & seen_interior:
            raise InvariantError(
                "paths-not-disjoint", f"shared vertices {sorted(interior & seen_interior)}"
            )
        seen_interior |= interior
        for eid, forward in path.steps:
            if eid in orientation:
                raise InvariantError("edge-reused-within-system", f"edge {eid}")
            orientation[eid] = forward
    return PathSystem(pair_index=pair_index, paths=tuple(paths), orientation=orientation)


def classify_edges(g: Network, systems: Sequence[PathSystem]) -> Dict[int, str]:
    """Tag every edge as public / phi / psi / unused under two path systems."""
    if len(systems) != 2:
        raise InvariantError("two-systems-required", f"got {len(systems)}")
    phi_edges = systems[0].edge_ids()
    psi_edges = systems[1].edge_ids()
    tags: Dict[int, str] = {}
    for e in g.edges:
        if e.id in phi_edges and e.id in psi_edges:
            tags[e.id] = PUBLIC
        elif e.id in phi_edges:
            tags[e.id] = PHI
        elif e.id in psi_edges:
            tags[e.id] = PSI
        else:
            tags[e.id] = UNUSED
    return tags


# ---------------------------------------------------------------------------
# JSON serialization.
#
# Schema: {"vertices":[int],
#          "edges":[{"id":int,"u":int,"v":int,"directed":bool}],
#          "pairs":[{"source":int,"sink":int,"demand":int}],
#          "systems":[[ [ {"edge":int,"forward":bool} ] ]]?}
# ---------------------------------------------------------------------------


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise ParseError(where, f"missing key '{key}'")
    return obj[key]


def _as_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(where, f"expected integer, got {value!r}")
    return value


def _as_bool(value, where: str) -> bool:
    if not isinstance(value, bool):
        raise ParseError(where, f"expected boolean, got {value!r}")
    return value


def parse_instance(text: str) -> Tuple[Network, Optional[List[PathSystem]]]:
    """Parse a network plus its optional path systems from JSON text.

    A network that breaks a construction invariant raises ``ParseError`` at
    ``network``.  When present, ``systems`` must hold one valid system per
    pair, each with exactly ``demand`` paths; a system that breaks this
    raises ``ParseError`` at ``systems[i]`` (or at ``systems`` for a
    missing one).
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("json", str(exc)) from exc
    if not isinstance(obj, dict):
        raise ParseError("json", "top level must be an object")

    raw_vertices = _require(obj, "vertices", "vertices")
    if not isinstance(raw_vertices, list):
        raise ParseError("vertices", "must be a list")
    vertices = tuple(_as_int(v, f"vertices[{i}]") for i, v in enumerate(raw_vertices))

    raw_edges = _require(obj, "edges", "edges")
    if not isinstance(raw_edges, list):
        raise ParseError("edges", "must be a list")
    edges = []
    for i, item in enumerate(raw_edges):
        where = f"edges[{i}]"
        if not isinstance(item, dict):
            raise ParseError(where, "must be an object")
        edges.append(
            Edge(
                id=_as_int(_require(item, "id", where), f"{where}.id"),
                u=_as_int(_require(item, "u", where), f"{where}.u"),
                v=_as_int(_require(item, "v", where), f"{where}.v"),
                directed=_as_bool(_require(item, "directed", where), f"{where}.directed"),
            )
        )

    raw_pairs = _require(obj, "pairs", "pairs")
    if not isinstance(raw_pairs, list):
        raise ParseError("pairs", "must be a list")
    pairs = []
    for i, item in enumerate(raw_pairs):
        where = f"pairs[{i}]"
        if not isinstance(item, dict):
            raise ParseError(where, "must be an object")
        pairs.append(
            Pair(
                source=_as_int(_require(item, "source", where), f"{where}.source"),
                sink=_as_int(_require(item, "sink", where), f"{where}.sink"),
                demand=_as_int(_require(item, "demand", where), f"{where}.demand"),
            )
        )

    try:
        g = Network(vertices=vertices, edges=tuple(edges), pairs=tuple(pairs))
    except InvariantError as exc:
        raise ParseError("network", str(exc)) from exc

    systems: Optional[List[PathSystem]] = None
    if "systems" in obj and obj["systems"] is not None:
        raw_systems = obj["systems"]
        if not isinstance(raw_systems, list):
            raise ParseError("systems", "must be a list")
        systems = []
        for si, raw_paths in enumerate(raw_systems):
            where = f"systems[{si}]"
            if not isinstance(raw_paths, list):
                raise ParseError(where, "must be a list of paths")
            paths = []
            for pi, raw_steps in enumerate(raw_paths):
                pwhere = f"{where}[{pi}]"
                if not isinstance(raw_steps, list):
                    raise ParseError(pwhere, "must be a list of steps")
                steps = []
                for ti, step in enumerate(raw_steps):
                    swhere = f"{pwhere}[{ti}]"
                    if not isinstance(step, dict):
                        raise ParseError(swhere, "must be an object")
                    steps.append(
                        (
                            _as_int(_require(step, "edge", swhere), f"{swhere}.edge"),
                            _as_bool(_require(step, "forward", swhere), f"{swhere}.forward"),
                        )
                    )
                paths.append(Path(steps=tuple(steps)))
            if si >= len(g.pairs):
                raise ParseError(where, "more systems than pairs")
            demand = g.pairs[si].demand
            if len(paths) != demand:
                raise ParseError(where, f"{len(paths)} paths, but pair {si} has demand {demand}")
            try:
                systems.append(make_path_system(g, si, paths))
            except InvariantError as exc:
                raise ParseError(where, str(exc)) from exc
        if len(systems) != len(g.pairs):
            raise ParseError("systems", f"{len(systems)} systems for {len(g.pairs)} pairs")
    return g, systems


def parse_network(text: str) -> Network:
    """Parse a network from JSON text (systems, if present, are validated)."""
    return parse_instance(text)[0]


def serialize_network(g: Network, systems: Optional[Sequence[PathSystem]] = None) -> str:
    """Canonical JSON text: sorted vertices, edges by ascending id, sorted keys."""
    obj = {
        "vertices": sorted(g.vertices),
        "edges": [
            {"id": e.id, "u": e.u, "v": e.v, "directed": e.directed}
            for e in sorted(g.edges, key=lambda e: e.id)
        ],
        "pairs": [
            {"source": p.source, "sink": p.sink, "demand": p.demand} for p in g.pairs
        ],
    }
    if systems is not None:
        obj["systems"] = [
            [
                [{"edge": eid, "forward": fwd} for eid, fwd in path.steps]
                for path in system.paths
            ]
            for system in systems
        ]
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def export_dot(g: Network, systems: Optional[Sequence[PathSystem]] = None) -> str:
    """GraphViz text; with systems, public edges bold, phi solid, psi dashed."""
    tags = classify_edges(g, systems) if systems is not None else None
    styles = {
        PUBLIC: "style=bold",
        PHI: "style=solid",
        PSI: "style=dashed",
        UNUSED: "style=dotted, color=gray",
    }
    lines = ["digraph network {"]
    terminals = g.terminal_set
    for v in sorted(g.vertices):
        shape = "box" if v in terminals else "circle"
        lines.append(f'  {v} [shape={shape}];')
    for e in sorted(g.edges, key=lambda e: e.id):
        attrs = [f'label="{e.id}"']
        if not e.directed:
            attrs.append("dir=none")
        if tags is not None:
            attrs.append(styles[tags[e.id]])
        lines.append(f'  {e.u} -> {e.v} [{", ".join(attrs)}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
