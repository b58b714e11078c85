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

    def degree(self, v: int) -> int:
        return len(self.incident.get(v, ()))

    def is_terminal(self, v: int) -> bool:
        return v in self.terminal_set


def delete_edges(g: Network, edge_ids: Iterable[int]) -> Network:
    """New network without the given edges; vertices, pairs and ids unchanged."""
    doomed = set(edge_ids)
    # Built from a list, the tuple is allocated at its final size.  CPython
    # allocates one built from a generator at a guessed size and resizes it,
    # so once freed it sits on the free list of a size that is seldom
    # allocated; repeated calls fill those lists and raise peak memory.
    return Network(
        vertices=g.vertices,
        edges=tuple([e for e in g.edges if e.id not in doomed]),
        pairs=g.pairs,
    )


def hub_count(g: Network) -> int:
    """Count non-terminal vertices of degree >= 3."""
    terminals = g.terminal_set
    return len([v for v, eids in g.incident.items() if len(eids) > 2 and v not in terminals])


@dataclass(frozen=True)
class Path:
    """A simple path as (edge_id, forward) steps; forward means u -> v."""

    steps: Tuple[Tuple[int, bool], ...]

    def edge_ids(self) -> Tuple[int, ...]:
        return tuple(eid for eid, _ in self.steps)


def path_vertices(g: Network, path: Path) -> List[int]:
    """Vertex sequence walked by the path, validating chaining and simplicity.

    Each step is checked in turn for an unknown edge, a directed edge walked
    backward and a break in the walk; a revisited vertex is reported only
    once every step has passed.
    """
    if not path.steps:
        raise InvariantError("empty-path")
    edge_by_id = g.edge_by_id
    seq: List[int] = []
    at = None  # the walk's current end; None before the first step
    for eid, forward in path.steps:
        e = edge_by_id.get(eid)
        if e is None:
            raise InvariantError("unknown-edge", f"edge {eid}")
        if forward:
            tail, head = e.u, e.v
        elif e.directed:
            raise InvariantError("directed-edge-reversed", f"edge {eid}")
        else:
            tail, head = e.v, e.u
        if tail != at:
            if at is not None:
                raise InvariantError("broken-path", f"edge {eid} does not continue the walk")
            seq.append(tail)
        seq.append(head)
        at = head
    if len(set(seq)) != len(seq):
        raise InvariantError("path-revisits-vertex")
    return seq


@dataclass(frozen=True)
class PathSystem:
    """Vertex-disjoint source->sink paths for one pair, with induced orientation.

    ``orientation`` is derived from ``paths``: it maps each used edge id to
    its natural direction, True when a path traverses the edge u -> v as
    stored.  Direct construction checks nothing else; ``make_path_system``
    is the checked constructor, and every system the library builds or
    parses comes from it.
    """

    pair_index: int
    paths: Tuple[Path, ...]
    orientation: Dict[int, bool] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        orientation = {eid: fwd for path in self.paths for eid, fwd in path.steps}
        object.__setattr__(self, "orientation", orientation)

    def edge_ids(self) -> frozenset:
        return frozenset(self.orientation)


def make_path_system(g: Network, pair_index: int, paths: Sequence[Path]) -> PathSystem:
    """Validate and assemble a path system for ``g.pairs[pair_index]``."""
    pair = g.pairs[pair_index]
    seen_edges: set = set()
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
        for eid, _ in path.steps:
            if eid in seen_edges:
                raise InvariantError("edge-reused-within-system", f"edge {eid}")
            seen_edges.add(eid)
    return PathSystem(pair_index=pair_index, paths=tuple(paths))


def _require_two_systems(systems: Sequence[PathSystem]) -> None:
    if len(systems) != 2:
        raise InvariantError("two-systems-required", f"got {len(systems)}")


def classify_edges(g: Network, systems: Sequence[PathSystem]) -> Dict[int, str]:
    """Tag every edge as public / phi / psi / unused under two path systems."""
    _require_two_systems(systems)
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


_MISSING = object()

# Each record kind's fields, in the order they are checked.
_EDGE_FIELDS = (("id", int), ("u", int), ("v", int), ("directed", bool))
_PAIR_FIELDS = (("source", int), ("sink", int), ("demand", int))
_STEP_FIELDS = (("edge", int), ("forward", bool))


def _record(item, fields, where: str, *at) -> list:
    """The values of ``fields`` in the JSON object ``item``, each of its exact
    type; an error is located at ``where % at`` (or at one of its fields)."""
    if type(item) is not dict:
        raise ParseError(where % at, "must be an object")
    values = []
    for key, kind in fields:
        value = item.get(key, _MISSING)
        if type(value) is not kind:
            if value is _MISSING:
                raise ParseError(where % at, f"missing key '{key}'")
            noun = "boolean" if kind is bool else "integer"
            raise ParseError(f"{where % at}.{key}", f"expected {noun}, got {value!r}")
        values.append(value)
    return values


def _top_list(obj: dict, key: str) -> list:
    """The list under a top-level key."""
    value = obj.get(key, _MISSING)
    if type(value) is not list:
        raise ParseError(key, f"missing key '{key}'" if value is _MISSING else "must be a list")
    return value


def parse_instance(text: str) -> Tuple[Network, Optional[List[PathSystem]]]:
    """Parse a network plus its optional path systems from JSON text.

    Any failure of ``json.loads`` (bad syntax, nesting too deep to decode,
    an integer literal past the interpreter's digit limit) raises
    ``ParseError`` at ``json``.  A network that breaks a construction
    invariant raises ``ParseError`` at ``network``.  When present,
    ``systems`` must hold one valid system per pair, each with exactly
    ``demand`` paths; a system that breaks this raises ``ParseError`` at
    ``systems[i]`` (or at ``systems`` for a missing one).

    Fields are checked in one pass, in document order: vertices, then each
    edge's ``id``, ``u``, ``v``, ``directed``, each pair's ``source``,
    ``sink``, ``demand``, then the systems.  Edges, pairs and steps are read
    by one record reader from their field tables.  ``json.loads`` makes no
    subclass of ``dict``, ``list`` or ``int`` other than ``bool``, so exact
    type tests suffice, and a bool is never an integer here.  The error
    location is formatted only when raising.
    """
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParseError("json", str(exc)) from exc
    if type(obj) is not dict:
        raise ParseError("json", "top level must be an object")

    raw_vertices = _top_list(obj, "vertices")
    for i, v in enumerate(raw_vertices):
        if type(v) is not int:
            raise ParseError(f"vertices[{i}]", f"expected integer, got {v!r}")
    edges = [
        Edge(*_record(item, _EDGE_FIELDS, "edges[%d]", i))
        for i, item in enumerate(_top_list(obj, "edges"))
    ]
    pairs = [
        Pair(*_record(item, _PAIR_FIELDS, "pairs[%d]", i))
        for i, item in enumerate(_top_list(obj, "pairs"))
    ]
    try:
        g = Network(vertices=tuple(raw_vertices), edges=tuple(edges), pairs=tuple(pairs))
    except InvariantError as exc:
        raise ParseError("network", str(exc)) from exc

    raw_systems = obj.get("systems")
    if raw_systems is None:
        return g, None
    if type(raw_systems) is not list:
        raise ParseError("systems", "must be a list")
    systems: List[PathSystem] = []
    for si, raw_paths in enumerate(raw_systems):
        if type(raw_paths) is not list:
            raise ParseError(f"systems[{si}]", "must be a list of paths")
        paths = []
        for pi, raw_steps in enumerate(raw_paths):
            if type(raw_steps) is not list:
                raise ParseError(f"systems[{si}][{pi}]", "must be a list of steps")
            steps = [
                tuple(_record(step, _STEP_FIELDS, "systems[%d][%d][%d]", si, pi, ti))
                for ti, step in enumerate(raw_steps)
            ]
            paths.append(Path(steps=tuple(steps)))
        if si >= len(g.pairs):
            raise ParseError(f"systems[{si}]", "more systems than pairs")
        demand = g.pairs[si].demand
        if len(paths) != demand:
            raise ParseError(
                f"systems[{si}]", f"{len(paths)} paths, but pair {si} has demand {demand}"
            )
        try:
            systems.append(make_path_system(g, si, paths))
        except InvariantError as exc:
            raise ParseError(f"systems[{si}]", str(exc)) from exc
    if len(systems) != len(g.pairs):
        raise ParseError("systems", f"{len(systems)} systems for {len(g.pairs)} pairs")
    return g, systems


def _json_list(items: List[str], pad: str) -> str:
    """A JSON list of already-written items whose opening bracket sits at
    indent ``pad``, laid out as ``json.dumps(..., indent=2)`` lays it out."""
    if not items:
        return "[]"
    inner = pad + "  "
    return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"


def serialize_network(g: Network, systems: Optional[Sequence[PathSystem]] = None) -> str:
    """Canonical JSON text: sorted vertices, edges by ascending id, sorted keys.

    The text is written directly, not through ``json.dumps``, whose encoder
    runs in pure Python once it indents.  It is character for character
    what ``json.dumps(obj, indent=2, sort_keys=True) + "\n"`` writes for
    the schema's object: keys in sorted order, two-space indents, ``[]``
    for an empty list, ``true``/``false`` and decimal integers.
    """
    edges = [
        f'{{\n      "directed": {"true" if e.directed else "false"},\n'
        f'      "id": {e.id},\n      "u": {e.u},\n      "v": {e.v}\n    }}'
        for e in sorted(g.edges, key=lambda e: e.id)
    ]
    pairs = [
        f'{{\n      "demand": {p.demand},\n      "sink": {p.sink},\n'
        f'      "source": {p.source}\n    }}'
        for p in g.pairs
    ]
    parts = [
        '{\n  "edges": ',
        _json_list(edges, "  "),
        ',\n  "pairs": ',
        _json_list(pairs, "  "),
    ]
    if systems is not None:
        written = []
        for system in systems:
            paths = []
            for path in system.paths:
                steps = [
                    f'{{\n          "edge": {eid},\n'
                    f'          "forward": {"true" if fwd else "false"}\n        }}'
                    for eid, fwd in path.steps
                ]
                paths.append(_json_list(steps, "      "))
            written.append(_json_list(paths, "    "))
        parts += (',\n  "systems": ', _json_list(written, "  "))
    parts += (
        ',\n  "vertices": ',
        _json_list([str(v) for v in sorted(g.vertices)], "  "),
        "\n}\n",
    )
    return "".join(parts)
