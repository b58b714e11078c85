"""Network model, validation codes, path machinery, and JSON round-trips."""

from __future__ import annotations

import copy
import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hubmin import (
    Edge,
    InvariantError,
    Network,
    Pair,
    ParseError,
    Path,
    PathSystem,
    classify_edges,
    delete_edges,
    export_dot,
    grid_graph,
    grid_instance,
    hub_count,
    make_path_system,
    minimalize,
    ones_instance,
    parse_instance,
    parse_network,
    path_vertices,
    random_network,
    reroutable_witness,
    serialize_network,
    theorem1_agreement,
    to_representation,
    vertex_disjoint_paths,
    witness_222_instance,
)

from conftest import DEEP_NESTING, LONG_INTEGER


def _net(vertices, edges, pairs):
    return Network(vertices=tuple(vertices), edges=tuple(edges), pairs=tuple(pairs))


def _tiny():
    """S -> a -> R with one interior vertex."""
    return _net(
        [0, 1, 2],
        [Edge(0, 0, 2, True), Edge(1, 2, 1, True)],
        [Pair(0, 1, 1)],
    )


# ---------------------------------------------------------------------------
# Construction invariants.
# ---------------------------------------------------------------------------


def _expect_invariant(code, vertices, edges, pairs):
    with pytest.raises(InvariantError) as err:
        _net(vertices, edges, pairs)
    assert err.value.code == code


def test_duplicate_vertex_rejected():
    _expect_invariant("duplicate-vertex", [0, 1, 1], [], [Pair(0, 1, 1)])


def test_duplicate_edge_id_rejected():
    _expect_invariant(
        "duplicate-edge-id",
        [0, 1, 2, 3],
        [Edge(0, 2, 3, False), Edge(0, 2, 3, False)],
        [Pair(0, 1, 1)],
    )


def test_self_loop_rejected():
    _expect_invariant("self-loop", [0, 1, 2], [Edge(0, 2, 2, False)], [Pair(0, 1, 1)])


def test_unknown_vertex_in_edge_rejected():
    _expect_invariant("unknown-vertex", [0, 1], [Edge(0, 0, 9, True)], [Pair(0, 1, 1)])


def test_unknown_terminal_rejected():
    _expect_invariant("unknown-vertex", [0, 1], [], [Pair(0, 9, 1)])


def test_nonpositive_demand_rejected():
    _expect_invariant("nonpositive-demand", [0, 1], [], [Pair(0, 1, 0)])


def test_pair_source_equals_sink_rejected():
    _expect_invariant("pair-source-equals-sink", [0, 1], [], [Pair(0, 0, 1)])


def test_terminal_reuse_rejected():
    _expect_invariant(
        "terminal-reuse", [0, 1, 2], [], [Pair(0, 1, 1), Pair(0, 2, 1)]
    )


def test_source_incoming_edge_rejected():
    # Undirected edge at a source is as illegal as a directed edge into it.
    _expect_invariant(
        "source-incoming-edge", [0, 1, 2], [Edge(0, 0, 2, False)], [Pair(0, 1, 1)]
    )
    _expect_invariant(
        "source-incoming-edge", [0, 1, 2], [Edge(0, 2, 0, True)], [Pair(0, 1, 1)]
    )


def test_sink_outgoing_edge_rejected():
    _expect_invariant(
        "sink-outgoing-edge", [0, 1, 2], [Edge(0, 1, 2, True)], [Pair(0, 1, 1)]
    )


def test_interior_directed_edge_rejected():
    _expect_invariant(
        "interior-directed-edge",
        [0, 1, 2, 3],
        [Edge(0, 2, 3, True)],
        [Pair(0, 1, 1)],
    )


def test_parallel_interior_edges_allowed():
    g = _net(
        [0, 1, 2, 3],
        [
            Edge(0, 0, 2, True),
            Edge(1, 2, 3, False),
            Edge(2, 2, 3, False),
            Edge(3, 3, 1, True),
        ],
        [Pair(0, 1, 1)],
    )
    assert g.degree(2) == 3 and g.degree(3) == 3


# ---------------------------------------------------------------------------
# Basic accessors.
# ---------------------------------------------------------------------------


def test_edge_other_and_ends():
    e = Edge(5, 10, 11, False)
    assert e.other(10) == 11 and e.other(11) == 10
    assert e.ends(True) == (10, 11) and e.ends(False) == (11, 10)
    with pytest.raises(ValueError):
        e.other(12)


def test_terminal_sets_and_degree():
    g = _tiny()
    assert g.source_set == frozenset({0})
    assert g.sink_set == frozenset({1})
    assert g.terminal_set == frozenset({0, 1})
    assert g.degree(2) == 2
    assert g.is_terminal(0) and not g.is_terminal(2)


def test_delete_edges_keeps_vertices_and_pairs():
    g = _tiny()
    h = delete_edges(g, [0])
    assert h.vertices == g.vertices and h.pairs == g.pairs
    assert sorted(h.edge_by_id) == [1]


def test_hub_count_counts_degree_three_interiors():
    assert int(hub_count(grid_graph(2, 2))) == 8
    assert int(hub_count(_tiny())) == 0  # the interior vertex has degree 2


# ---------------------------------------------------------------------------
# Paths and path systems.
# ---------------------------------------------------------------------------


def _expect_path_error(code, g, steps):
    with pytest.raises(InvariantError) as err:
        path_vertices(g, Path(steps=tuple(steps)))
    assert err.value.code == code


def test_path_vertices_walks_the_edges():
    g = _tiny()
    assert path_vertices(g, Path(steps=((0, True), (1, True)))) == [0, 2, 1]


def test_path_validation_codes():
    g = _tiny()
    _expect_path_error("empty-path", g, [])
    _expect_path_error("unknown-edge", g, [(9, True)])
    _expect_path_error("directed-edge-reversed", g, [(0, False)])
    _expect_path_error("broken-path", g, [(0, True), (0, True)])


def test_path_revisiting_vertex_rejected():
    g = _net(
        [0, 1, 2, 3],
        [
            Edge(0, 0, 2, True),
            Edge(1, 2, 3, False),
            Edge(2, 2, 3, False),
            Edge(3, 3, 1, True),
        ],
        [Pair(0, 1, 1)],
    )
    _expect_path_error(
        "path-revisits-vertex", g, [(0, True), (1, True), (2, False), (1, True)]
    )


def test_make_path_system_validates_endpoints_and_disjointness():
    spec = grid_instance(2, 2)
    g, (phi, psi) = spec.network, spec.systems
    with pytest.raises(InvariantError) as err:
        make_path_system(g, 1, phi.paths)  # phi paths run S1 -> R1, not S2 -> R2
    assert err.value.code == "path-endpoint-mismatch"
    with pytest.raises(InvariantError) as err:
        make_path_system(g, 0, [phi.paths[0], phi.paths[0]])
    assert err.value.code in ("paths-not-disjoint", "edge-reused-within-system")


def _reuse_net():
    """A direct edge 0 -> 1 beside the two-hop route 0 -> 2 -> 1."""
    return _net(
        [0, 1, 2],
        [Edge(0, 0, 1, True), Edge(1, 0, 2, True), Edge(2, 2, 1, True)],
        [Pair(0, 1, 3)],
    )


def test_make_path_system_rejects_a_reused_direct_edge():
    # Paths that share only the direct edge share no interior vertex, so the
    # edge check is the one that fires.
    g = _reuse_net()
    direct = Path(((0, True),))
    for paths in ([direct, direct], [Path(((1, True), (2, True))), direct, direct]):
        with pytest.raises(InvariantError) as err:
            make_path_system(g, 0, paths)
        assert str(err.value) == "edge-reused-within-system: edge 0"


def _systems_to_rebuild():
    """Lattice systems up to 4x4, then systems of minimalized random networks."""
    for c1 in range(1, 5):
        for c2 in range(1, 5):
            spec = grid_instance(c1, c2)
            yield spec.network, list(spec.systems)
    rng = random.Random(15)
    for _ in range(30):
        demands = (rng.randint(1, 4), rng.randint(1, 4))
        g, _ = random_network(rng, demands, reuse=rng.uniform(0.3, 0.8), extra=rng.randint(0, 4))
        m = minimalize(g)
        yield m, [vertex_disjoint_paths(m, i, p.demand) for i, p in enumerate(m.pairs)]


def _system_answers(g, systems):
    """What classification, Theorem 1 and the representation make of ``systems``."""
    try:
        rep = to_representation(g, systems)
        rep_text = serialize_network(rep.graph, list(rep.systems))
        rep_out = (rep_text, [s.orientation for s in rep.systems])
    except InvariantError as exc:
        rep_out = str(exc)
    return classify_edges(g, systems), theorem1_agreement(g, systems), rep_out


def test_a_system_is_its_pair_and_paths():
    for g, systems in _systems_to_rebuild():
        assert hash(g) == hash((g.vertices, g.edges, g.pairs))
        rebuilt = [PathSystem(s.pair_index, s.paths) for s in systems]
        for s, r in zip(systems, rebuilt):
            assert r == s and hash(r) == hash(s) == hash((s.pair_index, s.paths))
            assert r.orientation == s.orientation
        assert _system_answers(g, rebuilt) == _system_answers(g, systems)


def test_classify_edges_tags_every_edge(example_instance):
    g, systems = example_instance
    tags = classify_edges(g, systems)
    assert set(tags) == set(g.edge_by_id)
    counts = {t: sum(1 for v in tags.values() if v == t) for t in set(tags.values())}
    assert counts == {"public": 4, "phi": 6, "psi": 6}


def test_classify_edges_requires_two_systems(example_instance):
    g, systems = example_instance
    with pytest.raises(InvariantError) as err:
        classify_edges(g, systems[:1])
    assert err.value.code == "two-systems-required"


# ---------------------------------------------------------------------------
# Serialization.
# ---------------------------------------------------------------------------


def test_example_file_is_canonical(example_text, example_instance):
    g, systems = example_instance
    assert serialize_network(g, systems) == example_text


def test_parse_serialize_round_trip(example_text):
    g, systems = parse_instance(example_text)
    again, systems2 = parse_instance(serialize_network(g, systems))
    assert again == g
    assert [s.paths for s in systems2] == [s.paths for s in systems]


def test_serialize_orders_edges_by_id():
    g = _net(
        [0, 1, 2],
        [Edge(7, 2, 1, True), Edge(3, 0, 2, True)],
        [Pair(0, 1, 1)],
    )
    obj = json.loads(serialize_network(g))
    assert [e["id"] for e in obj["edges"]] == [3, 7]


def _reference_text(g, systems=None):
    """The canonical text as the ``json`` module writes it."""
    obj = {
        "vertices": sorted(g.vertices),
        "edges": [
            {"id": e.id, "u": e.u, "v": e.v, "directed": e.directed}
            for e in sorted(g.edges, key=lambda e: e.id)
        ],
        "pairs": [{"source": p.source, "sink": p.sink, "demand": p.demand} for p in g.pairs],
    }
    if systems is not None:
        obj["systems"] = [
            [[{"edge": eid, "forward": fwd} for eid, fwd in path.steps] for path in system.paths]
            for system in systems
        ]
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# Zero, small, negative and wider than 64 bits.
_INT = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=2**64, max_value=2**80),
    st.integers(min_value=-(2**80), max_value=-(2**64)),
)


@st.composite
def _networks(draw):
    """Valid networks over arbitrary integer ids: possibly no vertices, no
    edges or no pairs, and with directed edges at one pair's terminals."""
    vertices = draw(st.lists(_INT, unique=True, max_size=7))
    pairs = []
    if len(vertices) >= 2 and draw(st.booleans()):
        demand = draw(st.one_of(st.integers(1, 3), _INT.filter(lambda d: d > 0)))
        pairs.append(Pair(vertices[0], vertices[1], demand))
    terminals = {t for p in pairs for t in (p.source, p.sink)}
    interior = [v for v in vertices if v not in terminals]
    two_interior = st.lists(st.sampled_from(interior), min_size=2, max_size=2, unique=True)
    edges = []
    for eid in draw(st.lists(_INT, unique=True, max_size=8)):
        kind = draw(st.sampled_from(["interior", "out", "in"] if pairs else ["interior"]))
        if kind == "interior":
            if len(interior) >= 2:
                u, v = draw(two_interior)
                edges.append(Edge(eid, u, v, False))
        elif kind == "out":
            head = draw(st.sampled_from(interior + [pairs[0].sink]))
            edges.append(Edge(eid, pairs[0].source, head, True))
        else:
            tail = draw(st.sampled_from(interior + [pairs[0].source]))
            edges.append(Edge(eid, tail, pairs[0].sink, True))
    return Network(vertices=tuple(vertices), edges=tuple(edges), pairs=tuple(pairs))


# Systems as the writer reads them (no validation): 1-3 paths each, and
# paths of 0-3 steps.
_SYSTEMS = st.one_of(
    st.none(),
    st.lists(
        st.lists(
            st.lists(st.tuples(_INT, st.booleans()), max_size=3).map(lambda s: Path(tuple(s))),
            min_size=1,
            max_size=3,
        ),
        max_size=3,
    ).map(lambda raw: [PathSystem(i, tuple(paths)) for i, paths in enumerate(raw)]),
)


@settings(max_examples=200, deadline=None)
@given(g=_networks(), systems=_SYSTEMS)
def test_serialize_matches_the_json_module(g, systems):
    assert serialize_network(g, systems) == _reference_text(g, systems)


def test_serialize_matches_the_json_module_on_the_families(example_instance):
    g, systems = example_instance
    cases = [(g, systems), (g, None), (reroutable_witness(), None)]
    specs = [grid_instance(c1, c2) for c1 in range(1, 5) for c2 in range(1, 5)]
    specs += [ones_instance(2, 3, 2), ones_instance(3, 3, 1), witness_222_instance()]
    cases += [(spec.network, list(spec.systems)) for spec in specs]
    cases += [(spec.network, None) for spec in specs]
    for seed in range(20):
        demands = [1 + seed % 3, 1 + seed % 4, 2][: 2 + seed % 2]
        g, systems = random_network(seed, demands, extra=seed % 5)
        cases += [(g, systems), (g, None)]
    for g, systems in cases:
        assert serialize_network(g, systems) == _reference_text(g, systems)


_DROP = object()
_VALID = {
    "vertices": [0, 1, 2],
    "edges": [
        {"id": 0, "u": 0, "v": 2, "directed": True},
        {"id": 1, "u": 2, "v": 1, "directed": True},
    ],
    "pairs": [{"source": 0, "sink": 1, "demand": 1}],
    "systems": [[[{"edge": 0, "forward": True}, {"edge": 1, "forward": True}]]],
}
_AT_EDGE, _AT_PAIR, _AT_STEP = ("edges", 0), ("pairs", 0), ("systems", 0, 0, 0)

# Edits of ``_VALID`` (a path of keys, and the new value or _DROP) and the
# full error text each one gives, as the parser has always worded it.
_MALFORMED = [
    ([(("vertices",), _DROP)], "vertices: missing key 'vertices'"),
    ([(("vertices",), 3)], "vertices: must be a list"),
    ([(("vertices", 1), True)], "vertices[1]: expected integer, got True"),
    ([(("vertices", 2), "2")], "vertices[2]: expected integer, got '2'"),
    ([(("vertices", 1), 1.0)], "vertices[1]: expected integer, got 1.0"),
    ([(("edges",), _DROP)], "edges: missing key 'edges'"),
    ([(("edges",), {"id": 0})], "edges: must be a list"),
    ([(("edges", 1), [1, 2])], "edges[1]: must be an object"),
    ([(_AT_EDGE + ("id",), _DROP)], "edges[0]: missing key 'id'"),
    ([(_AT_EDGE + ("id",), True)], "edges[0].id: expected integer, got True"),
    ([(_AT_EDGE + ("u",), _DROP)], "edges[0]: missing key 'u'"),
    ([(_AT_EDGE + ("u",), 0.5)], "edges[0].u: expected integer, got 0.5"),
    ([(_AT_EDGE + ("v",), _DROP)], "edges[0]: missing key 'v'"),
    ([(_AT_EDGE + ("v",), None)], "edges[0].v: expected integer, got None"),
    ([(_AT_EDGE + ("directed",), _DROP)], "edges[0]: missing key 'directed'"),
    ([(_AT_EDGE + ("directed",), 1)], "edges[0].directed: expected boolean, got 1"),
    ([(_AT_EDGE + ("directed",), "yes")], "edges[0].directed: expected boolean, got 'yes'"),
    ([(("pairs",), _DROP)], "pairs: missing key 'pairs'"),
    ([(("pairs",), None)], "pairs: must be a list"),
    ([(("pairs", 0), [0, 1, 1])], "pairs[0]: must be an object"),
    ([(_AT_PAIR + ("source",), _DROP)], "pairs[0]: missing key 'source'"),
    ([(_AT_PAIR + ("source",), False)], "pairs[0].source: expected integer, got False"),
    ([(_AT_PAIR + ("sink",), _DROP)], "pairs[0]: missing key 'sink'"),
    ([(_AT_PAIR + ("sink",), "1")], "pairs[0].sink: expected integer, got '1'"),
    ([(_AT_PAIR + ("demand",), _DROP)], "pairs[0]: missing key 'demand'"),
    ([(_AT_PAIR + ("demand",), True)], "pairs[0].demand: expected integer, got True"),
    ([(_AT_PAIR + ("demand",), 1.0)], "pairs[0].demand: expected integer, got 1.0"),
    ([(("vertices", 2), 1)], "network: duplicate-vertex: vertex 1"),
    ([(_AT_PAIR + ("sink",), 9)], "network: unknown-vertex: pair 0 terminal 9"),
    ([(_AT_PAIR + ("demand",), 0)], "network: nonpositive-demand: pair 0"),
    ([(("systems",), {"a": 1})], "systems: must be a list"),
    ([(("systems", 0), 3)], "systems[0]: must be a list of paths"),
    ([(("systems", 0, 0), 5)], "systems[0][0]: must be a list of steps"),
    ([(("systems", 0, 0, 1), [7])], "systems[0][0][1]: must be an object"),
    ([(_AT_STEP + ("edge",), _DROP)], "systems[0][0][0]: missing key 'edge'"),
    ([(_AT_STEP + ("edge",), True)], "systems[0][0][0].edge: expected integer, got True"),
    ([(_AT_STEP + ("forward",), _DROP)], "systems[0][0][0]: missing key 'forward'"),
    ([(_AT_STEP + ("forward",), 0)], "systems[0][0][0].forward: expected boolean, got 0"),
    ([(("systems",), _VALID["systems"] * 2)], "systems[1]: more systems than pairs"),
    ([(("systems", 0), [])], "systems[0]: 0 paths, but pair 0 has demand 1"),
    ([(("systems",), [])], "systems: 0 systems for 1 pairs"),
    ([(_AT_STEP + ("edge",), 9999)], "systems[0]: unknown-edge: edge 9999"),
    ([(_AT_STEP + ("forward",), False)], "systems[0]: directed-edge-reversed: edge 0"),
    ([(_AT_PAIR + ("demand",), 2)], "systems[0]: 1 paths, but pair 0 has demand 2"),
    # Precedence: a bad field is reported before a later missing one.
    ([(("vertices", 0), None), (("edges",), _DROP)], "vertices[0]: expected integer, got None"),
    ([(("edges",), 3), (("pairs",), _DROP)], "edges: must be a list"),
    (
        [(_AT_EDGE + ("id",), False), (_AT_EDGE + ("u",), _DROP)],
        "edges[0].id: expected integer, got False",
    ),
    (
        [(_AT_EDGE + ("u",), None), (_AT_EDGE + ("v",), _DROP)],
        "edges[0].u: expected integer, got None",
    ),
    (
        [(_AT_EDGE + ("v",), None), (_AT_EDGE + ("directed",), _DROP)],
        "edges[0].v: expected integer, got None",
    ),
    (
        [(_AT_PAIR + ("source",), None), (_AT_PAIR + ("sink",), _DROP)],
        "pairs[0].source: expected integer, got None",
    ),
    (
        [(_AT_PAIR + ("sink",), None), (_AT_PAIR + ("demand",), _DROP)],
        "pairs[0].sink: expected integer, got None",
    ),
    (
        [(_AT_STEP + ("edge",), None), (_AT_STEP + ("forward",), _DROP)],
        "systems[0][0][0].edge: expected integer, got None",
    ),
    ([(_AT_PAIR + ("demand",), 0), (("systems",), 3)], "network: nonpositive-demand: pair 0"),
]


def _edited(edits) -> str:
    obj = copy.deepcopy(_VALID)
    for path, value in edits:
        box = obj
        for key in path[:-1]:
            box = box[key]
        if value is _DROP:
            del box[path[-1]]
        else:
            box[path[-1]] = value
    return json.dumps(obj)


@pytest.mark.parametrize("edits, message", _MALFORMED)
def test_malformed_instances_keep_their_error_text(edits, message):
    with pytest.raises(ParseError) as err:
        parse_instance(_edited(edits))
    assert str(err.value) == message


def test_malformed_json_keeps_its_error_text():
    cases = {
        "{nope": "json: Expecting property name enclosed in double quotes: "
        "line 1 column 2 (char 1)",
        "": "json: Expecting value: line 1 column 1 (char 0)",
        "[1, 2]": "json: top level must be an object",
        '"text"': "json: top level must be an object",
    }
    for text, message in cases.items():
        with pytest.raises(ParseError) as err:
            parse_instance(text)
        assert str(err.value) == message
    g, systems = parse_instance(_edited([]))
    assert len(g.edges) == 2 and len(systems) == 1
    assert parse_instance(_edited([(("systems",), None)]))[1] is None


def _expect_parse_error(where, text):
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert err.value.where == where


def test_parse_error_locations():
    _expect_parse_error("json", "{nope")
    _expect_parse_error("json", "[1, 2]")
    _expect_parse_error("vertices", '{"edges": [], "pairs": []}')
    _expect_parse_error("vertices[0]", '{"vertices": [true], "edges": [], "pairs": []}')
    _expect_parse_error(
        "edges[0]", '{"vertices": [0, 1], "edges": [{"id": 0}], "pairs": []}'
    )
    _expect_parse_error(
        "edges[0].directed",
        '{"vertices": [0, 1], "edges": [{"id": 0, "u": 0, "v": 1, "directed": 1}],'
        ' "pairs": []}',
    )
    _expect_parse_error(
        "pairs[0].demand",
        '{"vertices": [0, 1], "edges": [], '
        '"pairs": [{"source": 0, "sink": 1, "demand": "2"}]}',
    )


def test_parse_rejects_more_systems_than_pairs():
    text = json.dumps(
        {
            "vertices": [0, 1, 2],
            "edges": [
                {"id": 0, "u": 0, "v": 2, "directed": True},
                {"id": 1, "u": 2, "v": 1, "directed": True},
            ],
            "pairs": [{"source": 0, "sink": 1, "demand": 1}],
            "systems": [
                [[{"edge": 0, "forward": True}, {"edge": 1, "forward": True}]],
                [[{"edge": 0, "forward": True}, {"edge": 1, "forward": True}]],
            ],
        }
    )
    _expect_parse_error("systems[1]", text)


def test_parse_rejects_systems_that_miss_the_demand(example_text):
    obj = json.loads(example_text)
    obj["systems"][1].pop()
    _expect_parse_error("systems[1]", json.dumps(obj))
    obj = json.loads(example_text)
    obj["systems"][1].append(obj["systems"][1][0])
    _expect_parse_error("systems[1]", json.dumps(obj))
    obj = json.loads(example_text)
    obj["systems"] = obj["systems"][:1]
    _expect_parse_error("systems", json.dumps(obj))


def test_parse_reports_invalid_paths_as_parse_errors(example_text):
    obj = json.loads(example_text)
    obj["systems"][0][1][0]["edge"] = 9999
    with pytest.raises(ParseError) as err:
        parse_instance(json.dumps(obj))
    assert err.value.where == "systems[0]"
    assert "unknown-edge" in str(err.value)
    assert isinstance(err.value.__cause__, InvariantError)


def test_parse_reports_network_invariants_as_parse_errors(example_text):
    obj = json.loads(example_text)
    obj["vertices"].append(obj["vertices"][0])
    with pytest.raises(ParseError) as err:
        parse_instance(json.dumps(obj))
    assert err.value.where == "network"
    assert err.value.__cause__.code == "duplicate-vertex"


def test_parse_network_ignores_but_validates_systems(example_text):
    g = parse_network(example_text)
    assert len(g.edges) == 16 and len(g.vertices) == 12


def test_export_dot_marks_tags_and_directions(example_instance):
    g, systems = example_instance
    dot = export_dot(g, systems)
    assert dot.startswith("digraph network {")
    assert "style=bold" in dot and "style=dashed" in dot
    assert "dir=none" in dot
    assert "shape=box" in dot and "shape=circle" in dot
    plain = export_dot(g)
    assert "style=bold" not in plain


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    d1=st.integers(min_value=1, max_value=3),
    d2=st.integers(min_value=1, max_value=3),
    extra=st.integers(min_value=0, max_value=3),
)
def test_round_trip_on_random_networks(seed, d1, d2, extra):
    g, systems = random_network(seed, (d1, d2), extra=extra)
    text = serialize_network(g, systems)
    h, systems2 = parse_instance(text)
    assert h == g
    assert serialize_network(h, systems2) == text


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_vertex_order_does_not_change_canonical_form(seed):
    g, _ = random_network(seed, (2, 2))
    shuffled = list(g.vertices)
    random.Random(seed).shuffle(shuffled)
    h = Network(vertices=tuple(shuffled), edges=g.edges, pairs=g.pairs)
    assert serialize_network(h) == serialize_network(g)


# ---------------------------------------------------------------------------
# Fuzzing the input boundary: whatever the text, only ParseError escapes.
# ---------------------------------------------------------------------------

_ODD = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-2, max_value=9),
    st.floats(allow_nan=False),
    st.text(max_size=2),
    st.lists(st.integers(min_value=0, max_value=3), max_size=2),
    st.dictionaries(st.sampled_from(["id", "edge"]), st.integers(0, 3), max_size=1),
)
# Mostly plausible small ids, sometimes a value of the wrong kind.
_ID = st.one_of(st.integers(min_value=0, max_value=7), _ODD)
_FLAG = st.one_of(st.booleans(), _ODD)


def _record(fields):
    """An object with these fields, some possibly missing, or a stray value."""
    return st.one_of(
        st.fixed_dictionaries(fields),
        st.fixed_dictionaries({}, optional=fields),
        _ODD,
    )


_STEP = _record({"edge": _ID, "forward": _FLAG})
_INSTANCE = st.fixed_dictionaries(
    {
        "vertices": st.one_of(st.lists(_ID, max_size=8), _ODD),
        "edges": st.lists(
            _record({"id": _ID, "u": _ID, "v": _ID, "directed": _FLAG}), max_size=10
        ),
        "pairs": st.lists(_record({"source": _ID, "sink": _ID, "demand": _ID}), max_size=3),
    },
    optional={
        "systems": st.one_of(
            st.lists(st.lists(st.lists(_STEP, max_size=4), max_size=3), max_size=3), _ODD
        )
    },
)


def _locations(obj, out):
    """Every (container, key) slot in a parsed JSON value."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in items:
        out.append((obj, key))
        if isinstance(value, (dict, list)):
            _locations(value, out)
    return out


@settings(max_examples=150, deadline=None)
@given(
    text=st.one_of(
        _INSTANCE.map(json.dumps), st.text(max_size=30), _ODD.map(json.dumps)
    )
)
@example(text=DEEP_NESTING)
@example(text=LONG_INTEGER)
def test_parse_instance_raises_only_parse_errors(text):
    try:
        parse_instance(text)
    except ParseError:
        pass


@settings(max_examples=150, deadline=None)
@given(
    edits=st.lists(
        st.tuples(st.integers(min_value=0), st.one_of(st.just("drop"), _ID)),
        min_size=1,
        max_size=3,
    )
)
def test_parse_instance_rejects_edited_examples_with_parse_errors(example_text, edits):
    # Edits of a valid instance reach the network and system validation.
    obj = json.loads(example_text)
    for pick, value in edits:
        slots = _locations(obj, [])
        container, key = slots[pick % len(slots)]
        if value == "drop":
            del container[key]
        else:
            container[key] = value
    try:
        parse_instance(json.dumps(obj))
    except ParseError:
        pass
