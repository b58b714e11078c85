"""Network model, validation codes, path machinery, and JSON round-trips."""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hubmin import (
    Edge,
    InvariantError,
    Network,
    Pair,
    ParseError,
    Path,
    classify_edges,
    delete_edges,
    export_dot,
    grid_graph,
    grid_instance,
    hub_count,
    make_path_system,
    parse_instance,
    parse_network,
    path_vertices,
    random_network,
    serialize_network,
)


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
