"""Seeded random instance generation."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hubmin import (
    in_class,
    min_vertex_cut,
    path_vertices,
    random_network,
    serialize_network,
)


def test_demands_are_met_with_valid_systems():
    g, systems = random_network(42, (2, 3, 1))
    assert [p.demand for p in g.pairs] == [2, 3, 1]
    assert in_class(g)
    for i, system in enumerate(systems):
        assert system.pair_index == i
        assert len(system.paths) == g.pairs[i].demand
        for p in system.paths:
            seq = path_vertices(g, p)
            assert seq[0] == g.pairs[i].source and seq[-1] == g.pairs[i].sink


def test_terminals_use_the_fixed_layout():
    g, _ = random_network(0, (1, 1, 1))
    assert [(p.source, p.sink) for p in g.pairs] == [(0, 1), (2, 3), (4, 5)]


def test_same_seed_reproduces_the_instance():
    a, _ = random_network(7, (2, 2), extra=2)
    b, _ = random_network(7, (2, 2), extra=2)
    assert serialize_network(a) == serialize_network(b)


def test_rng_instance_is_accepted_and_consumed():
    rng = random.Random(7)
    a, _ = random_network(rng, (2, 2))
    b, _ = random_network(rng, (2, 2))  # the stream moved on
    assert serialize_network(a) == serialize_network(random_network(7, (2, 2))[0])
    assert serialize_network(a) != serialize_network(b)


def test_extra_edges_do_not_change_membership():
    base, _ = random_network(11, (2, 2), extra=0)
    bigger, _ = random_network(11, (2, 2), extra=4)
    assert in_class(bigger)
    assert len(bigger.edges) >= len(base.edges)


def test_rejects_bad_demands():
    with pytest.raises(ValueError):
        random_network(1, ())
    with pytest.raises(ValueError):
        random_network(1, (2, 0))


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=100_000),
    demands=st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=3),
    extra=st.integers(min_value=0, max_value=3),
    reuse=st.floats(min_value=0.0, max_value=1.0),
)
def test_generated_networks_are_always_in_class(seed, demands, extra, reuse):
    g, systems = random_network(seed, demands, reuse=reuse, extra=extra)
    for i, pair in enumerate(g.pairs):
        assert min_vertex_cut(g, i).value == pair.demand
        assert len(systems[i].paths) == pair.demand
