"""Generator families and the demand-signature hub bounds."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hubmin import (
    finiteness_bound,
    grid_graph,
    grid_instance,
    hub_count,
    in_class,
    is_minimal,
    make_path_system,
    min_vertex_cut,
    ones_graph,
    ones_instance,
    reroutable_witness,
    signature_bound,
    witness_222,
    witness_222_instance,
)


# ---------------------------------------------------------------------------
# Lattice family.
# ---------------------------------------------------------------------------


def test_grid_hub_count_is_twice_the_product():
    for c1 in (1, 2, 3):
        for c2 in (1, 2, 3):
            g = grid_graph(c1, c2)
            assert int(hub_count(g)) == 2 * c1 * c2
            assert in_class(g)


def test_grid_is_minimal():
    for c1, c2 in ((1, 1), (2, 2), (2, 3)):
        assert is_minimal(grid_graph(c1, c2))


def test_grid_instance_carries_valid_systems():
    spec = grid_instance(3, 2)
    g = spec.network
    assert g == grid_graph(3, 2)
    assert len(spec.systems) == 2
    for i, system in enumerate(spec.systems):
        assert len(system.paths) == g.pairs[i].demand
        # Revalidation from raw paths must succeed.
        make_path_system(g, i, system.paths)


def test_grid_rejects_bad_parameters():
    with pytest.raises(ValueError):
        grid_graph(0, 2)


# ---------------------------------------------------------------------------
# Unit-demand extension family.
# ---------------------------------------------------------------------------


def test_ones_graph_hub_counts():
    for c1 in (1, 2, 3):
        for c2 in (1, 2, 3):
            for n in (0, 1, 2):
                g = ones_graph(c1, c2, n)
                assert int(hub_count(g)) == 2 * (c1 * c2 + n)
                assert in_class(g)
                assert len(g.pairs) == 2 + n
                demands = [p.demand for p in g.pairs]
                assert demands == [c1, c2] + [1] * n


def test_ones_graph_without_units_is_the_grid():
    for c1, c2 in ((1, 1), (2, 2), (2, 3), (3, 2)):
        assert ones_graph(c1, c2, 0) == grid_graph(c1, c2)


def test_ones_and_witness_instances_carry_valid_systems():
    for spec, g in (
        (ones_instance(2, 3, 2), ones_graph(2, 3, 2)),
        (witness_222_instance(), witness_222()),
    ):
        assert spec.network == g
        assert len(spec.systems) == len(g.pairs)
        for i, system in enumerate(spec.systems):
            assert len(system.paths) == g.pairs[i].demand
            make_path_system(g, i, system.paths)


def test_lattice_systems_share_one_step_per_edge():
    # A public edge's step is one tuple, held by a path of each system.
    for spec in (grid_instance(3, 4), ones_instance(2, 3, 2), witness_222_instance()):
        first: dict = {}
        for system in spec.systems:
            for path in system.paths:
                for step in path.steps:
                    assert first.setdefault(step[0], step) is step
        public = spec.systems[0].edge_ids() & spec.systems[1].edge_ids()
        assert len(public) == spec.network.pairs[0].demand * spec.network.pairs[1].demand


def test_ones_graph_is_minimal():
    for c1, c2, n in ((2, 2, 1), (2, 2, 2), (3, 2, 1), (2, 3, 2)):
        assert is_minimal(ones_graph(c1, c2, n))


# ---------------------------------------------------------------------------
# Hand-built witnesses.
# ---------------------------------------------------------------------------


def test_witness_222_shape():
    g = witness_222()
    assert [p.demand for p in g.pairs] == [2, 2, 2]
    assert int(hub_count(g)) == 12
    assert in_class(g)
    assert is_minimal(g)


def test_reroutable_witness_shape():
    g = reroutable_witness()
    assert len(g.pairs) == 3
    assert in_class(g)
    assert is_minimal(g)
    for i, pair in enumerate(g.pairs):
        assert min_vertex_cut(g, i).value == pair.demand


# ---------------------------------------------------------------------------
# Bound calculators.
# ---------------------------------------------------------------------------


def test_finiteness_bound_frozen_values():
    assert finiteness_bound([2]) == 0
    assert finiteness_bound([2, 2]) == 8
    assert finiteness_bound([3, 4]) == 24
    assert finiteness_bound([2, 2, 2]) == 312


def test_finiteness_bound_one_and_two_pairs():
    for c in range(1, 11):
        assert finiteness_bound([c]) == 0
    for c1 in range(1, 11):
        for c2 in range(1, 11):
            assert finiteness_bound([c1, c2]) == 2 * c1 * c2


def test_finiteness_bound_rejects_bad_demands():
    with pytest.raises(ValueError):
        finiteness_bound([])
    with pytest.raises(ValueError):
        finiteness_bound([2, 0])


def test_signature_bound_dispatch():
    assert signature_bound([5]) == 0
    assert signature_bound([3, 4]) == 24
    assert signature_bound([2, 2, 2]) == 12
    assert signature_bound([3, 3, 1, 1]) == 22
    assert signature_bound([1, 3, 3]) == 2 * (3 * 3 + 1)
    # Signatures without a sharper form fall back to the recursion.
    assert signature_bound([2, 2, 3]) == finiteness_bound([2, 2, 3])


def test_signature_bound_never_exceeds_finiteness_bound():
    for demands in ([2, 2], [2, 2, 2], [3, 3, 1, 1], [2, 3, 1], [4, 2, 1, 1]):
        assert signature_bound(demands) <= finiteness_bound(demands)


@settings(max_examples=60, deadline=None)
@given(
    demands=st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=4)
)
def test_bound_recursion_properties(demands):
    value = finiteness_bound(demands)
    assert isinstance(value, int) and value >= 0
    if len(demands) == 1:
        assert value == 0
    else:
        assert value >= 2 * demands[0] * demands[1] or len(demands) == 2
    # Appending a demand never lowers the bound below the old one.
    assert finiteness_bound(demands + [1]) >= value
    assert signature_bound(demands) <= value


@settings(max_examples=30, deadline=None)
@given(
    c1=st.integers(min_value=1, max_value=6),
    c2=st.integers(min_value=1, max_value=6),
    n=st.integers(min_value=0, max_value=5),
)
def test_unit_extension_signature(c1, c2, n):
    demands = [c1, c2] + [1] * n
    expected = 2 * (c1 * c2 + n)
    if sorted(demands) == [2, 2, 2]:
        expected = 12  # the triple-2 signature has its own sharp value
    assert signature_bound(demands) == expected
