"""The frozen value records: slotted, immutable, and copied like plain values.

Every record but two is a ``@dataclass(frozen=True, slots=True)``: it has no
instance ``__dict__`` and compares, hashes, prints, pickles and copies as a
frozen dataclass does.  ``Network`` keeps its ``__dict__`` so it accepts a
weakref on Python 3.10, and ``Representation`` so it can cache its
decomposition.
"""

from __future__ import annotations

import collections.abc
import copy
import dataclasses
import pickle
import weakref

import pytest

from hubmin import (
    ConsistentCycle,
    InterconnectRun,
    decompose_private,
    grid_graph,
    grid_instance,
    min_hub_subgraph,
    min_vertex_cut,
    run_interconnect,
    theorem1_agreement,
    to_representation,
    verify_run,
)


def _records():
    """One record of every slotted kind, each as the library builds it."""
    spec = grid_instance(2, 2)
    g = spec.network
    rep = to_representation(g, spec.systems)
    run = run_interconnect(rep)
    return [
        g.edges[0],
        g.pairs[0],
        spec.systems[0].paths[0],
        spec.systems[0],
        decompose_private(rep)[0],
        min_vertex_cut(g, 0),
        ConsistentCycle(steps=((0, True), (1, False)), system_tag=0),
        theorem1_agreement(g, spec.systems),
        min_hub_subgraph(grid_graph(1, 1)),
        run,
        verify_run(rep, run),
        spec,
    ]


RECORDS = _records()


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_slotted_records_behave_as_frozen_values(record):
    cls = type(record)
    fields = dataclasses.fields(record)
    assert not hasattr(record, "__dict__")
    assert cls.__slots__ == tuple(f.name for f in fields)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, fields[0].name, getattr(record, fields[0].name))

    # ==, hash and repr read the fields as the generated methods do.
    values = {f.name: getattr(record, f.name) for f in fields if f.init}
    assert cls(**values) == record
    shown = ", ".join(f"{f.name}={getattr(record, f.name)!r}" for f in fields if f.repr)
    assert repr(record) == f"{cls.__name__}({shown})"
    key = tuple(getattr(record, f.name) for f in fields if f.compare)
    if cls is InterconnectRun:
        # Its trace holds dicts, so it declares itself unhashable.
        with pytest.raises(TypeError, match="unhashable type: 'InterconnectRun'"):
            hash(record)
        assert not isinstance(record, collections.abc.Hashable)
    else:
        assert hash(record) == hash(key)

    # Copies are equal, and carry the derived slots too.
    for twin in (
        pickle.loads(pickle.dumps(record)),
        copy.deepcopy(record),
        dataclasses.replace(record),
    ):
        assert type(twin) is cls and twin == record
        for f in fields:
            assert getattr(twin, f.name) == getattr(record, f.name)


def test_the_path_system_derives_its_orientation_slot():
    system = grid_instance(2, 2).systems[0]
    assert system.orientation == {
        eid: fwd for path in system.paths for eid, fwd in path.steps
    }
    assert "orientation=" not in repr(system)
    other = dataclasses.replace(system, paths=system.paths[:1])
    assert other.orientation == dict(system.paths[0].steps)


def test_network_and_representation_keep_their_dict():
    spec = grid_instance(2, 2)
    g = spec.network
    assert weakref.ref(g)() is g
    rep = to_representation(g, spec.systems)
    alt = decompose_private(rep)
    assert "_decomposition" in vars(rep)
    assert rep._decomposition is rep._decomposition
    assert decompose_private(rep) == alt
