"""The benchmark's tracer finds every library name it wraps.

``perfbench/spans.py`` looks up each function of its ``TARGETS`` table by
name, in its defining module and in every hubmin module that imported it,
so a name the library drops or renames breaks every traced benchmark run.
The file is loaded here by path, as it stands, so these tests catch that
with the library's own suite.
"""

from __future__ import annotations

import importlib
import importlib.util
import pathlib

SPANS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("hubmin_traced_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    spans = _load_spans()
    for module_name, attr, name, _ in spans.TARGETS:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            assert hasattr(owner, part), f"{name}: {module_name}.{attr} is gone"
            owner = getattr(owner, part)
        assert callable(owner), name
    # The tracer's own lookup finds each name, methods in their class's own
    # namespace, and wraps from-imported names where callers look them up.
    found = spans.targets()
    assert {t[3] for t in found} == {t[2] for t in spans.TARGETS}
    owners = {(getattr(owner, "__name__", owner), attr) for owner, attr, *_ in found}
    assert ("hubmin.minimality", "in_class") in owners
    assert ("hubmin.oracle", "min_vertex_cut") in owners
    assert ("FlowNet", "_bfs_parent") in owners
