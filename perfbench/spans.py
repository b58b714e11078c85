"""Span tracing of hubmin's layers from outside the library.

``Tracer`` wraps the public functions listed in ``TARGETS`` for the length
of each ``with`` block.  A wrapper is installed on every attribute a caller
looks up: the defining module, every hubmin module that imported the name
with ``from ... import``, and the class for methods.  Each call records one
span ``(name, start, end, parent, item, value)`` in memory; ``value`` is a
per-function observation (arcs in the net, whether a search found a path,
...).  Leaving a block puts every original attribute back.

``layer_metrics`` turns the spans into the per-layer metrics.  A span's
self time is its duration minus the durations of its direct children; item
time that no top-level span covers is reported as ``trace.uncovered_s``.
"""

from __future__ import annotations

import gzip
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

Span = Tuple[str, float, float, int, int, Any]

# (defining module, attribute, span name, value recorded from (args, result)).
# A dotted attribute names a method; its wrapper is installed on the class.
TARGETS: Sequence[Tuple[str, str, str, Optional[Callable]]] = (
    ("hubmin._flownet", "FlowNet.max_flow", "flownet.max_flow", lambda a, r: len(a[0].to)),
    ("hubmin._flownet", "FlowNet._bfs_parent", "flownet.bfs", lambda a, r: r is not None),
    ("hubmin._flownet", "FlowNet.residual_reachable", "flownet.residual", None),
    ("hubmin._flownet", "FlowNet.residual_path", "flownet.residual", None),
    ("hubmin._flownet", "strongly_connected_components", "flownet.scc", None),
    ("hubmin.cuts", "_build_pair_net", "cuts.build_pair_net", None),
    ("hubmin.cuts", "min_vertex_cut", "cuts.min_vertex_cut", None),
    ("hubmin.cuts", "vertex_disjoint_paths", "cuts.vertex_disjoint_paths", None),
    ("hubmin.cuts", "in_class", "cuts.in_class", lambda a, r: bool(r)),
    ("hubmin.graph_core", "Network.__post_init__", "graph_core.network_init", None),
    ("hubmin.graph_core", "delete_edges", "graph_core.delete_edges", None),
    ("hubmin.graph_core", "make_path_system", "graph_core.make_path_system", None),
    ("hubmin.graph_core", "parse_instance", "graph_core.parse_instance", lambda a, r: len(a[0])),
    ("hubmin.graph_core", "serialize_network", "graph_core.serialize_network", lambda a, r: len(r)),
    (
        "hubmin.minimality",
        "minimalize",
        "minimality.minimalize",
        lambda a, r: (len(a[0].edges), len(r.edges)),
    ),
    ("hubmin.minimality", "is_minimal", "minimality.is_minimal", None),
    ("hubmin.minimality", "is_reroutable", "minimality.is_reroutable", None),
    ("hubmin.minimality", "find_consistent_cycle", "minimality.find_consistent_cycle", None),
    ("hubmin.representation", "to_representation", "representation.to_representation", None),
    ("hubmin.representation", "remove_relays", "representation.remove_relays", None),
    ("hubmin.representation", "stretch_crossings", "representation.stretch_crossings", None),
    ("hubmin.representation", "match_directions", "representation.match_directions", None),
    ("hubmin.representation", "decompose_private", "representation.decompose_private", None),
    (
        "hubmin.interconnect",
        "run_interconnect",
        "interconnect.run_interconnect",
        lambda a, r: len(r.trace),
    ),
    ("hubmin.interconnect", "verify_run", "interconnect.verify_run", None),
    ("hubmin.oracle", "min_hub_subgraph", "oracle.min_hub_subgraph", None),
)

# Span names whose self time is reported, and those whose calls are too.
SELF_TIMES = (
    "flownet.max_flow",
    "flownet.bfs",
    "flownet.residual",
    "flownet.scc",
    "cuts.build_pair_net",
    "cuts.min_vertex_cut",
    "cuts.vertex_disjoint_paths",
    "cuts.in_class",
    "graph_core.network_init",
    "graph_core.delete_edges",
    "graph_core.make_path_system",
    "graph_core.parse_instance",
    "graph_core.serialize_network",
    "minimality.minimalize",
    "minimality.is_minimal",
    "minimality.is_reroutable",
    "minimality.find_consistent_cycle",
    "representation.to_representation",
    "representation.remove_relays",
    "representation.stretch_crossings",
    "representation.match_directions",
    "representation.decompose_private",
    "interconnect.run_interconnect",
    "interconnect.verify_run",
    "oracle.min_hub_subgraph",
)
CALLS = frozenset(SELF_TIMES[:2] + SELF_TIMES[4:10])

# Every per-layer metric with its unit, in report order.
LAYER_METRICS: Dict[str, str] = {}
for _name in SELF_TIMES:
    if _name in CALLS:
        LAYER_METRICS[f"{_name}.calls"] = "count"
    LAYER_METRICS[f"{_name}.self_s"] = "s"
LAYER_METRICS.update(
    {
        "flownet.augment_ratio": "ratio",
        "flownet.arcs_built": "count",
        "cuts.in_class.true_ratio": "ratio",
        "graph_core.io_bytes": "bytes",
        "minimality.queries_per_edge": "queries/edge",
        "minimality.deletion_hit_ratio": "ratio",
        "interconnect.trace_steps": "count",
        "oracle.states_visited": "count",
        "oracle.cut_queries": "count",
        "trace.item_s": "s",
        "trace.uncovered_s": "s",
        "trace.overhead_ratio": "ratio",
    }
)


def targets() -> List[Tuple[object, str, Callable, str, Optional[Callable]]]:
    """Every (owner, attribute, original, span name, value) a tracer replaces."""
    modules = [m for n, m in sorted(sys.modules.items()) if n == "hubmin" or n.startswith("hubmin.")]
    found = []
    for module_name, attr, name, value in TARGETS:
        home = sys.modules[module_name]
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(home, cls_name)
            found.append((cls, method, cls.__dict__[method], name, value))
            continue
        original = getattr(home, attr)
        found += [(m, attr, original, name, value) for m in modules if m.__dict__.get(attr) is original]
    return found


class Tracer:
    """Installs span-recording wrappers for the length of each ``with`` block.

    The wrappers are made once; a tracer can be entered again and again, so
    a run can alternate traced and untraced executions.
    """

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self.item = -1
        self._stack: List[int] = []
        self._swaps = [
            (owner, attr, original, self._wrap(original, name, value))
            for owner, attr, original, name, value in targets()
        ]

    def _wrap(self, fn: Callable, name: str, value: Optional[Callable]) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                observed = value(args, result) if value is not None and result is not None else None
                spans[index] = (name, start, end, parent, self.item, observed)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def __enter__(self) -> "Tracer":
        for owner, attr, _, wrapper in self._swaps:
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original, _ in reversed(self._swaps):
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """Write the spans as gzip-compressed tab-separated lines."""
        origin = min((s[1] for s in self.spans if s is not None), default=0.0)
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write("name\tstart_s\tend_s\tparent\titem\tvalue\n")
            for name, start, end, parent, item, value in self.spans:
                out.write(f"{name}\t{start - origin:.9f}\t{end - origin:.9f}\t{parent}\t{item}\t{value}\n")


def layer_metrics(spans: Sequence[Span], item_s: float) -> Dict[str, float]:
    """Per-layer metrics from one traced pass whose items took ``item_s`` seconds."""
    calls: Counter = Counter()
    self_s: Dict[str, float] = defaultdict(float)
    child_s = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    top_s = 0.0
    for i, (name, start, end, parent, _, _) in enumerate(spans):
        calls[name] += 1
        self_s[name] += (end - start) - child_s[i]
        if parent < 0:
            top_s += end - start

    def parent_name(span: Span) -> Optional[str]:
        return spans[span[3]][0] if span[3] >= 0 else None

    # Ancestor flags, filled in index order: a parent precedes its children.
    under_oracle = [False] * len(spans)
    bfs_found = in_class_true = arcs = io_bytes = trace_steps = 0
    min_queries = min_edges = min_deleted = min_deletions = 0
    states = cut_queries = 0
    for i, span in enumerate(spans):
        name, _, _, parent, _, value = span
        if parent >= 0:
            under_oracle[i] = under_oracle[parent] or spans[parent][0] == "oracle.min_hub_subgraph"
        if name == "flownet.bfs":
            bfs_found += bool(value)
        elif name == "flownet.max_flow":
            arcs += value or 0
        elif name == "cuts.in_class":
            in_class_true += bool(value)
            min_queries += parent_name(span) == "minimality.minimalize"
        elif name in ("graph_core.parse_instance", "graph_core.serialize_network"):
            io_bytes += value or 0
        elif name == "interconnect.run_interconnect":
            trace_steps += value or 0
        elif name == "minimality.minimalize" and value is not None:
            min_edges += value[0]
            min_deleted += value[0] - value[1]
        if name == "graph_core.delete_edges":
            min_deletions += parent_name(span) == "minimality.minimalize"
            states += under_oracle[i]
        if name == "cuts.min_vertex_cut":
            cut_queries += under_oracle[i]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics: Dict[str, float] = {}
    for name in SELF_TIMES:
        if name in CALLS:
            metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.self_s"] = self_s[name]
    metrics.update(
        {
            "flownet.augment_ratio": ratio(bfs_found, calls["flownet.bfs"]),
            "flownet.arcs_built": arcs,
            "cuts.in_class.true_ratio": ratio(in_class_true, calls["cuts.in_class"]),
            "graph_core.io_bytes": io_bytes,
            "minimality.queries_per_edge": ratio(min_queries, min_edges),
            "minimality.deletion_hit_ratio": ratio(min_deleted, min_deletions),
            "interconnect.trace_steps": trace_steps,
            "oracle.states_visited": states,
            "oracle.cut_queries": cut_queries,
            "trace.item_s": item_s,
            "trace.uncovered_s": item_s - top_s,
        }
    )
    return metrics
