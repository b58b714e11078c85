"""Minimum hub counts in multi-pair flow networks.

A hub is a non-terminal vertex of degree at least three.  This package
answers how few hubs a network can have while carrying given numbers of
vertex-disjoint paths between terminal pairs: exact machinery for two pairs
(minimality, canonical representations, alternating paths, interconnecting
paths), explicit bounds and extremal generators beyond two pairs, and
brute-force oracles to check everything on small instances.
"""

from .cuts import CutResult, in_class, min_vertex_cut, vertex_disjoint_paths
from .extremal import (
    GridSpec,
    finiteness_bound,
    grid_graph,
    grid_instance,
    ones_graph,
    ones_instance,
    reroutable_witness,
    signature_bound,
    witness_222,
    witness_222_instance,
)
from .graph_core import (
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
    hub_count,
    make_path_system,
    parse_instance,
    parse_network,
    path_vertices,
    serialize_network,
)
from .interconnect import InterconnectRun, VerifyReport, run_interconnect, verify_run
from .minimality import (
    ConsistentCycle,
    Theorem1Report,
    deletable_private_edges,
    find_consistent_cycle,
    is_minimal,
    is_reroutable,
    minimalize,
    theorem1_agreement,
)
from .oracle import OracleReport, check_bound, enumerate_path_systems, min_hub_subgraph
from .random_graphs import random_network
from .representation import (
    AlternatingPath,
    Representation,
    decompose_private,
    match_directions,
    remove_relays,
    stretch_crossings,
    to_representation,
)

__version__ = "0.1.0"

__all__ = [
    "AlternatingPath",
    "ConsistentCycle",
    "CutResult",
    "Edge",
    "GridSpec",
    "InterconnectRun",
    "InvariantError",
    "Network",
    "OracleReport",
    "Pair",
    "ParseError",
    "Path",
    "PathSystem",
    "Representation",
    "Theorem1Report",
    "VerifyReport",
    "check_bound",
    "classify_edges",
    "decompose_private",
    "delete_edges",
    "deletable_private_edges",
    "enumerate_path_systems",
    "export_dot",
    "find_consistent_cycle",
    "finiteness_bound",
    "grid_graph",
    "grid_instance",
    "hub_count",
    "in_class",
    "is_minimal",
    "is_reroutable",
    "make_path_system",
    "match_directions",
    "min_hub_subgraph",
    "min_vertex_cut",
    "minimalize",
    "ones_graph",
    "ones_instance",
    "parse_instance",
    "parse_network",
    "path_vertices",
    "random_network",
    "remove_relays",
    "reroutable_witness",
    "run_interconnect",
    "serialize_network",
    "signature_bound",
    "stretch_crossings",
    "theorem1_agreement",
    "to_representation",
    "verify_run",
    "vertex_disjoint_paths",
    "witness_222",
    "witness_222_instance",
]
