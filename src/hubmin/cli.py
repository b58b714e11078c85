"""Command-line interface.

Subcommands cover the library surface: generate known families, check class
membership and minimality, minimalize, build representations, run the
interconnecting-path construction, run the exhaustive oracle, and verify the
library's claim catalog.  All outputs are byte-deterministic given the same
inputs and seed (default seed: 7), except the ``elapsed:`` line of
``oracle``, which reports wall time.

Exit codes: 0 success, 1 invariant or check failure, 2 input/parse error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from . import acceptance
from .cuts import _full_systems, min_vertex_cut
from .extremal import (
    grid_instance,
    ones_instance,
    reroutable_witness,
    signature_bound,
    witness_222_instance,
)
from .graph_core import (
    InvariantError,
    ParseError,
    hub_count,
    parse_instance,
    serialize_network,
)
from .interconnect import run_interconnect, verify_run
from .minimality import is_minimal, minimalize, theorem1_agreement
from .oracle import MAX_FREE_EDGES, min_hub_subgraph
from .random_graphs import random_network
from .representation import S1S2, decompose_private, to_representation

DEFAULT_SEED = 7


def _read_instance(path: str):
    # Bytes from a file and from stdin decode alike, with no newline
    # translation, so the same input gives the same error positions.
    if path == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as fh:
            data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError("input", f"not UTF-8: {exc.reason} at byte {exc.start}") from exc
    return parse_instance(text)


def _write(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _ints(minimum: int, what: str, many: bool = False):
    """An argparse type: an integer of at least ``minimum`` or, with ``many``,
    a comma-separated list of one or more (empty items are skipped)."""

    def parse(text: str):
        try:
            values = [int(x) for x in (text.split(",") if many else [text]) if x]
        except ValueError:
            values = []
        if not values or min(values) < minimum:
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return values if many else values[0]

    return parse


def _cmd_generate(args) -> int:
    specs = {
        "grid": lambda: grid_instance(args.c1, args.c2),
        "ones": lambda: ones_instance(args.c1, args.c2, args.n),
        "witness222": witness_222_instance,
    }
    if args.family in specs:
        spec = specs[args.family]()
        g, systems = spec.network, list(spec.systems)
    elif args.family == "reroutable":
        g = reroutable_witness()
        systems = _full_systems(g)
    else:  # random
        g, systems = random_network(args.seed, args.demands, extra=args.extra)
    _write(args.output, serialize_network(g, systems))
    return 0


def _cmd_check(args) -> int:
    g, systems = _read_instance(args.input)
    # The full systems leave each pair's flow kept in cuts' slot, so the
    # network is compiled once and each cut reads the flow already run.
    full = _full_systems(g)
    lines = []
    member = True
    for i, pair in enumerate(g.pairs):
        value = min_vertex_cut(g, i).value
        mark = "==" if value == pair.demand else "!="
        if value != pair.demand:
            member = False
        lines.append(f"pair {i}: cut {value} {mark} demand {pair.demand}")
    lines.append(f"in class: {member}")
    lines.append(f"hubs: {hub_count(g)}")
    if member:
        if len(g.pairs) == 2:
            # The agreement report's deletion-minimality verdict is is_minimal's.
            report = theorem1_agreement(g, systems or full)
            lines.append(f"minimal: {report.minimal}")
            lines.append(
                "two-pair characterizations: "
                f"minimal={report.minimal} "
                f"non-reroutable={report.non_reroutable} "
                f"no-consistent-cycle={report.no_consistent_cycle} "
                f"agree={report.agree}"
            )
        else:
            lines.append(f"minimal: {is_minimal(g)}")
            lines.append(
                "two-pair characterizations: skipped "
                f"(the minimal/non-reroutable equivalence requires exactly two "
                f"pairs; this network has {len(g.pairs)})"
            )
    print("\n".join(lines))
    return 0 if member else 1


def _cmd_minimalize(args) -> int:
    g, _ = _read_instance(args.input)
    result = minimalize(g, seed=args.seed if args.shuffle else None)
    systems = _full_systems(result)
    _write(args.output, serialize_network(result, systems))
    print(
        f"edges {len(g.edges)} -> {len(result.edges)}, "
        f"hubs {hub_count(g)} -> {hub_count(result)}",
        file=sys.stderr,
    )
    return 0


def _cmd_represent(args) -> int:
    g, systems = _read_instance(args.input)
    rep = to_representation(g, systems)
    # Decompose first: a representation that fails the check writes nothing.
    alt = decompose_private(rep)
    _write(args.output, serialize_network(rep.graph, list(rep.systems)))
    delta = sum(1 for a in alt if a.kind == S1S2)
    print(f"hubs: {hub_count(rep.graph)}", file=sys.stderr)
    print(f"delta: {delta}", file=sys.stderr)
    for a in alt:
        print(
            f"{a.kind}: edges {list(a.steps)} upper {list(a.upper)} "
            f"lower {list(a.lower)} choke {a.choke}",
            file=sys.stderr,
        )
    return 0


def _cmd_interconnect(args) -> int:
    g, systems = _read_instance(args.input)
    rep = to_representation(g, systems)
    run = run_interconnect(rep, seed=args.seed if args.shuffle else None)
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            for event in run.trace:
                fh.write(json.dumps(event, sort_keys=True) + "\n")
    report = verify_run(rep, run)
    print(f"interconnecting paths: {len(run.paths)}")
    for p in run.paths:
        print(f"  {[eid for eid, _ in p.steps]}")
    for name in report.passed:
        print(f"check {name}: pass")
    for name in report.failures:
        print(f"check {name}: FAIL")
    return 0 if report.ok else 1


def _cmd_oracle(args) -> int:
    g, _ = _read_instance(args.input)
    if not g.pairs:
        raise ParseError("pairs", "the oracle needs at least one pair")
    report = min_hub_subgraph(g, max_free=args.max_edges)
    bound = signature_bound([p.demand for p in g.pairs])
    print(f"minimum hubs: {report.min_hubs}")
    print(f"bound for demands: {bound}")
    print(f"minimal subgraphs: {report.num_minimal_subgraphs}")
    print(f"elapsed: {report.elapsed:.3f}s")
    if args.output:
        _write(args.output, serialize_network(report.min_hub_subgraph))
    return 0 if report.min_hubs <= bound else 1


def _cmd_verify_all(args) -> int:
    results = acceptance.run_all(seed=args.seed)
    width = max(len(key) for key, _, _, _ in results)
    failures = 0
    for key, description, ok, detail in results:
        status = "pass" if ok else "FAIL"
        line = f"{key:<{width}}  {status}  {description}"
        if detail and not ok:
            line += f" ({detail})"
        print(line)
        if not ok:
            failures += 1
    print(f"{len(results) - failures}/{len(results)} claims verified")
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hubmin",
        description="Minimum hub counts in multi-pair flow networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit a known family instance as JSON")
    p.add_argument(
        "--family",
        required=True,
        choices=["grid", "ones", "witness222", "reroutable", "random"],
    )
    positive = _ints(1, "a positive integer")
    p.add_argument("--c1", type=positive, default=2)
    p.add_argument("--c2", type=positive, default=2)
    non_negative = _ints(0, "a non-negative integer")
    p.add_argument("--n", type=non_negative, default=1)
    demands = _ints(1, "a comma-separated list of positive integers", many=True)
    p.add_argument("--demands", type=demands, default="2,2", help="comma-separated, for random")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--extra", type=non_negative, default=0, help="extra interior edges (random)")
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("check", help="class membership, minimality, agreement")
    p.add_argument("--input", "-i", required=True)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("minimalize", help="delete edges until minimal")
    p.add_argument("--input", "-i", required=True)
    p.add_argument("--output", "-o", default=None)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--shuffle", action="store_true", help="randomize deletion order")
    p.set_defaults(func=_cmd_minimalize)

    p = sub.add_parser("represent", help="canonical degree-3 representation")
    p.add_argument("--input", "-i", required=True)
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=_cmd_represent)

    p = sub.add_parser("interconnect", help="build and verify interconnecting paths")
    p.add_argument("--input", "-i", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--shuffle", action="store_true", help="randomize start choices")
    p.add_argument("--trace", default=None, help="write step trace as JSON lines")
    p.set_defaults(func=_cmd_interconnect)

    p = sub.add_parser("oracle", help="exhaustive minimum-hub search")
    p.add_argument("--input", "-i", required=True)
    p.add_argument("--output", "-o", default=None)
    p.add_argument(
        "--max-edges",
        type=_ints(0, "a non-negative integer"),
        default=MAX_FREE_EDGES,
        help="most free (singly deletable) edges to search",
    )
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("verify-all", help="verify the claim catalog (T1-T9)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=_cmd_verify_all)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
