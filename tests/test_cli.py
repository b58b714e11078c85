"""Command-line interface: subcommands, exit codes, and determinism."""

from __future__ import annotations

import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

import hubmin
from hubmin import (
    acceptance,
    grid_graph,
    grid_instance,
    minimality,
    parse_instance,
    serialize_network,
)
from hubmin._flownet import INF, FlowNet
from hubmin.cli import main

from conftest import DEEP_NESTING, FIXTURES, LONG_INTEGER


def _write_grid(tmp_path, name="grid.json"):
    spec = grid_instance(2, 2)
    path = tmp_path / name
    path.write_text(serialize_network(spec.network, spec.systems))
    return path


def test_generate_grid_writes_canonical_instance(tmp_path, capsys):
    out = tmp_path / "g.json"
    assert main(["generate", "--family", "grid", "--c1", "2", "--c2", "3",
                 "-o", str(out)]) == 0
    g, systems = parse_instance(out.read_text())
    assert g == grid_graph(2, 3)
    assert systems is not None and len(systems) == 2


def test_generate_to_stdout(capsys):
    assert main(["generate", "--family", "witness222"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert len(obj["pairs"]) == 3


def test_generate_random_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["generate", "--family", "random", "--demands", "3,2", "--seed", "7"]
    assert main(argv + ["-o", str(a)]) == 0
    assert main(argv + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_generate_families_cover_the_catalog(tmp_path):
    for family, extra_args in (
        ("ones", ["--c1", "2", "--c2", "2", "--n", "1"]),
        ("reroutable", []),
        ("random", ["--demands", "2,2", "--extra", "2"]),
    ):
        out = tmp_path / f"{family}.json"
        assert main(["generate", "--family", family, *extra_args,
                     "-o", str(out)]) == 0
        parse_instance(out.read_text())


def test_check_reports_membership_and_minimality(tmp_path, capsys):
    path = _write_grid(tmp_path)
    assert main(["check", "-i", str(path)]) == 0
    out = capsys.readouterr().out
    assert "in class: True" in out
    assert "minimal: True" in out
    assert "agree=True" in out


def test_check_fails_out_of_class_input(tmp_path, capsys):
    g = grid_graph(2, 2)
    obj = json.loads(serialize_network(g))
    obj["edges"] = [e for e in obj["edges"] if e["id"] != 0]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(obj))
    assert main(["check", "-i", str(path)]) == 1
    assert "in class: False" in capsys.readouterr().out


def test_check_builds_deletion_queries_once(tmp_path, capsys, monkeypatch):
    # The minimal: line reuses the agreement report's is_minimal verdict.
    real = minimality._DeletionQueries
    builds = []
    monkeypatch.setattr(
        minimality, "_DeletionQueries", lambda g: builds.append(g) or real(g)
    )
    path = _write_grid(tmp_path)
    assert main(["check", "-i", str(path)]) == 0
    assert "minimal: True" in capsys.readouterr().out
    assert len(builds) == 1


def test_check_compiles_the_network_once(tmp_path, capsys, monkeypatch):
    # One compile gives the cut lines, the systems and the T1 check: the
    # agreement report finds the network in cuts' compile slot.  Each pair
    # runs one flow, to its tight terminals' demand, when the full systems
    # ask for it; the cuts and the deletion queries read those kept flows.
    compiles, limits = _count_compiles_and_limits(monkeypatch)
    path = tmp_path / "grid.json"
    path.write_text(serialize_network(grid_graph(3, 3)))
    assert main(["check", "-i", str(path)]) == 0
    out = capsys.readouterr().out
    assert "minimal: True" in out and "agree=True" in out
    assert len(compiles) == 1
    assert limits == [3, 3]


def test_check_runs_a_cut_above_the_demand_on_from_its_kept_flow(capsys, monkeypatch):
    # Pair 0's source is tight, so its kept flow stops at its demand of 2.
    # Pair 1's kept flow passes its demand of 2, so its full system comes
    # from a flow of its own stopped at 2, and its cut line runs the kept
    # flow on.
    compiles, limits = _count_compiles_and_limits(monkeypatch)
    assert main(["check", "-i", str(FIXTURES / "oracle_cut_above_demand.json")]) == 1
    assert capsys.readouterr().out == (
        "pair 0: cut 2 == demand 2\n"
        "pair 1: cut 3 != demand 2\n"
        "in class: False\n"
        "hubs: 4\n"
    )
    assert len(compiles) == 1
    assert limits == [2, 3, 2, INF]


def _count_compiles_and_limits(monkeypatch):
    """Lists that record every compile of cuts and every max flow's limit."""
    compiles, limits = [], []
    compile_network = hubmin.cuts._compile_network
    max_flow = FlowNet.max_flow

    def counting(g):
        compiles.append(g)
        return compile_network(g)

    def recording(net, s, t, limit=INF):
        limits.append(limit)
        return max_flow(net, s, t, limit)

    monkeypatch.setattr(hubmin.cuts, "_compile_network", counting)
    monkeypatch.setattr(FlowNet, "max_flow", recording)
    return compiles, limits


def test_minimalize_reports_out_of_class_input(tmp_path, capsys):
    g = grid_graph(2, 2)
    obj = json.loads(serialize_network(g))
    obj["edges"] = [e for e in obj["edges"] if e["id"] != 0]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(obj))
    assert main(["minimalize", "-i", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: not-in-class\n"
    assert captured.out == ""


def test_python_dash_m_runs_the_cli(capsys):
    assert main(["generate", "--family", "grid"]) == 0
    expected = capsys.readouterr().out
    src = str(pathlib.Path(hubmin.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-m", "hubmin", "generate", "--family", "grid"],
        capture_output=True, text=True, env=env, check=False,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == expected


def test_check_skips_equivalence_for_other_pair_counts(tmp_path, capsys):
    out = tmp_path / "w.json"
    main(["generate", "--family", "witness222", "-o", str(out)])
    assert main(["check", "-i", str(out)]) == 0
    assert "skipped" in capsys.readouterr().out


def test_minimalize_outputs_minimal_instance(tmp_path, capsys):
    src = tmp_path / "r.json"
    main(["generate", "--family", "random", "--demands", "2,2",
          "--extra", "3", "--seed", "11", "-o", str(src)])
    dst = tmp_path / "m.json"
    assert main(["minimalize", "-i", str(src), "-o", str(dst)]) == 0
    err = capsys.readouterr().err
    assert "edges" in err and "hubs" in err
    g, _ = parse_instance(dst.read_text())
    from hubmin import is_minimal

    assert is_minimal(g)


def test_represent_emits_degree_three_form(tmp_path, capsys):
    src = tmp_path / "r.json"
    main(["generate", "--family", "random", "--demands", "2,2",
          "--seed", "3", "-o", str(src)])
    mid = tmp_path / "m.json"
    main(["minimalize", "-i", str(src), "-o", str(mid)])
    dst = tmp_path / "rep.json"
    assert main(["represent", "-i", str(mid), "-o", str(dst)]) == 0
    g, systems = parse_instance(dst.read_text())
    assert systems is not None
    for v in g.vertices:
        if not g.is_terminal(v):
            assert g.degree(v) == 3


def test_represent_writes_nothing_when_the_decomposition_fails(tmp_path, capsys, monkeypatch):
    # A random input whose representation keeps an edge on no system.
    assert main(["generate", "--family", "random", "--demands", "2,2", "--seed", "24",
                 "--extra", "1"]) == 0
    data = capsys.readouterr().out.encode()
    want = "error: decomposition-violation: unused edge in representation\n"
    out = tmp_path / "rep.json"
    for argv in (["represent", "-i", "-"], ["represent", "-i", "-", "-o", str(out)]):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        assert main(argv) == 1
        assert capsys.readouterr() == ("", want)
    assert not out.exists()


def test_interconnect_verifies_and_traces(tmp_path, capsys):
    path = _write_grid(tmp_path)
    trace = tmp_path / "trace.jsonl"
    assert main(["interconnect", "-i", str(path), "--trace", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "hub-partition" in out
    lines = [json.loads(line) for line in trace.read_text().splitlines()]
    assert lines and lines[0]["step"] == "start"
    assert all("iteration" in entry for entry in lines)


def test_oracle_reports_minimum(tmp_path, capsys):
    path = _write_grid(tmp_path)
    assert main(["oracle", "-i", str(path)]) == 0
    out = capsys.readouterr().out
    assert "minimum hubs: 8" in out
    assert "bound for demands: 8" in out


def test_oracle_size_guard_maps_to_exit_one(tmp_path, capsys):
    src = tmp_path / "r.json"
    main(["generate", "--family", "random", "--demands", "2,2",
          "--extra", "3", "--seed", "1", "-o", str(src)])
    assert main(["oracle", "-i", str(src), "--max-edges", "0"]) == 1
    assert "size-guard-exceeded" in capsys.readouterr().err


def test_negative_oracle_guard_is_an_argparse_error(capsys):
    with pytest.raises(SystemExit) as done:
        main(["oracle", "-i", "-", "--max-edges", "-1"])
    assert done.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument --max-edges: expected a non-negative integer, got '-1'" in err
    assert "Traceback" not in err


def test_oracle_rejects_an_input_without_pairs(tmp_path, capsys):
    # The input parses; the other commands read it as before.
    path = tmp_path / "nopairs.json"
    path.write_text('{"vertices": [1], "edges": [], "pairs": []}')
    assert main(["oracle", "-i", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: pairs: the oracle needs at least one pair\n"
    assert captured.out == ""
    assert main(["check", "-i", str(path)]) == 0
    assert main(["represent", "-i", str(path)]) == 1
    assert capsys.readouterr().err == "error: two-pairs-required: got 0 pairs\n"


def test_malformed_json_maps_to_exit_two(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    assert main(["check", "-i", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_undecodable_json_on_stdin_maps_to_exit_two(capsys, monkeypatch):
    # The message text differs between Python versions, so only its place
    # is pinned.
    for text in (DEEP_NESTING, LONG_INTEGER):
        stdin = io.TextIOWrapper(io.BytesIO(text.encode()), encoding="utf-8")
        monkeypatch.setattr(sys, "stdin", stdin)
        assert main(["check", "-i", "-"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: json: ")
        assert "Traceback" not in err


def test_invalid_network_maps_to_exit_two(tmp_path, capsys, example_text):
    obj = json.loads(example_text)
    obj["edges"][0]["u"] = 999
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    assert main(["check", "-i", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: network: unknown-vertex")


def test_missing_file_maps_to_exit_two(tmp_path, capsys):
    assert main(["check", "-i", str(tmp_path / "absent.json")]) == 2


def test_unknown_family_is_an_argparse_error():
    with pytest.raises(SystemExit):
        main(["generate", "--family", "nonsense"])


@pytest.mark.parametrize(
    "args",
    [
        ["--family", "random", "--demands", "x"],
        ["--family", "random", "--demands", "0,2"],
        ["--family", "random", "--demands", ""],
        ["--family", "grid", "--c1", "0"],
        ["--family", "ones", "--n", "-1"],
        ["--family", "random", "--extra", "-2"],
    ],
    ids=[
        "demands-not-integers",
        "demand-zero",
        "demands-empty",
        "c1-zero",
        "n-negative",
        "extra-negative",
    ],
)
def test_malformed_generate_arguments_exit_two(capsys, args):
    with pytest.raises(SystemExit) as done:
        main(["generate", *args])
    assert done.value.code == 2
    err = capsys.readouterr().err
    assert f"error: argument {args[2]}: expected " in err
    assert "Traceback" not in err


NOT_UTF8 = b'{"vertices": [\xff]}'
INPUT_COMMANDS = ("check", "minimalize", "represent", "interconnect", "oracle")


def test_non_utf8_file_maps_to_exit_two(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(NOT_UTF8)
    for command in INPUT_COMMANDS:
        assert main([command, "-i", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: input: not UTF-8: invalid start byte at byte 14\n"


def test_non_utf8_stdin_maps_to_exit_two(capsys, monkeypatch):
    for command in INPUT_COMMANDS:
        # A stdin whose own decoding would accept the bytes.
        stdin = io.TextIOWrapper(io.BytesIO(NOT_UTF8), encoding="latin-1")
        monkeypatch.setattr(sys, "stdin", stdin)
        assert main([command, "-i", "-"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: input: not UTF-8: invalid start byte at byte 14\n"


def test_crlf_input_reads_alike_from_file_and_stdin(tmp_path, capsys, monkeypatch):
    # The file is not read with newline translation, so both report the
    # position in the bytes as given.
    crlf = b'{\r\n"vertices": [1,\r\n]}'
    path = tmp_path / "crlf.json"
    path.write_bytes(crlf)
    want = "error: json: Expecting value: line 3 column 1 (char 20)\n"
    assert main(["check", "-i", str(path)]) == 2
    assert capsys.readouterr().err == want
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(crlf), encoding="utf-8"))
    assert main(["check", "-i", "-"]) == 2
    assert capsys.readouterr().err == want


def test_verify_all_passes(capsys):
    assert main(["verify-all"]) == 0
    out = capsys.readouterr().out
    assert "9/9 claims verified" in out


def test_verify_all_reports_failing_and_crashing_claims(capsys, monkeypatch):
    def crash(seed):
        raise ValueError("boom")

    monkeypatch.setattr(
        acceptance,
        "CLAIMS",
        [
            ("A", "holds", lambda seed: (True, "fine")),
            ("B", "fails", lambda seed: (False, "off by one")),
            ("C", "crashes", crash),
        ],
    )
    assert main(["verify-all"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "A  pass  holds",
        "B  FAIL  fails (off by one)",
        "C  FAIL  crashes (ValueError: boom)",
        "1/3 claims verified",
    ]


def _broken_fixture(tmp_path, example_text, edit):
    obj = json.loads(example_text)
    edit(obj)
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(obj))
    return path


@pytest.mark.parametrize(
    "edit, where",
    [
        (lambda obj: obj["systems"][0].pop(), "systems[0]"),
        (lambda obj: obj["systems"][0][0][0].update(edge=9999), "systems[0]"),
        (lambda obj: obj["systems"].pop(), "systems"),
    ],
    ids=["short-system", "unknown-edge", "missing-system"],
)
def test_bad_systems_map_to_exit_two(tmp_path, capsys, example_text, edit, where):
    path = _broken_fixture(tmp_path, example_text, edit)
    for command in ("check", "represent", "interconnect"):
        assert main([command, "-i", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {where}: ")
        assert "Traceback" not in captured.err
        assert "agree" not in captured.out


def _json_tool(text):
    """What ``python -m json.tool --indent 2 --sort-keys`` writes for ``text``."""
    return json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def _strip_systems(text):
    obj = json.loads(text)
    del obj["systems"]
    return json.dumps(obj)


# The CLI output pins: each step runs the CLI on a generated or fixture input
# and checks the report lines or the sha256 of what it writes.  A command is
# (argv, stdin, stdout, stderr): the names are files in the test's directory,
# None reads nothing or drops the stream, and "{tmp}" and "{fixtures}" in argv
# expand to the two directories.  An argv that is a function maps the stdin
# text to the stdout text.  A check is ("line", name, line): the file has that
# line; ("report", name, lines): its lines but "elapsed: ..." are these;
# ("same", a, b): the two files are equal; or ("sha256", name, digest).
CLI_PINS = [
    (
        "Oracle on the (2,2,2) witness",
        [
            (["generate", "--family", "witness222"], None, "w.json", None),
            (["oracle", "-i", "-"], "w.json", "w.out", None),
        ],
        [("line", "w.out", "minimum hubs: 12")],
    ),
    (
        # Pins the stable report lines (elapsed varies) and the written
        # subgraph; in the fixture, one pair's cut is 3 and its demand 2.
        "Oracle on a 13-free-edge random input and a cut above its demand",
        [
            (["generate", "--family", "random", "--demands", "2,2", "--seed", "0",
              "--extra", "8"], None, "rand13.json", None),
            (["oracle", "-i", "-", "-o", "{tmp}/rand13.min.json"], "rand13.json",
             "rand13.out", None),
            (["oracle", "-i", "{fixtures}/oracle_cut_above_demand.json",
              "-o", "{tmp}/above.min.json"], None, "above.out", None),
        ],
        [
            ("report", "rand13.out",
             ["minimum hubs: 2", "bound for demands: 8", "minimal subgraphs: 11"]),
            ("report", "above.out",
             ["minimum hubs: 2", "bound for demands: 8", "minimal subgraphs: 18"]),
            ("sha256", "rand13.min.json",
             "388711ffa4ca200aa3ea0e8d8e0be6a3787b71de610f07ca395472385ac7a1e0"),
            ("sha256", "above.min.json",
             "ca2f801fd0dec040f1191740d15241cbc091c9a120cf8aa4be560ee4803416c9"),
        ],
    ),
    (
        # The largest oracle input the pins hold; stable report lines and the
        # written subgraph.
        "Oracle on a 23-edge random input",
        [
            (["generate", "--family", "random", "--demands", "2,2", "--seed", "0",
              "--extra", "10"], None, "rand23.json", None),
            (["oracle", "-i", "-", "-o", "{tmp}/rand23.min.json"], "rand23.json",
             "rand23.out", None),
        ],
        [
            ("report", "rand23.out",
             ["minimum hubs: 2", "bound for demands: 8", "minimal subgraphs: 14"]),
            ("sha256", "rand23.min.json",
             "388711ffa4ca200aa3ea0e8d8e0be6a3787b71de610f07ca395472385ac7a1e0"),
        ],
    ),
    (
        "Minimality of the 12x12 lattice",
        [
            (["generate", "--family", "grid", "--c1", "12", "--c2", "12"], None,
             "grid12.json", None),
            (["check", "-i", "-"], "grid12.json", "grid12.check", None),
        ],
        [("line", "grid12.check", "minimal: True")],
    ),
    (
        # A minimal input on which the cycle search once found a cycle that
        # no rerouting can use.
        "Theorem 1 agreement on the consistent-cycle fixture",
        [(["check", "-i", "{fixtures}/theorem1_cycle.json"], None, "t1.check", None)],
        [("line", "t1.check", "two-pair characterizations: minimal=True "
          "non-reroutable=True no-consistent-cycle=True agree=True")],
    ),
    (
        # An independent check that the instance writer is canonical JSON.
        "Canonical writer matches json.tool",
        [
            (["generate", "--family", "grid", "--c1", "16", "--c2", "16"], None,
             "grid16.json", None),
            (_json_tool, "grid16.json", "grid16.tool.json", None),
        ],
        [("same", "grid16.json", "grid16.tool.json")],
    ),
    (
        # Pins the trace and the report byte for byte; switches occur in both
        # phases.
        "Interconnect trace of a shuffled 6x6 lattice",
        [
            (["generate", "--family", "grid", "--c1", "6", "--c2", "6"], None,
             "grid6.json", None),
            (["interconnect", "-i", "-", "--shuffle", "--seed", "2",
              "--trace", "{tmp}/t.jsonl"], "grid6.json", "t.out", None),
        ],
        [
            ("sha256", "t.jsonl",
             "43af0e9279b55342be7bc67ceb90bfc7b8a7f2c541d11d75e705abbc248319a4"),
            ("sha256", "t.out",
             "7c126f86cbcece47f7e75ba45e911c1bce8b93015bd528ebd9e066a44c4c19da"),
        ],
    ),
    (
        # The largest lattice the lattice-represent workload times; pins the
        # representation's stdout and stderr, the run report and its trace.
        "Representation and interconnect of the 16x16 lattice",
        [
            (["generate", "--family", "grid", "--c1", "16", "--c2", "16"], None,
             "g16.json", None),
            (["represent", "-i", "-"], "g16.json", "r16.out", "r16.err"),
            (["interconnect", "-i", "-", "--trace", "{tmp}/i16.jsonl"], "g16.json",
             "i16.out", None),
        ],
        [
            ("sha256", "r16.out",
             "cfd03416c8343ff0c9c609120adfab4235695b41543b0c07d389ba24ba7edd50"),
            ("sha256", "r16.err",
             "709d34650196dd1c699eadcff5628507ead142bdbba34df2c924955873b5f356"),
            ("sha256", "i16.jsonl",
             "021ff0d49df0abbfe0b2c12e8f452f26efd0ea0ce27c946f23f62dac0ffb341e"),
            ("sha256", "i16.out",
             "01b7b98fd24c6b4431bbff210f096368ee6db7f7b3f00700b270825b9b258608"),
        ],
    ),
    (
        # On a lattice all three rewrites do nothing; on this input the
        # representation merges a relay, stretches two crossings and swaps
        # one opposed public edge, and every run check passes.
        "Representation and interconnect of a minimalized random input",
        [
            (["generate", "--family", "random", "--demands", "3,3", "--seed", "35",
              "--extra", "4"], None, "r.json", None),
            (["minimalize", "-i", "{tmp}/r.json", "-o", "{tmp}/m.json"], None, None,
             "m.err"),
            (["represent", "-i", "{tmp}/m.json"], None, "rep.out", "rep.err"),
            (["interconnect", "-i", "{tmp}/m.json", "--trace", "{tmp}/t.jsonl"], None,
             "ic.out", None),
        ],
        [
            ("sha256", "r.json",
             "e55cfebb5c5c250b366c13a08c10a9516a973cded88b43460deaa17aba2d3891"),
            ("sha256", "m.json",
             "7299cc987e147b8538cc0619aad246d1f35e83e45dafa9fb9c664d13fd5e09b1"),
            ("sha256", "m.err",
             "1f545b672bbd66a2b5444567ecd08c2d690353e912aca50cfa1c5c482c882a38"),
            ("sha256", "rep.out",
             "d4ab454661832e7d91fd993f3633ce89f316e0377acfac0ab68df886db930d88"),
            ("sha256", "rep.err",
             "735b2e45fbd358a6bbdf77c945a7aec8b02f9dac16ac7ebe71299d7c3395dc10"),
            ("sha256", "ic.out",
             "b4e895ea0b1431a7e246529eee39cc94f745bf364644b77704d4692e624ea50b"),
            ("sha256", "t.jsonl",
             "2d504e9f0844c9e01bd4412ad4e060cc0c4f440876bc7f27547ec65cc400ca88"),
        ],
    ),
    (
        # The systems key is stripped, so represent computes each pair's
        # system itself, with each flow stopped at the pair's demand; pins
        # stdout, stderr and the written representation.
        "Representation of a lattice without systems",
        [
            (["generate", "--family", "grid", "--c1", "5", "--c2", "4"], None,
             "g54.full.json", None),
            (_strip_systems, "g54.full.json", "g54.json", None),
            (["represent", "-i", "{tmp}/g54.json", "-o", "{tmp}/g54.rep.json"], None,
             "g54.out", "g54.err"),
        ],
        [
            ("sha256", "g54.json",
             "fec652731c963d21f13ccb8c91b3b93ae8c8e6a030dcab4924d8fed16cbe0195"),
            ("sha256", "g54.out",
             "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
            ("sha256", "g54.err",
             "a9d11efdcf18d7dd5876e2a59c29082622c98950cf7b9d41aa552c131bf4272f"),
            ("sha256", "g54.rep.json",
             "26a486d6a237ed62414d5b94d2cb137d48118906c3fff4deaf34fa4e12520444"),
        ],
    ),
    (
        # Covers the CLI's computed systems and the three-pair is_minimal
        # path; the witness is minimal, so minimalize writes the generated
        # file back.
        "Reroutable witness through generate, check and minimalize",
        [
            (["generate", "--family", "reroutable"], None, "rr.json", None),
            (["check", "-i", "{tmp}/rr.json"], None, "rr.check", None),
            (["minimalize", "-i", "{tmp}/rr.json", "-o", "{tmp}/rr.min.json"], None,
             None, None),
        ],
        [
            ("sha256", "rr.json",
             "d6c44c1f478d990d457c647170e0f0afa6d5cf6da05cd25edbfd8797aaf43356"),
            ("sha256", "rr.check",
             "26f80350d984d1976d5d98ea0d4ff1e33566fc0912ac026a15945a5a4b393360"),
            ("sha256", "rr.min.json",
             "d6c44c1f478d990d457c647170e0f0afa6d5cf6da05cd25edbfd8797aaf43356"),
        ],
    ),
    (
        # Pins the check report where is_minimal asks more than two pairs
        # (minimal: True) and where edges are deletable (minimal: False, a
        # reroutable system).
        "Minimality checks on a five-pair lattice and a non-minimal random input",
        [
            (["generate", "--family", "ones", "--c1", "4", "--c2", "4", "--n", "3"], None,
             "ones443.json", None),
            (["check", "-i", "-"], "ones443.json", "ones443.check", None),
            (["generate", "--family", "random", "--demands", "2,3", "--seed", "2",
              "--extra", "4"], None, "random23.json", None),
            (["check", "-i", "-"], "random23.json", "random23.check", None),
        ],
        [
            ("sha256", "ones443.check",
             "67cd9f91e74bd9e669385f55349e439e9cb7433195b1296ccf8b269fdaa3e72e"),
            ("sha256", "random23.check",
             "44f338dc056b245df17cd69c02fc4fe5f156ede3af362535ee19823d52fe74ae"),
        ],
    ),
    (
        # Pair 0's source has 3 edges for demand 2; every other terminal is
        # tight (exactly demand edges), so only some terminals settle their
        # own edges.  The source's spare edge lies on no system, so the
        # two-pair characterizations need not agree, and here they do not.
        "Check and minimalize where one source has more edges than its demand",
        [
            (["check", "-i", "{fixtures}/loose_source.json"], None, "loose.check", None),
            (["minimalize", "-i", "{fixtures}/loose_source.json",
              "-o", "{tmp}/loose.min.json"], None, None, "loose.min.err"),
        ],
        [
            ("sha256", "loose.check",
             "7cea226d13e22254fecdafa7d78ca698bcc4fa3951a1602b69b0807e5eaca430"),
            ("sha256", "loose.min.json",
             "9fb0d36ba684a9535b37675218a0377bbf8e71f18ec770f8252b7984eb5d57a8"),
            ("sha256", "loose.min.err",
             "a142ce5801d7c9c635fd6c43163de9c1a5159c0b03e83d970236a33b56bd4db0"),
        ],
    ),
]


def test_cli_output_pins(tmp_path, capsys, monkeypatch):
    steps = pins = 0
    for title, commands, checks in CLI_PINS:
        for argv, stdin, stdout, stderr in commands:
            data = (tmp_path / stdin).read_bytes() if stdin else b""
            monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
            if callable(argv):
                code = 0
                sys.stdout.write(argv(data.decode("utf-8")))
            else:
                code = main([a.format(tmp=tmp_path, fixtures=FIXTURES) for a in argv])
            captured = capsys.readouterr()
            assert code == 0, (title, argv, captured.err)
            for name, text in ((stdout, captured.out), (stderr, captured.err)):
                if name:
                    (tmp_path / name).write_bytes(text.encode("utf-8"))
        for kind, name, want in checks:
            data = (tmp_path / name).read_bytes()
            lines = data.decode("utf-8").splitlines()
            if kind == "line":
                assert want in lines, (title, name)
            elif kind == "report":
                assert [x for x in lines if not x.startswith("elapsed: ")] == want, (title, name)
            elif kind == "same":
                assert data == (tmp_path / want).read_bytes(), (title, name)
            else:
                assert hashlib.sha256(data).hexdigest() == want, (title, name)
                pins += 1
        steps += 1
    assert steps == 13  # every step ran
    assert pins == 28  # every sha256 pin
