"""Command-line interface: subcommands, exit codes, and determinism."""

from __future__ import annotations

import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

import hubmin
from hubmin import grid_graph, grid_instance, minimality, parse_instance, serialize_network
from hubmin.cli import main


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


def test_check_compiles_the_network_at_most_twice(tmp_path, capsys, monkeypatch):
    # One compile gives the cut lines and the systems, one the T1 check.
    compiles = []
    compile_network = hubmin.cuts._compile_network

    def counting(g):
        compiles.append(g)
        return compile_network(g)

    monkeypatch.setattr(hubmin.cuts, "_compile_network", counting)
    monkeypatch.setattr(minimality, "_compile_network", counting)
    path = tmp_path / "grid.json"
    path.write_text(serialize_network(grid_graph(3, 3)))
    assert main(["check", "-i", str(path)]) == 0
    out = capsys.readouterr().out
    assert "minimal: True" in out and "agree=True" in out
    assert len(compiles) <= 2


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


def test_cli_output_pins(tmp_path):
    # The CLI output pins of tests/ci_pins.sh, with `python` on PATH the
    # interpreter running the tests; CI runs the pins only through this test.
    root = pathlib.Path(__file__).resolve().parent.parent
    bindir = os.path.dirname(sys.executable)
    env = dict(os.environ, PATH=os.pathsep.join([bindir, os.environ.get("PATH", "")]))
    done = subprocess.run(
        ["bash", str(root / "tests" / "ci_pins.sh"), str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=300, check=False,
    )
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
    lines = done.stdout.splitlines()
    assert sum(line.startswith("== ") for line in lines) == 13  # every step ran
    assert sum(line.endswith(": OK") for line in lines) == 28  # every sha256 pin
