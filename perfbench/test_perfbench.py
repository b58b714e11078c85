"""Self-test of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys

import pytest

import hostspeed
import run
import spans

workloads = run.import_library()
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def both_runs(tmp_path_factory):
    """One untraced single-pass run and one traced run of the same seed."""
    untraced = run.run_workload(workloads, "random-pipeline", 3, 0, False, 0.0)
    before = [t[:3] for t in spans.targets()]
    traced = run.run_workload(
        workloads, "random-pipeline", 3, 0, True, 0.0, spans_dir=tmp_path_factory.mktemp("spans")
    )
    return untraced, traced, before


def test_tracing_changes_no_answer(both_runs):
    untraced, traced, _ = both_runs
    assert untraced.failed == traced.failed
    assert traced.traced_digest == untraced.digest == traced.digest
    assert traced.attempted == untraced.attempted == len(workloads.RANDOM_PIPELINE.build(3))


def test_tracer_restores_every_attribute(both_runs):
    _, _, before = both_runs
    owners = {(getattr(o, "__name__", o), a) for o, a, _ in before}
    # From-imported names are wrapped where the caller looks them up.
    assert ("hubmin.minimality", "in_class") in owners
    assert ("hubmin.oracle", "min_vertex_cut") in owners
    assert ("FlowNet", "_bfs_parent") in owners
    assert all(
        (owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)) is original
        for owner, attr, original in before
    )


def test_every_named_metric_is_reported_with_its_unit(both_runs):
    untraced, traced, _ = both_runs
    for result, kind in ((untraced, "end_to_end"), (traced, "per_layer")):
        reported = json.loads(result.final_line())["metrics"]
        assert {k: v["unit"] for k, v in reported.items()} == {
            m["name"]: m["unit"] for m in BENCHMARK[kind]
        }


def test_known_failures_are_reported_but_not_timed(both_runs):
    untraced, _, _ = both_runs
    entries = [e for e in json.loads(workloads.KNOWN_FAILURES.read_text())
               if e["workload"] == "random-pipeline"]
    assert entries and set(untraced.known) == {e["key"] for e in entries}
    corpus = {workloads.graph_core.serialize_network(it.payload)
              for it in workloads.RANDOM_PIPELINE.build(3)}
    for key, g, _ in workloads._known_failures("random-pipeline"):
        assert workloads.graph_core.serialize_network(g) not in corpus
        assert any(line.startswith(f"known library defect, not counted: {key}: ") for line in untraced.lines)


def test_self_time_subtracts_children_and_reports_uncovered_time():
    recorded = [
        ("cuts.in_class", 0.0, 10.0, -1, 0, True),
        ("cuts.min_vertex_cut", 1.0, 4.0, 0, 0, None),
        ("flownet.bfs", 2.0, 3.0, 1, 0, True),
        ("flownet.bfs", 5.0, 6.0, 0, 0, False),
    ]
    metrics = spans.layer_metrics(recorded, item_s=12.0)
    assert metrics["cuts.in_class.self_s"] == 6.0
    assert metrics["cuts.min_vertex_cut.self_s"] == 2.0
    assert metrics["flownet.bfs.self_s"] == 2.0
    assert metrics["flownet.bfs.calls"] == 2
    assert metrics["flownet.augment_ratio"] == 0.5
    assert metrics["trace.uncovered_s"] == 2.0


def test_host_speed_scaling_uses_the_probes_around_each_item():
    ref = hostspeed.REFERENCE_S
    times = [1.0, 1.0, 1.0, 1.0]
    # A host at half speed: every probe takes twice the reference time.
    assert hostspeed.scale(times, [(0, 2 * ref), (2, 2 * ref), (4, 2 * ref)]) == [0.5] * 4
    # One slow probe among steady ones does not move its segments.
    assert hostspeed.scale(times, [(0, ref), (1, ref), (2, 9 * ref), (3, ref), (4, ref)]) == times


def test_fails_without_the_library(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "oracle-exhaustive",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
