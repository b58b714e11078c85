"""hubmin benchmark: seeded workloads, end-to-end metrics, and a traced layer run.

Run from the repository root:

    python3 perfbench/run.py --workload lattice-minimality --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

One process runs one workload on one thread.  It imports hubmin from this
checkout's ``src``, builds the seeded inputs ``SETUP_REPEATS`` times (each
build ends with a garbage collection and an untimed warm-up on the smallest
items), then times whole passes over the items until their summed item time
reaches ``--seconds``.  Every output is summarized and checked outside the
timed interval of its item; a sample of the inputs has its cuts recomputed
by networkx.  After timing, the workload's entries of
``perfbench/known_failures.json`` (standing library defects, not timed
items) are run and checked once, and each is reported as still failing or
fixed; they do not count in ``attempted`` or ``failed``.  ``--workload all``
runs each workload in its own process.

Human-readable lines come first; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1`` each
item runs once untraced and once traced, the two taking turns going first,
in whole passes, and the metrics are the per-layer ones, each the median
over the passes; the spans of pass k are written to
``.perfbench/spans-<workload>-pass<k>.tsv.gz``.

End-to-end metrics:
  items_per_s     items completed per second of summed item time
  latency_p50_ms  median item time
  latency_p90_ms  nearest-rank 90th percentile of item time
  setup_s         import time plus the median of the set-up repeats
  peak_rss_mb     maximum resident memory, read before networkx is imported

The four timings are reported at the reference host speed of
``hostspeed.py``: a fixed probe, which does not call hubmin, is timed
before the first item, after every ``hostspeed.EVERY_S`` of item time and
after the last item (and around each set-up repeat), and each time is
scaled by the probe's reference time over its time nearby.  The wall
times are printed beside them.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

import hostspeed  # noqa: E402
import spans  # noqa: E402
import xcheck  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 3
WARMUP_ITEMS = 3
TRACE_MIN_PASSES = 3
NAMES = ("lattice-minimality", "random-pipeline", "lattice-represent", "oracle-exhaustive")
END_TO_END = {
    "items_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class LibraryMissing(RuntimeError):
    """hubmin's sources are not in this checkout."""


def import_library():
    """Import hubmin from this checkout's ``src`` and nowhere else."""
    if not (SRC / "hubmin" / "__init__.py").is_file():
        raise LibraryMissing(f"no hubmin sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hubmin

    if Path(hubmin.__file__).resolve().parent != (SRC / "hubmin").resolve():
        raise LibraryMissing(f"hubmin was imported from {hubmin.__file__}, not {SRC}")
    import workloads

    return workloads


@dataclass
class Measurement:
    """Item times and checked outputs of whole passes over the items."""

    latencies: List[float] = field(default_factory=list)
    # ``latencies`` at the reference host speed, and the host-speed probe
    # times they were scaled by; both filled by ``measure``.
    scaled: List[float] = field(default_factory=list)
    probes: List[float] = field(default_factory=list)
    summaries: List[Optional[str]] = field(default_factory=list)
    bad: List[bool] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)
    passes: int = 0

    @classmethod
    def of(cls, items) -> "Measurement":
        return cls(summaries=[None] * len(items), bad=[False] * len(items))

    @property
    def failed(self) -> int:
        """Items with a failed execution; a repeat of a failed item is not counted again."""
        return sum(self.bad)

    @property
    def digest(self) -> str:
        return hashlib.sha256("\n".join(self.summaries).encode()).hexdigest()

    def record(self, wl, i: int, item, elapsed: float, out, reference: Optional[str] = None) -> None:
        """Keep one execution's time; summarize and check the item's first output.

        An item fails when an execution raised or its first output failed a
        check, or differs from ``reference`` when one is given.
        """
        self.latencies.append(elapsed)
        found = [f"raised {out!r}"] if isinstance(out, Exception) else []
        if self.summaries[i] is None:
            self.summaries[i] = f"{item.key}: {found[0]}" if found else wl.summarize(item, out)
            found = found or wl.check(item, out)
            if reference is not None and self.summaries[i] != reference:
                found.append("output differs from the untraced run")
        if found:
            self.bad[i] = True
            self.problems.append(f"{item.key}: {'; '.join(found)}")


def execute(wl, item):
    """Run one item; returns its wall time and its output or the exception it raised."""
    start = time.perf_counter()
    try:
        out = wl.run(item.payload)
    except Exception as exc:  # a raising item is a failed item; keep measuring
        out = exc
    return time.perf_counter() - start, out


def measure(wl, items, seconds: float) -> Measurement:
    """Time whole passes until the summed item time reaches ``seconds``.

    A host-speed probe runs before the first item, whenever
    ``hostspeed.EVERY_S`` of item time has passed, and after the last item.
    """
    m = Measurement.of(items)
    probes = [(0, hostspeed.probe())]
    since_probe = 0.0
    while True:
        for i, item in enumerate(items):
            if since_probe >= hostspeed.EVERY_S:
                probes.append((len(m.latencies), hostspeed.probe()))
                since_probe = 0.0
            m.record(wl, i, item, *execute(wl, item))
            since_probe += m.latencies[-1]
        m.passes += 1
        if sum(m.latencies) >= seconds:
            probes.append((len(m.latencies), hostspeed.probe()))
            m.scaled = hostspeed.scale(m.latencies, probes)
            m.probes = [p for _, p in probes]
            return m


def measure_traced(wl, items, seconds: float, spans_prefix: Optional[Path] = None):
    """Alternate untraced and traced executions of each item, in whole passes.

    Passes repeat until the untraced item time reaches ``seconds``, and at
    least ``TRACE_MIN_PASSES`` times.  Each pass gives its own per-layer
    metrics, with ``trace.overhead_ratio`` the pass's traced item time over
    its untraced item time (untraced over traced items per second); adjacent
    executions see the same host speed, so the ratio measures the wrappers.
    Returns both measurements and, per metric, the median over the passes
    (the lower of the middle two when their number is even).
    Spans of pass ``k`` are written to ``<spans_prefix>-pass<k>.tsv.gz``.
    """
    plain, traced = Measurement.of(items), Measurement.of(items)
    per_pass = []
    while traced.passes < TRACE_MIN_PASSES or sum(plain.latencies) < seconds:
        tracer = spans.Tracer()
        for i, item in enumerate(items):
            # The second execution of an item finds warm caches, so the two
            # halves take turns going first.
            traced_first = (i + traced.passes) % 2 == 1
            if not traced_first:
                plain.record(wl, i, item, *execute(wl, item))
            tracer.item = i
            with tracer:
                elapsed, out = execute(wl, item)
            if traced_first:
                plain.record(wl, i, item, *execute(wl, item))
            traced.record(wl, i, item, elapsed, out, reference=plain.summaries[i])
        plain_s = sum(plain.latencies[-len(items):])
        traced_s = sum(traced.latencies[-len(items):])
        metrics = spans.layer_metrics(tracer.spans, traced_s)
        metrics["trace.overhead_ratio"] = traced_s / plain_s
        per_pass.append(metrics)
        if spans_prefix is not None:
            tracer.write(f"{spans_prefix}-pass{traced.passes}.tsv.gz")
        plain.passes += 1
        traced.passes += 1
    medians = {k: statistics.median_low(p[k] for p in per_pass) for k in spans.LAYER_METRICS}
    return plain, traced, medians


def percentile_ms(values: List[float], q: float) -> float:
    """Nearest-rank percentile, in milliseconds."""
    ordered = sorted(values)
    return 1000 * ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def timings(times: List[float]) -> Dict[str, float]:
    """The end-to-end timing metrics of a list of item times."""
    return {
        "items_per_s": len(times) / sum(times),
        "latency_p50_ms": 1000 * statistics.median(times),
        "latency_p90_ms": percentile_ms(times, 0.9),
    }


@dataclass
class RunResult:
    workload: str
    seed: int
    attempted: int
    failed: int
    digest: str
    traced_digest: Optional[str]
    metrics: Dict[str, float]
    units: Dict[str, str]
    lines: List[str]
    # Problems found on each known-failure input; empty once it is fixed.
    known: Dict[str, List[str]] = field(default_factory=dict)

    def final_line(self) -> str:
        return json.dumps(
            {
                "correct": self.failed == 0,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {k: {"value": v, "unit": self.units[k]} for k, v in self.metrics.items()},
            }
        )


def run_workload(workloads, name: str, seed: int, seconds: float, trace: bool, import_s: float,
                 spans_dir: Optional[Path] = SPANS_DIR) -> RunResult:
    wl = workloads.WORKLOADS[name]
    clock = time.perf_counter
    builds = []
    items = None
    hostspeed.probe()  # the first probe builds the probe's graph
    probes = [(0, hostspeed.probe())]
    for k in range(SETUP_REPEATS):
        items = None
        gc.collect()
        start = clock()
        items = wl.build(seed)
        for item in sorted(items, key=lambda it: it.size)[:WARMUP_ITEMS]:
            wl.run(item.payload)
        gc.collect()
        builds.append(clock() - start)
        probes.append((k + 1, hostspeed.probe()))
    # The import ran before any probe; it is scaled by the set-up probes' median.
    import_scale = hostspeed.REFERENCE_S / statistics.median(p for _, p in probes)
    setup_s = import_s * import_scale + statistics.median(hostspeed.scale(builds, probes))

    if trace:
        gc.collect()
        prefix = None
        if spans_dir is not None:
            spans_dir.mkdir(exist_ok=True)
            prefix = spans_dir / f"spans-{name}"
        timed, traced, metrics = measure_traced(wl, items, seconds, prefix)
    else:
        timed = measure(wl, items, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    lat = timed.latencies
    n = len(lat)
    p90_rank = math.ceil(0.9 * n)
    wall = timings(lat)
    # The traced run reports per-layer metrics only, so it takes no probes.
    scaled = timings(timed.scaled) if timed.scaled else wall
    lines = [
        f"workload {name} seed {seed}: {n} items in {timed.passes} passes of {len(items)}, "
        f"{sum(lat):.3f} s of item time" + (" (untraced halves of the traced run)" if trace else ""),
        f"digest {timed.digest}",
        f"  items_per_s     {scaled['items_per_s']:.4f} 1/s (wall {wall['items_per_s']:.4f})",
        f"  latency_p50_ms  {scaled['latency_p50_ms']:.4f} ms (wall {wall['latency_p50_ms']:.4f}, n={n})",
        f"  latency_p90_ms  {scaled['latency_p90_ms']:.4f} ms (wall {wall['latency_p90_ms']:.4f}, "
        f"n={n}, {n - p90_rank} above)",
        f"  fail_ratio      {timed.failed / len(items):.4f} ({timed.failed}/{len(items)} items)",
        f"  setup_s         {setup_s:.4f} s (wall: import {import_s:.4f} s + median of "
        f"{', '.join(f'{b:.3f}' for b in builds)} s)",
        f"  peak_rss_mb     {peak_rss_mb:.2f} MB",
    ]
    if timed.probes:
        lines.append(f"host speed: probe median {1000 * statistics.median(timed.probes):.3f} ms over "
                     f"{len(timed.probes)} probes, reference {1000 * hostspeed.REFERENCE_S:.3f} ms")
    bad = timed.bad
    problems = list(timed.problems)
    mismatches: List[str] = []

    sample = wl.xcheck_sample(items, random.Random(seed))
    try:
        compared, mismatches = xcheck.cross_check(sample, workloads.cuts.min_vertex_cut)
        lines.append(f"networkx cross-check: {compared} cuts compared, {len(mismatches)} mismatches")
        problems += [f"cross-check: {m}" for m in mismatches]
    except ImportError as exc:
        lines.append(f"networkx cross-check skipped: {exc}")

    known = {}
    for item in wl.known_failures():
        _, out = execute(wl, item)
        known[item.key] = [f"raised {out!r}"] if isinstance(out, Exception) else wl.check(item, out)
        verdict = "still fails: " + "; ".join(known[item.key]) if known[item.key] else (
            "no longer fails; remove it from perfbench/known_failures.json")
        lines.append(f"known library defect, not counted: {item.key}: {verdict}")

    traced_digest = None
    if not trace:
        metrics = {**scaled, "setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
        units = END_TO_END
    else:
        bad = [a or b for a, b in zip(bad, traced.bad)]
        traced_digest = traced.digest
        problems += [f"traced: {p}" for p in traced.problems]
        units = spans.LAYER_METRICS
        lines.append(f"traced passes: {traced.passes}, digest {traced.digest}; per-layer metrics are "
                     "medians over the passes")
        if prefix is not None:
            lines.append(f"spans written to {prefix}-pass<k>.tsv.gz")
        lines += [f"  {k:<42} {v:.6g} {units[k]}" for k, v in metrics.items()]

    lines += [f"FAILED {p}" for p in problems[:20]]
    if len(problems) > 20:
        lines.append(f"... and {len(problems) - 20} more failures")
    failed = sum(bad) + len(mismatches)
    return RunResult(name, seed, len(items), failed, timed.digest, traced_digest, metrics, units, lines,
                     known)


def run_all(args) -> int:
    """Each workload in its own process, then one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            code = proc.returncode or 1
            continue
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    if code == 0:
        print(json.dumps(combined))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    if args.workload == "all":
        return run_all(args)
    try:
        workloads = import_library()
    except (LibraryMissing, ImportError) as exc:
        print(f"perfbench: cannot import hubmin: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _STARTED
    result = run_workload(workloads, args.workload, args.seed, args.seconds, bool(args.trace), import_s)
    print("\n".join(result.lines))
    print(result.final_line(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
