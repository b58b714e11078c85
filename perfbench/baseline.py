"""Measure every workload over two sets of seeds and write the baseline record.

Run from the repository root:

    python3 perfbench/baseline.py

Each seed runs each workload untraced, for BENCHMARK.json's ``run_seconds``,
in its own ``run.py`` process, one at a time: first seeds 1-10, then seeds
11-20.  One traced run per workload (seed 1) gives the per-layer numbers.
Per set and metric the record keeps the median and quartiles as
``statistics.quantiles(values, n=4)`` gives them, with the spread (third
minus first quartile) as a share of the median, and per metric the change
of the second set's median against the first's, as a share of the first.
The record is written to ``perfbench/BASELINE.json``; its hand-written keys
(``notes``) are kept.
"""

import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "BASELINE.json"
SEED_SETS = (list(range(1, 11)), list(range(11, 21)))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    result["digest"] = next(line.split()[1] for line in lines if line.startswith("digest "))
    return result


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def measure_set(name: str, seeds, seconds: int):
    runs = []
    for seed in seeds:
        start = time.perf_counter()
        result = run_once(name, seed, seconds, 0)
        result["seed"] = seed
        result["wall_s"] = time.perf_counter() - start
        runs.append(result)
        print(f"{name} seed {seed}: {result['wall_s']:.1f} s, failed {result['failed']}, "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    metrics = {m: summarize([r["metrics"][m]["value"] for r in runs]) for m in runs[0]["metrics"]}
    for m, s in metrics.items():
        print(f"  {m:<16} median {s['median']:.4g}  spread {s['spread']:.3f}", flush=True)
    return {
        "seeds": list(seeds),
        "end_to_end": metrics,
        "runs": [
            {"seed": r["seed"], "failed": r["failed"], "attempted": r["attempted"],
             "digest": r["digest"], "wall_s": round(r["wall_s"], 1),
             "metrics": {k: v["value"] for k, v in r["metrics"].items()}}
            for r in runs
        ],
    }


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]

    sys.path.insert(0, str(HERE))
    import run

    workloads = run.import_library()
    record = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "run_seconds": seconds,
        "workloads": {},
    }
    for entry in bench["workloads"]:
        name = entry["name"]
        sets = [measure_set(name, seeds, seconds) for seeds in SEED_SETS]
        first, second = (s["end_to_end"] for s in sets)
        change = {m: second[m]["median"] / first[m]["median"] - 1 for m in first}
        print("  median change, second set against first: "
              + " ".join(f"{m}={c:+.3f}" for m, c in change.items()), flush=True)
        traced = run_once(name, SEED_SETS[0][0], seconds, 1)
        record["workloads"][name] = {
            "why": entry["why"],
            "params": workloads.WORKLOADS[name].params,
            "sets": sets,
            "median_change": change,
            "per_layer_seed": SEED_SETS[0][0],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    if OUT.exists():
        record["notes"] = json.loads(OUT.read_text()).get("notes", [])
    OUT.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
