"""Run the benchmark over ten seeds and summarise each metric's spread.

    python3 bench/collect.py [--out bench/results.json]

Run it from the repo root.  For every workload in BENCHMARK.json it runs
`bench/run.py` once per seed 1..10, one at a time, with the run length
from BENCHMARK.json.  For each end-to-end metric it reports the median of
the runs and the spread: the distance between the first and third
quartiles (`statistics.quantiles(values, n=4)`) as a share of the median,
which is what a metric's `bound` is compared against.  It also makes one
traced run per workload, with seed 1.  Writes the whole result set,
environment included, to `--out` if given.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
SEEDS = list(range(1, 11))
TRACE_SEED = 1


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=True)
    info_line, result_line = proc.stdout.splitlines()[-2:]
    return {**json.loads(info_line), **json.loads(result_line)}


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    results = {
        "environment": {
            "python": sys.version.split()[0],
            "machine": platform.machine(),
            "nproc": os.cpu_count(),
            "loadavg_start": os.getloadavg(),
            "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        },
        "run_seconds": seconds,
        "seeds": SEEDS,
        "workloads": {},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        t0 = time.monotonic()
        runs = [run(workload, seed, seconds, 0) for seed in SEEDS]
        summary = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            summary[name] = {"median": statistics.median(values), "spread": spread(values),
                             "bound": bound, "values": values}
            print(f"{workload:<11} {name:<13} median {summary[name]['median']:<14.6g}"
                  f" spread {summary[name]['spread']:.4f} (bound {bound})", flush=True)
        entry = {
            "summary": summary,
            "correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "runs": runs,
            "elapsed_s": time.monotonic() - t0,
        }
        entry["traced"] = run(workload, TRACE_SEED, seconds, 1)
        print(f"{workload:<11} correct {entry['correct']} failed {entry['failed']}"
              f" of {entry['attempted']} in {entry['elapsed_s']:.0f} s", flush=True)
        results["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(results, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
