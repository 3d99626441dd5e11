"""jacsum benchmark: end-to-end metrics, or per-layer metrics of a traced run.

    python3 bench/run.py --workload {sweep,deep,identities} --seed N \\
        --seconds S --trace {0,1} [--size tiny]

Run it from the root of a jacsum checkout; it runs the code under `src/`.
Each repetition is a fresh, cold `python` process (bench/worker.py), run
one at a time; repetitions continue until S seconds have passed and at
least three have run.  With `--trace 0` the result holds the median of
each end-to-end metric over the repetitions:

    setup_s       process spawn until `import jacsum` and the workload's
                  entry module (jacsum.cli or jacsum.theorems) are done
    wall_s        after set-up until the last report byte is written (CLI
                  workloads) or the last verdict is returned (deep)
    cpu_s         user + system CPU time of the worker process up to then
    peak_rss_mb   that process's own maximum resident set size
    report_bytes  bytes the CLI wrote to stdout; deep builds no report, so
                  there it is the binary size of the verdicts' enclosure
                  endpoints, sum of ceil(bits / 8) over each numerator and
                  denominator: a proxy for endpoint size, not report output

With `--trace 1` repetitions alternate untraced and traced processes; the
result holds the per-layer metrics of the traced repetition with the
median wall time, and `trace.overhead_s`, the median over pairs of
neighbouring repetitions of traced minus untraced wall time.  No layer
waits on a queue or a contended lock (one thread; the sequence cache's
lock is never contended), so waiting time is not applicable and is not
reported.  Metric names and units are those BENCHMARK.json declares.

The correctness gate (gate.py) runs on the first repetition's output,
outside every timed region; every later repetition must produce
byte-identical output (compared by SHA-256).  The last stdout line is
`{"correct", "attempted", "failed", "metrics"}`; the line before it
records the environment, sizes, per-repetition samples and any gate
problems.  `failed / attempted` is the failed fraction.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from gate import Tally, gate_deep, gate_invocation
from workloads import SIZES, WORKLOADS, plan as make_plan

BENCH = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = ".bench_work"
MIN_REPS = 3
CHILD_TIMEOUT_S = 150


def declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit of BENCHMARK.json's `end_to_end` or `per_layer` list."""
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def spawn(plan: dict, out_dir: str, trace: int, env: dict, keep: bool) -> dict:
    """Run one cold worker process and return its measurements.

    The output files are hashed, then deleted unless `keep` is set.
    """
    os.makedirs(out_dir)
    task = {key: plan[key] for key in ("invocations", "calls") if key in plan}
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), plan["entry"],
           json.dumps(task), out_dir, str(trace)]
    spawned = time.monotonic()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr}")
    child = json.loads(proc.stdout.splitlines()[-1])
    child["setup_s"] = child.pop("setup_done") - spawned
    digest = hashlib.sha256()
    size = 0
    for name in sorted(os.listdir(out_dir)):
        if name.startswith("report-") or name == "verdicts.json":
            with open(os.path.join(out_dir, name), "rb") as f:
                data = f.read()
            digest.update(data)
            size += len(data)
            if not keep:
                os.remove(os.path.join(out_dir, name))
    child.setdefault("report_bytes", size)  # deep's worker sets its own
    child["digest"] = digest.hexdigest()
    child["dir"] = out_dir
    return child


def gate(plan: dict, first: dict, reps: list[dict]) -> Tally:
    tally = Tally()
    if plan["entry"] == "cli":
        for i, (inv, code) in enumerate(zip(plan["invocations"], first["exit_codes"])):
            gate_invocation(tally, inv, os.path.join(first["dir"], f"report-{i}.json"), code)
    else:
        gate_deep(tally, os.path.join(first["dir"], "verdicts.json"), plan["keys"])
    for i, rep in enumerate(reps[1:], start=2):
        tally.check(None if rep["digest"] == first["digest"]
                    else f"repetition {i} output differs from the first (sha256)")
    return tally


def measure(plan: dict, work: str, seconds: float, trace: int, env: dict):
    """Repeat cold workers until `seconds` pass; return (untraced, traced) reps."""
    untraced: list[dict] = []
    traced: list[dict] = []
    start = time.monotonic()
    while (len(untraced) < MIN_REPS or (trace and len(traced) < MIN_REPS)
           or time.monotonic() - start < seconds):
        for mode, reps in ((0, untraced), (1, traced))[: 1 + trace]:
            first = not (untraced or traced)  # only the first output is gated
            out_dir = os.path.join(work, f"rep{len(untraced) + len(traced)}")
            reps.append(spawn(plan, out_dir, mode, env, keep=first))
    return untraced, traced


def median_rep(reps: list[dict]) -> dict:
    return sorted(reps, key=lambda r: r["layers"]["trace.wall_s"])[(len(reps) - 1) // 2]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=tuple(SIZES), default="full")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "jacsum", "__init__.py")):
        print("bench/run.py: no src/jacsum here; run it from the root of a jacsum checkout",
              file=sys.stderr)
        return 2

    loadavg = os.getloadavg()
    plan = make_plan(args.workload, args.seed, args.size)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath("src"), env.get("PYTHONPATH")) if p)
    # compile jacsum's bytecode once, so no repetition pays for it in setup_s
    subprocess.run([sys.executable, "-c", "import jacsum.cli"], env=env, check=True,
                   timeout=CHILD_TIMEOUT_S)

    os.makedirs(WORK_DIR, exist_ok=True)
    work = os.path.join(WORK_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    try:
        untraced, traced = measure(plan, work, args.seconds, args.trace, env)
        tally = gate(plan, untraced[0], untraced + traced)
        if args.trace:
            chosen = median_rep(traced)
            shutil.copy(os.path.join(chosen["dir"], "spans.json"),
                        os.path.join(WORK_DIR, f"spans-{args.workload}-seed{args.seed}.json"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    end_to_end = declared_units("end_to_end")
    samples = {name: [rep[name] for rep in untraced] for name in end_to_end}
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "sizes": plan["sizes"],
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "loadavg_start": loadavg,
        "seconds": args.seconds,
        "repetitions": len(untraced),
        "samples": samples,
        "gate_problems": tally.problems,
    }
    if args.trace:
        layers = dict(chosen["layers"])
        # untraced and traced repetitions alternate; pairing them cancels slow host phases
        layers["trace.overhead_s"] = statistics.median(
            t["wall_s"] - u["wall_s"] for u, t in zip(untraced, traced))
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in declared_units("per_layer").items()}
        info["traced_repetitions"] = len(traced)
        info["skipped"] = chosen["skipped"]
        info["waiting"] = ("not applicable: one thread, no queue, and the sequence "
                           "cache's lock is never contended")
    else:
        metrics = {name: {"value": statistics.median(samples[name]), "unit": unit}
                   for name, unit in end_to_end.items()}
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
