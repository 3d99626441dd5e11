"""One cold benchmark process: import jacsum, run one workload once, report.

    python bench/worker.py ENTRY PLAN_JSON OUT_DIR TRACE

ENTRY is the jacsum module the workload drives (`cli` or `theorems`); its
import ends the set-up phase.  The workload's report files (or, for the
library workload, its verdict record) go to OUT_DIR.  The last stdout line
is a JSON object with the process's own measurements.  run.py spawns this
with `src` on PYTHONPATH; it is not meant to be run by hand.
"""

import sys
import time

import jacsum  # noqa: F401

if sys.argv[1] == "cli":
    import jacsum.cli
else:
    import jacsum.theorems
SETUP_DONE = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402


def run_cli(invocations: list[dict], out_dir: str) -> list[int]:
    codes = []
    stdout = sys.stdout
    for i, inv in enumerate(invocations):
        with open(os.path.join(out_dir, f"report-{i}.json"), "w", encoding="utf-8") as out:
            sys.stdout = out
            try:
                codes.append(jacsum.cli.main(inv["argv"]))
            finally:
                sys.stdout = stdout
    return codes


def run_library(calls: list[list]) -> list:
    verdicts = []
    for theorem, n in calls:
        verdicts.extend(jacsum.theorems.verify_range(theorem, n, n, variant="both"))
    return verdicts


def _hex(q) -> str:
    return f"{q.numerator:x}/{q.denominator:x}"


def endpoint_bytes(verdicts: list) -> int:
    """Binary size of the enclosure endpoints: deep's stand-in for report size."""
    return sum(
        (x.bit_length() + 7) // 8
        for v in verdicts if v.enclosure is not None
        for q in (v.enclosure.interval.lo, v.enclosure.interval.hi)
        for x in (q.numerator, q.denominator)
    )


def write_verdicts(verdicts: list, path: str) -> None:
    """Verdict record for the gate; endpoints in hex, which no digit limit guards."""
    rows = [
        {
            "theorem": v.theorem,
            "variant": v.variant,
            "n": v.n,
            "status": v.status.value,
            "decided": v.decided,
            "expected": v.expected,
            "enclosure": None if v.enclosure is None else {
                "lo": _hex(v.enclosure.interval.lo),
                "hi": _hex(v.enclosure.interval.hi),
                "terms": v.enclosure.terms,
            },
        }
        for v in verdicts
    ]
    with open(path, "w", encoding="utf-8") as f:
        json.dump(rows, f, separators=(",", ":"))


def main() -> None:
    entry, plan, out_dir, trace = sys.argv[1], json.loads(sys.argv[2]), sys.argv[3], sys.argv[4]
    tracer = None
    if trace == "1":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    t0 = time.monotonic()
    if entry == "cli":
        args = (run_cli, plan["invocations"], out_dir)
    else:
        args = (run_library, plan["calls"])
    result = tracer.run(*args) if tracer else args[0](*args[1:])
    wall = time.monotonic() - t0
    usage = resource.getrusage(resource.RUSAGE_SELF)

    out = {
        "setup_done": SETUP_DONE,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024,
    }
    if entry == "cli":
        out["exit_codes"] = result
    else:
        out["report_bytes"] = endpoint_bytes(result)
        write_verdicts(result, os.path.join(out_dir, "verdicts.json"))
    if tracer:
        out["layers"] = tracer.metrics()
        out["skipped"] = tracer.skipped
        with open(os.path.join(out_dir, "spans.json"), "w", encoding="utf-8") as f:
            json.dump(tracer.spans(), f, indent=1)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
