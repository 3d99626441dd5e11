"""The benchmark's workloads: their sizes, seeded inputs and expected outcomes.

Three workloads stress different layers of jacsum:

    sweep       CLI `verify --from 1 --to 96 --variant both --format json`
                for each of the five claims, in one process.  Many shallow
                indices; report size is about a third of the cost.  Shared
                suffix sums and compact or streamed reports show here.
    deep        library `verify_range(th, n, n, variant="both")` for 3.1,
                3.2, 3.3 and 2.2, one index each, drawn by the seed from a
                narrow band near n = 256 with the claim's parity.  No report
                is built, so a series-kernel gain shows undiluted and a
                report or cross-index sharing change must read no change.
    identities  CLI `identities --to 1024 --cassini-max 256 --format json`.
                Series, intervals and theorems are idle; the work is in
                sequence and identities, and the report has many small rows.

The seed only draws deep's indices; sweep and identities are fixed
canonical runs, so every seed gives them the same inputs.
"""

from __future__ import annotations

import random

WORKLOADS = ("sweep", "deep", "identities")
THEOREMS = ("2.1", "2.2", "3.1", "3.2", "3.3")
DEEP_CLAIMS = ("3.1", "3.2", "3.3", "2.2")

# Parity each claim admits (None: any n) and its smallest admissible index.
PARITY = {"2.1": None, "2.2": 1, "3.1": 0, "3.2": 1, "3.3": None}
MIN_N = {"2.1": 2, "2.2": 1, "3.1": 2, "3.2": 1, "3.3": 1}
VARIANTS = {
    "2.1": ("stated",),
    "2.2": ("proof-implied", "stated"),
    "3.1": ("proof-implied", "stated"),
    "3.2": ("stated",),
    "3.3": ("stated",),
}

# CLI exit code each verify sweep must end with: 2 where some index is
# refuted (2.2 stated, 3.1 stated, 3.3 at n = 2), 0 where all verify.
VERIFY_EXIT = {"2.1": 0, "2.2": 2, "3.1": 2, "3.2": 0, "3.3": 2}
IDENTITIES_EXIT = 0

# "tiny" exists for the benchmark's own smoke test: the same code paths in
# well under a second per process.
SIZES = {
    "full": {
        "sweep_to": 96,
        "deep_center": 256,
        "deep_halfwidth": 2,
        "identities_to": 1024,
        "cassini_max": 256,
    },
    "tiny": {
        "sweep_to": 12,
        "deep_center": 24,
        "deep_halfwidth": 4,
        "identities_to": 32,
        "cassini_max": 8,
    },
}


def admissible(theorem: str, n: int) -> bool:
    parity = PARITY[theorem]
    return n >= MIN_N[theorem] and (parity is None or n % 2 == parity)


def verdict_keys(theorem: str, lo: int, hi: int) -> list[tuple[str, str, int]]:
    """(theorem, variant, n) of every row `verify --variant both` must print."""
    return [
        (theorem, variant, n)
        for n in range(lo, hi + 1)
        if admissible(theorem, n)
        for variant in VARIANTS[theorem]
    ]


def identity_row_count(to: int, cassini_max: int) -> int:
    """Rows of `identities --to TO --cassini-max M`.

    Per n in 1..TO: lemma1.1, lemma1.2a/b/c, lemma1.4, lemma1.5, step2.1,
    step3.1 and step3.3, plus step2.2 from n = 3; then every Cassini
    offset 1 <= k <= n <= M.
    """
    return 9 * to + max(to - 2, 0) + cassini_max * (cassini_max + 1) // 2


def deep_indices(seed: int, center: int, halfwidth: int) -> list[tuple[str, int]]:
    rng = random.Random(f"deep:{seed}")
    picks = []
    for theorem in DEEP_CLAIMS:
        band = [n for n in range(center - halfwidth, center + halfwidth + 1)
                if admissible(theorem, n)]
        picks.append((theorem, rng.choice(band)))
    return picks


def plan(workload: str, seed: int, size: str = "full") -> dict:
    """Everything one run needs: what the worker calls and what the gate expects.

    CLI workloads list `invocations` (argv, expected exit code and expected
    verdict keys or row count); `deep` lists library `calls`.
    """
    s = SIZES[size]
    if workload == "sweep":
        hi = s["sweep_to"]
        return {
            "workload": workload,
            "entry": "cli",
            "sizes": {"from": 1, "to": hi, "theorems": list(THEOREMS)},
            "invocations": [
                {
                    "argv": ["verify", "--theorem", th, "--from", "1", "--to", str(hi),
                             "--variant", "both", "--format", "json"],
                    "exit": VERIFY_EXIT[th],
                    "keys": verdict_keys(th, 1, hi),
                }
                for th in THEOREMS
            ],
        }
    if workload == "identities":
        to, m = s["identities_to"], s["cassini_max"]
        return {
            "workload": workload,
            "entry": "cli",
            "sizes": {"to": to, "cassini_max": m},
            "invocations": [
                {
                    "argv": ["identities", "--to", str(to), "--cassini-max", str(m),
                             "--format", "json"],
                    "exit": IDENTITIES_EXIT,
                    "rows": identity_row_count(to, m),
                }
            ],
        }
    if workload == "deep":
        calls = deep_indices(seed, s["deep_center"], s["deep_halfwidth"])
        return {
            "workload": workload,
            "entry": "theorems",
            "sizes": {"indices": {th: n for th, n in calls}},
            "calls": calls,
            "keys": [key for th, n in calls for key in verdict_keys(th, n, n)],
        }
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
