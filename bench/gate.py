"""Correctness gate: re-check every report row without importing jacsum.

A verdict row fails the gate when any of these holds:

  * it is undecided;
  * its status breaks the rule table (`expected_status`), which every row
    for n <= 96 matched when the benchmark was written;
  * its status, decided value or expected value cannot be re-derived from
    its sum enclosure alone: reciprocal, then floor/ceil or the claim's
    bound comparison, all in exact rationals;
  * its (theorem, variant, n) is missing from, or extra to, the sweep.

An identity row fails when it is applicable but does not hold; a row count
other than the one derived from the sweep's sizes is one more failed check.  A CLI invocation whose exit code
differs from the expected one counts as one failed check.

Endpoints can run to about 100k decimal digits, beyond CPython's default
int/str conversion limit.  The gate raises that limit itself, only while it
parses a report, and restores it afterwards.
"""

from __future__ import annotations

import json
import math
import sys
from contextlib import contextmanager
from fractions import Fraction

# Larger than any endpoint the full-size workloads produce (about 100k
# digits at n = 256), small enough to keep the CPython guard meaningful.
ENDPOINT_DIGITS_MAX = 1_000_000


@contextmanager
def int_digits_limit(limit: int = ENDPOINT_DIGITS_MAX):
    """Raise the int/str conversion limit to `limit` for the enclosed block."""
    if not hasattr(sys, "get_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(max(old, limit) if old else 0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def J(n: int) -> int:
    """Jacobsthal number by its closed form, independent of jacsum."""
    return (2**n - (-1) ** n) // 3


def parse_rat(text: str, base: int = 10) -> Fraction:
    num, _, den = text.partition("/")
    return Fraction(int(num, base), int(den, base) if den else 1)


def expected_status(theorem: str, variant: str, n: int) -> str:
    """The rule table: each claim's status pattern at every index checked."""
    if theorem == "2.2":
        return "verified" if variant == "proof-implied" or n == 1 else "refuted"
    if theorem == "3.1":
        return "verified" if variant == "proof-implied" or n == 2 else "refuted"
    if theorem == "3.3":
        return "refuted" if n == 2 else "verified"
    return "verified"  # 2.1 and 3.2


def _tri(holds: bool, fails: bool) -> str:
    return "verified" if holds else "refuted" if fails else "undecided"


def rederive(theorem: str, variant: str, n: int, lo: Fraction, hi: Fraction):
    """(status, decided, expected) implied by the sum enclosure [lo, hi] alone."""
    if theorem == "2.2" and variant == "proof-implied" and n > 1:
        target = Fraction(1, J(n - 1) * J(n))
        return _tri(hi < target, lo >= target), None, None
    if lo <= 0 <= hi:
        return "undecided", None, None
    inv_lo, inv_hi = 1 / hi, 1 / lo
    if theorem == "2.1":
        a, b = J(n - 2), 4 * (J(n - 2) + 1)
        return _tri(a < inv_lo and inv_hi < b, inv_hi <= a or inv_lo >= b), None, None

    rounding = math.ceil if theorem == "3.3" else math.floor
    decided = rounding(inv_lo)
    if decided != rounding(inv_hi):
        decided = None
    if theorem == "2.2":
        expected = 0 if variant == "proof-implied" else J(n - 1) * J(n)
    elif theorem == "3.1":
        expected = 2 ** (n - 1) - 1
    elif theorem == "3.2":
        expected = -(2 ** (n - 1) + 1)
    elif theorem == "3.3":
        expected = J(n - 1) ** 2 + J(n) ** 2 - 1
    else:
        raise ValueError(f"unknown theorem {theorem!r}")
    if decided is None:
        return "undecided", None, expected
    if theorem == "3.1" or (theorem == "2.2" and variant == "proof-implied"):
        holds = decided == expected
    else:
        holds = decided <= expected
    if (theorem == "3.1" and variant == "proof-implied" and holds
            and not expected < inv_lo <= inv_hi < expected + 1):
        return "undecided", None, expected
    return ("verified" if holds else "refuted"), decided, expected


def verdict_problem(row: dict, base: int = 10) -> str | None:
    """Why a verdict row fails the gate, or None if it passes."""
    key = f"{row['theorem']} {row['variant']} n={row['n']}"
    if row["status"] == "undecided":
        return f"{key}: undecided"
    rule = expected_status(row["theorem"], row["variant"], row["n"])
    if row["status"] != rule:
        return f"{key}: status {row['status']}, rule table says {rule}"
    enc = row["enclosure"]
    if enc is None:
        return f"{key}: no enclosure backs the verdict"
    lo, hi = parse_rat(enc["lo"], base), parse_rat(enc["hi"], base)
    if lo > hi:
        return f"{key}: empty enclosure"
    status, decided, expected = rederive(row["theorem"], row["variant"], row["n"], lo, hi)
    if status != row["status"]:
        return f"{key}: enclosure re-derives {status}, row says {row['status']}"
    if decided is not None and decided != row["decided"]:
        return f"{key}: enclosure re-derives decided={decided}, row says {row['decided']}"
    if expected is not None and expected != row["expected"]:
        return f"{key}: expected={row['expected']}, claim gives {expected}"
    return None


class Tally:
    """Checks attempted and failed, with the first few reasons kept."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problem)


def gate_verdicts(tally: Tally, rows: list[dict], keys, base: int = 10) -> None:
    """Gate verdict rows and check they are exactly the expected (theorem, variant, n)."""
    want = {tuple(k) for k in keys}
    seen = set()
    with int_digits_limit():
        for row in rows:
            key = (row["theorem"], row["variant"], row["n"])
            if key not in want or key in seen:
                tally.check(f"{key}: unexpected or repeated row")
                continue
            seen.add(key)
            tally.check(verdict_problem(row, base))
    for key in sorted(want - seen):
        tally.check(f"{key}: row missing")


def gate_identities(tally: Tally, rows: list[dict], expected_rows: int) -> None:
    for row in rows:
        tally.check(
            f"{row['identity']} n={row['n']} k={row['k']}: fails"
            if row["verdict"] == "fails" else None
        )
    tally.check(
        None if len(rows) == expected_rows
        else f"identities: {len(rows)} rows, expected {expected_rows}"
    )


def gate_invocation(tally: Tally, invocation: dict, report_path: str, exit_code: int) -> None:
    """Gate one CLI report file and its exit code against the plan's expectations."""
    tally.check(
        None if exit_code == invocation["exit"]
        else f"{' '.join(invocation['argv'][:3])}: exit {exit_code}, expected {invocation['exit']}"
    )
    with open(report_path, encoding="utf-8") as f, int_digits_limit():
        rows = json.load(f)
    if "rows" in invocation:
        gate_identities(tally, rows, invocation["rows"])
    else:
        gate_verdicts(tally, rows, invocation["keys"])


def gate_deep(tally: Tally, record_path: str, keys) -> None:
    """Gate the verdict record of the library workload (endpoints in hex)."""
    with open(record_path, encoding="utf-8") as f, int_digits_limit():
        rows = json.load(f)
    gate_verdicts(tally, rows, keys, base=16)
