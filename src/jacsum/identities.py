"""Exact checks for the catalog of Jacobsthal identities and proof steps.

Each check evaluates both sides of one identity (or one inequality step)
in exact arithmetic and records the outcome.  Nothing here is approximate:
`holds` is a statement about exact integers or fully normalized rationals.
Integer-valued sides are kept as `int`; only sides that can be fractional
(step2.2, lemma1.2c's 2^(n-2) at n = 1) are `Fraction`s in a result.

The catalog is one table, `_CATALOG`: per identity its id, its relation,
the first n at which its sides can be computed, the first n of its stated
range, and a generator that evaluates both sides over a range of n,
reading J by subscript from a given indexer, and yields one side tuple
(n, k, holds, lhs, rhs, note) per row.  One evaluator, `_evaluate`, runs
an entry over its range and yields it as parts (id, relation, applicable,
rows), `rows` a lazy iterator of the side tuples; the sweep, `_catalog`,
yields every entry's parts in report order.  They are plain data:
`_results` makes `IdentityResult`s of them, and the report module the
CLI's report text, with nothing else made per row.  The evaluator also
holds the stated-range rule: rows below the stated range come in a part
of their own, flagged not applicable, each note saying where that range
starts.  `check_*` run the evaluator over a one-element range, reading J
from the closed form, and raise `ValueError` below the first computable
n.  A sweep makes one window J(0..2*max(max_n+1, cassini_max)) by one
recurrence pass, and every entry, the Cassini block included, reads its J
from that window; nothing outlives the sweep.

Rational comparisons are made on integers.  step2.1's second form,
1/J(n) - 2/J(n+2) - 1/J(n+3) > 0, is checked as its numerator over the
positive common denominator J(n)J(n+2)J(n+3):
    J(n+2)J(n+3) - 2 J(n)J(n+3) - J(n)J(n+2) > 0.
step2.2's two sides are compared as numerators over their positive common
denominator D = abbccd, with a, b, c, d = J(n-1), J(n), J(n+1), J(n+2);
the left numerator is written ccd(b - a) - 2abb(d + 2c), sharing abb and
ccd with D.  The common value R/D, R = (-1)^(n-1) 2^(n-1) J(2n+1), is
reduced without a full gcd.  J(m) is odd for m >= 1, so D is odd and
gcd(R, D) = gcd(J(2n+1), D).  By Lucas's strong divisibility,
gcd(J(i), J(j)) = J(gcd(i, j)), as J is the Lucas sequence U(1, -2); and
gcd(2n+1, n) = gcd(2n+1, n+1) = 1, gcd(2n+1, n-1) = gcd(2n+1, n+2) =
gcd(3, n-1).  So J(2n+1) is coprime to b and c, and shares with a and d
at most J(3) = 3 each: gcd(R, D) divides 9, and is
g = gcd(R mod 9, D mod 9, 9), which is 1 unless 3 divides n - 1.  The
side tuple carries the reduced pair (R/g, D/g), whose text the report
writes as it is; `_results` makes it the `Fraction` a result holds.  A
left side that differs is a `Fraction` of its own.  The Cassini right side
(-1)^(n-k+1) 2^(n-k) J(k)^2 is J(k)^2 << (n-k), negated when n-k is even,
and every square it and the left side read is made once per sweep.

The catalog ids are stable strings used in reports and sweeps:

    lemma1.1   J(n) + J(n+1) = 2^n                       (n >= 1)
    lemma1.2a  J(n) < 2^n                                (n >= 1)
    lemma1.2b  J(n) < 2^(n-1)                            (n >= 2)
    lemma1.2c  2^(n-2) < J(n) < 2^(n-1)                  (n >= 3)
    lemma1.3   J(n+k)J(n-k) - J(n)^2 = (-1)^(n-k+1) 2^(n-k) J(k)^2
    lemma1.4   J(n+1)^2 - J(n)^2 = 2^(n+1) J(n-1)        (n >= 1)
    lemma1.5   J(n+1)^2 + 2 J(n)^2 = J(2n+1)             (n >= 1)
    step2.1    J(n+1)J(n+3) - J(n)J(n+2) > 0             (n >= 1)
    step2.2    four-term telescoping difference of the squared
               reciprocal series equals its signed closed form (n >= 3)
    step3.1    telescoping numerator of the alternating series
               equals (-1)^n                             (n >= 1)
    step3.3    telescoping numerator of the alternating squared
               series is negative for n >= 5
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from fractions import Fraction
from functools import partial
from math import gcd
from typing import NamedTuple

from .intervals import _Record, _shown
from .sequence import jacobsthal as J
from .sequence import jacobsthal_range

__all__ = [
    "IdentityResult",
    "check_cassini",
    "check_lemma_1_1",
    "check_lemma_1_2",
    "check_lemma_1_4",
    "check_lemma_1_5",
    "check_step_2_1",
    "check_step_2_2",
    "check_step_3_1",
    "check_step_3_3",
    "identity_sweep",
    "iter_identities",
]


class IdentityResult(_Record, frozen=False):
    """Outcome of one exact identity check.

    `holds` means lhs <relation> rhs over exact rationals.  Checks invoked
    outside their stated index range are still computed but are flagged
    `applicable=False`, so sweeps can distinguish vacuous from verified.

    A slotted record, cheap to make by the tens of thousands, that
    compares and prints field by field like the other records: unlike
    them it may be assigned to, and so is not hashable.
    """

    __slots__ = ("identity", "n", "holds", "lhs", "rhs", "relation", "k", "applicable", "note")

    def __init__(
        self, identity: str, n: int, holds: bool, lhs: Fraction | int, rhs: Fraction | int,
        relation: str = "==", k: int | None = None, applicable: bool = True, note: str = "",
    ) -> None:
        self.identity = identity
        self.n = n
        self.holds = holds
        self.lhs = lhs
        self.rhs = rhs
        self.relation = relation
        self.k = k
        self.applicable = applicable
        self.note = note

    @property
    def failed(self) -> bool:
        return self.applicable and not self.holds


class _Entry(NamedTuple):
    """One row of the catalog.  `sides(J, ns)` (lemma1.3: `sides(J, ns,
    only_k)`) yields (n, k, holds, lhs, rhs, note) for each n in ns, k None
    but in lemma1.3, reading every J by subscript from `J`."""

    id: str
    relation: str
    min_n: int  # first n whose sides can be computed
    stated_n: int  # first n of the stated range
    sides: Callable[..., Iterator[tuple]]


def _lemma_1_1(J, ns):
    for n in ns:
        lhs, rhs = J[n] + J[n + 1], 1 << n
        yield n, None, lhs == rhs, lhs, rhs, ""


def _lemma_1_2ab(J, ns, shift):
    # J(n) < 2^(n-shift): lemma1.2a at shift 0, lemma1.2b at shift 1
    for n in ns:
        jn, ub = J[n], 1 << (n - shift)
        yield n, None, jn < ub, jn, ub, ""


def _lemma_1_2c(J, ns):
    # 2^(n-2) is an exact rational even for n < 2
    for n in ns:
        jn, ub = J[n], 1 << (n - 1)
        lb = 1 << (n - 2) if n >= 2 else Fraction(1, 2)
        yield n, None, lb < jn < ub, lb, ub, ""


def _lemma_1_3(J, ns, only_k=None):
    # every offset 1..n at each n, or only_k.  (-1)^(n-k+1) 2^(n-k) J(k)^2 is
    # J(k)^2 << (n-k), negated when n-k is even.  Each square is made once,
    # in a table of J(i)^2 over every i the rows square
    squared = range(ns[-1] + 1) if only_k is None else (ns[0], only_k)
    squares = {i: J[i] ** 2 for i in squared}
    for n in ns:
        jn_sq = squares[n]
        for k in range(1, n + 1) if only_k is None else (only_k,):
            lhs = J[n + k] * J[n - k] - jn_sq
            rhs = squares[k] << (n - k)
            if not (n - k) & 1:
                rhs = -rhs
            yield n, k, lhs == rhs, lhs, rhs, ""


def _lemma_1_4(J, ns):
    for n in ns:
        lhs = J[n + 1] ** 2 - J[n] ** 2
        rhs = J[n - 1] << (n + 1)
        yield n, None, lhs == rhs, lhs, rhs, ""


def _lemma_1_5(J, ns):
    for n in ns:
        lhs = J[n + 1] ** 2 + 2 * J[n] ** 2
        rhs = J[2 * n + 1]
        yield n, None, lhs == rhs, lhs, rhs, ""


def _step_2_1(J, ns):
    for n in ns:
        j0, j1, j2, j3 = J[n], J[n + 1], J[n + 2], J[n + 3]
        diff = j1 * j3 - j0 * j2
        gap = j2 * j3 - 2 * j0 * j3 - j0 * j2
        if (diff > 0) != (gap > 0):
            raise RuntimeError(f"step2.1 forms disagree at n={n}: {diff} vs {gap}")
        yield n, None, diff > 0 and gap > 0, diff, 0, ""


def _step_2_2(J, ns):
    # b c^2 d - a c^2 d - 2 a b^2 d - 4 a b^2 c, factored to share a b^2 and
    # c^2 d with the denominator a b^2 c^2 d
    for n in ns:
        a, b, c, d = J[n - 1], J[n], J[n + 1], J[n + 2]
        ab_sq, c_sq_d = a * b * b, c * c * d
        denom = ab_sq * c_sq_d
        lhs_num = c_sq_d * (b - a) - (ab_sq * (d + 2 * c) << 1)
        rhs_num = J[2 * n + 1] << (n - 1)
        if not n & 1:
            rhs_num = -rhs_num
        # gcd(rhs_num, denom) divides 9 (see the module docstring)
        g = gcd(rhs_num % 9, denom % 9, 9)
        rhs = (rhs_num // g, denom // g)
        lhs = rhs if lhs_num == rhs_num else Fraction(lhs_num, denom)
        sign = "positive" if lhs_num > 0 else ("negative" if lhs_num < 0 else "zero")
        yield n, None, lhs_num == rhs_num, lhs, rhs, f"common value {sign}"


def _step_3_1(J, ns):
    for n in ns:
        sign = -1 if n & 1 else 1
        lhs = -sign * J[n - 1] * J[n + 1] + J[n + 1] - J[n - 1] + sign * J[n] ** 2 + sign
        yield n, None, lhs == sign, lhs, sign, ""


def _step_3_3(J, ns):
    for n in ns:
        sign = -1 if n & 1 else 1
        a_sq, b_sq, c_sq = J[n - 1] ** 2, J[n] ** 2, J[n + 1] ** 2
        direct = -sign * a_sq * c_sq + c_sq - a_sq + sign * b_sq**2 + sign
        substituted = (
            (J[n - 1] << (n + 1)) + b_sq - sign * (1 << (2 * n - 2)) - a_sq - (b_sq << n) + sign
        )
        if direct != substituted:
            raise RuntimeError(
                f"step3.3 numerator forms disagree at n={n}: {direct} vs {substituted}"
            )
        note = f"value {'<' if direct < 0 else '>=' } 0"
        if n < 5:
            note += "; negativity is claimed only from n=5"
        yield n, None, (direct < 0 if n >= 5 else True), direct, 0, note


# the catalog in report order: by id, then (in a sweep) by n, then k
_CATALOG = {
    entry.id: entry
    for entry in (
        _Entry("lemma1.1", "==", 0, 1, _lemma_1_1),
        _Entry("lemma1.2a", "<", 1, 1, lambda J, ns: _lemma_1_2ab(J, ns, 0)),
        _Entry("lemma1.2b", "<", 1, 2, lambda J, ns: _lemma_1_2ab(J, ns, 1)),
        _Entry("lemma1.2c", "< J(n) <", 1, 3, _lemma_1_2c),
        _Entry("lemma1.3", "==", 1, 1, _lemma_1_3),
        _Entry("lemma1.4", "==", 1, 1, _lemma_1_4),
        _Entry("lemma1.5", "==", 1, 1, _lemma_1_5),
        _Entry("step2.1", ">", 1, 1, _step_2_1),
        _Entry("step2.2", "==", 2, 3, _step_2_2),  # J(n-1) is a denominator
        _Entry("step3.1", "==", 1, 1, _step_3_1),
        _Entry("step3.3", "<", 1, 1, _step_3_3),
    )
}


def _evaluate(entry: _Entry, J, ns: range, only_k: int | None = None) -> Iterator[tuple]:
    """The parts (id, relation, applicable, rows) of one entry's rows over
    the indices `ns`, all computable (lemma1.3: every offset 1..n, or
    only_k), `rows` a lazy iterator of side tuples.  The stated-range rule:
    the rows below the stated range, if any, come first, in a part of their
    own, not applicable and each noting where that range starts; the rows
    inside it come as the entry yields them."""
    sides = entry.sides if only_k is None else partial(entry.sides, only_k=only_k)
    stated = entry.stated_n
    below = range(ns.start, min(ns.stop, stated))
    if below:
        where = f"stated range starts at n={stated}"
        rows = ((n, k, holds, lhs, rhs, f"{note}; {where}" if note else where)
                for n, k, holds, lhs, rhs, note in sides(J, below))
        yield entry.id, entry.relation, False, rows
    within = range(max(ns.start, stated), ns.stop)
    if within:
        yield entry.id, entry.relation, True, sides(J, within)


def _results(parts: Iterable[tuple]) -> Iterator[IdentityResult]:
    """An `IdentityResult` per side tuple of the parts, lazily, step2.2's
    reduced pair (p, q) made the normalized `Fraction` p/q."""
    for ident, relation, applicable, rows in parts:
        for n, k, holds, lhs, rhs, note in rows:
            if type(rhs) is tuple:  # step2.2's pair: one Fraction, both sides' if equal
                value = Fraction(*rhs)
                lhs, rhs = value if lhs is rhs else lhs, value
            yield IdentityResult(ident, n, holds, lhs, rhs, relation, k, applicable, note)


class _ClosedForm:
    """J by subscript, each value from the closed form: the single checks'
    J, which holds no window."""

    def __getitem__(self, n: int) -> int:
        return J(n)


def _check(ident: str, n: int, k: int | None = None) -> IdentityResult:
    """One check at n (and k): `_evaluate` over a one-element range, reading J
    from the closed form; below the first computable n it raises `ValueError`."""
    entry = _CATALOG[ident]
    if n < entry.min_n:
        raise ValueError(f"{ident} needs n >= {entry.min_n}, got {_shown(n)}")
    return next(_results(_evaluate(entry, _ClosedForm(), range(n, n + 1), k)))


def check_lemma_1_1(n: int) -> IdentityResult:
    """J(n) + J(n+1) = 2^n; stated for n >= 1, computable at n = 0."""
    return _check("lemma1.1", n)


def check_lemma_1_2(n: int) -> tuple[IdentityResult, IdentityResult, IdentityResult]:
    """The three power-of-two bounds on J(n), each on its own range.

    Sub-checks below their stated range are computed anyway and flagged
    not-applicable (2^(n-2) is an exact rational even for n < 2).
    """
    return tuple(_check(i, n) for i in ("lemma1.2a", "lemma1.2b", "lemma1.2c"))


def check_cassini(n: int, k: int) -> IdentityResult:
    """Cassini-like product formula at offset k, 1 <= k <= n.

    At k = n the left side collapses through J(0) = 0 to -J(n)^2.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={_shown(k)}, n={_shown(n)}")
    return _check("lemma1.3", n, k)


def check_lemma_1_4(n: int) -> IdentityResult:
    """J(n+1)^2 - J(n)^2 = 2^(n+1) J(n-1) for n >= 1."""
    return _check("lemma1.4", n)


def check_lemma_1_5(n: int) -> IdentityResult:
    """J(n+1)^2 + 2 J(n)^2 = J(2n+1) for n >= 1."""
    return _check("lemma1.5", n)


def check_step_2_1(n: int) -> IdentityResult:
    """J(n+1)J(n+3) - J(n)J(n+2) > 0, equivalently
    1/J(n) > 2/J(n+2) + 1/J(n+3); both forms are checked exactly, the
    second as its numerator over the positive denominator J(n)J(n+2)J(n+3)."""
    return _check("step2.1", n)


def check_step_2_2(n: int) -> IdentityResult:
    """Telescoping step of the squared reciprocal series.

    1/(J(n-1)J(n)) - 1/J(n)^2 - 2/J(n+1)^2 - 4/(J(n+1)J(n+2)) equals
    (-1)^(n-1) 2^(n-1) J(2n+1) / (J(n-1) J(n)^2 J(n+1)^2 J(n+2)) exactly.
    Both sides are compared as numerators over that positive denominator.
    Needs J(n-1) > 0, so n >= 2 is computable; the stated range is n >= 3.
    """
    return _check("step2.2", n)


def check_step_3_1(n: int) -> IdentityResult:
    """Numerator of the alternating-series telescoping step equals (-1)^n.

    The combined three-term difference of shifted alternating reciprocals
    has numerator
        (-1)^(n+1) J(n-1)J(n+1) + J(n+1) - J(n-1) + (-1)^n J(n)^2 + (-1)^n,
    which must collapse to (-1)^n for every n >= 1.
    """
    return _check("step3.1", n)


def check_step_3_3(n: int) -> IdentityResult:
    """Sign of the telescoping numerator for the alternating squared series.

    The numerator
        (-1)^(n+1) J(n-1)^2 J(n+1)^2 + J(n+1)^2 - J(n-1)^2
        + (-1)^n J(n)^4 + (-1)^n
    is also evaluated through its substituted form
        2^(n+1) J(n-1) + J(n)^2 + (-1)^(n+1) 2^(2n-2)
        - J(n-1)^2 - 2^n J(n)^2 + (-1)^n;
    a mismatch between the two is a hard error.  The claim under test is
    that the value is negative for n >= 5; smaller n record the sign only.
    """
    return _check("step3.3", n)


def identity_sweep(max_n: int, cassini_max: int) -> list[IdentityResult]:
    """Run every catalog check over its stated range up to the given caps.

    Single-index checks sweep 1..max_n (step2.2 starts at 3); the Cassini
    family sweeps all 1 <= k <= n <= cassini_max.  Output order is
    deterministic: by identity id, then n, then k.
    """
    return list(iter_identities(max_n, cassini_max))


def iter_identities(max_n: int, cassini_max: int) -> Iterator[IdentityResult]:
    """The results of `identity_sweep`, in the same order, one at a time.

    The caps are checked here, before the first result is made; the checks
    themselves run lazily, so a caller can write each result as it comes
    without holding the sweep.
    """
    return _results(_catalog(max_n, cassini_max))


def _catalog(max_n: int, cassini_max: int) -> Iterator[tuple]:
    """The sweep's parts, lazily, in report order (see `_evaluate`): one per
    catalog entry, two for an entry whose rows start below its stated
    range.  The caps are checked first, on the call."""
    if max_n < 1:
        raise ValueError(f"need max_n >= 1, got {_shown(max_n)}")
    if cassini_max < 1:
        raise ValueError(f"need cassini_max >= 1, got {_shown(cassini_max)}")
    # every entry reads one window J(0..2*max(max_n+1, cassini_max)): lemma1.5
    # needs J(2*max_n+1), the Cassini block J(2*cassini_max).  From n = 1
    # where computable, below the stated range included; step2.2 is not, and
    # starts at its stated n
    J = jacobsthal_range(0, 2 * max(max_n + 1, cassini_max))
    return (
        part
        for e in _CATALOG.values()
        for part in _evaluate(e, J, range(1 if e.min_n <= 1 else e.stated_n,
                                          (cassini_max if e.id == "lemma1.3" else max_n) + 1))
    )
