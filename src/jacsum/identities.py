"""Exact checks for the catalog of Jacobsthal identities and proof steps.

Each check evaluates both sides of one identity (or one inequality step)
in exact arithmetic and records the outcome.  Nothing here is approximate:
`holds` is a statement about exact integers or fully normalized rationals.
Integer-valued sides are kept as `int`; only sides that can be fractional
(step2.2, lemma1.2c's 2^(n-2) at n = 1) are `Fraction`s.

Rational comparisons are made on integers.  step2.1's second form,
1/J(n) - 2/J(n+2) - 1/J(n+3) > 0, is checked as its numerator over the
positive common denominator J(n)J(n+2)J(n+3):
    J(n+2)J(n+3) - 2 J(n)J(n+3) - J(n)J(n+2) > 0.
step2.2's two sides are compared as numerators over their positive common
denominator D = J(n-1) J(n)^2 J(n+1)^2 J(n+2); the reported value is one
reduced `Fraction`, and a separate left side is built only if they differ.

The Cassini right side (-1)^(n-k+1) 2^(n-k) J(k)^2 is J(k)^2 << (n-k),
negated when n-k is even.  The sweep evaluates it for every 1 <= k <= n
from one table J(0..2*cassini_max) and one J(n)^2 per n; `check_cassini`
goes through the same formula.

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

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

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


@dataclass(slots=True)
class IdentityResult:
    """Outcome of one exact identity check.

    `holds` means lhs <relation> rhs over exact rationals.  Checks invoked
    outside their stated index range are still computed but are flagged
    `applicable=False`, so sweeps can distinguish vacuous from verified.

    A plain slotted record, cheap to make by the tens of thousands: it is
    not frozen and, since it compares by value, not hashable.
    """

    identity: str
    n: int
    holds: bool
    lhs: Fraction | int
    rhs: Fraction | int
    relation: str = "=="
    k: int | None = None
    applicable: bool = True
    note: str = ""

    @property
    def failed(self) -> bool:
        return self.applicable and not self.holds


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


def check_lemma_1_1(n: int) -> IdentityResult:
    """J(n) + J(n+1) = 2^n; stated for n >= 1, computable at n = 0."""
    _require(n >= 0, f"need n >= 0, got {n}")
    lhs = J(n) + J(n + 1)
    rhs = 2**n
    return IdentityResult(
        "lemma1.1",
        n,
        lhs == rhs,
        lhs,
        rhs,
        applicable=n >= 1,
        note="" if n >= 1 else "stated range starts at n=1",
    )


def check_lemma_1_2(n: int) -> tuple[IdentityResult, IdentityResult, IdentityResult]:
    """The three power-of-two bounds on J(n), each on its own range.

    Sub-checks below their stated range are computed anyway and flagged
    not-applicable (2^(n-2) is an exact rational even for n < 2).
    """
    _require(n >= 1, f"need n >= 1, got {n}")
    return _lemma_1_2a(n), _lemma_1_2b(n), _lemma_1_2c(n)


def _lemma_1_2a(n: int) -> IdentityResult:
    jn = J(n)
    return IdentityResult("lemma1.2a", n, jn < 2**n, jn, 2**n, relation="<")


def _lemma_1_2b(n: int) -> IdentityResult:
    jn, ub = J(n), 2 ** (n - 1)
    return IdentityResult(
        "lemma1.2b",
        n,
        jn < ub,
        jn,
        ub,
        relation="<",
        applicable=n >= 2,
        note="" if n >= 2 else "stated range starts at n=2",
    )


def _lemma_1_2c(n: int) -> IdentityResult:
    jn, ub = J(n), 2 ** (n - 1)
    lb = 2 ** (n - 2) if n >= 2 else Fraction(1, 2)
    return IdentityResult(
        "lemma1.2c",
        n,
        lb < jn < ub,
        lb,
        ub,
        relation="< J(n) <",
        applicable=n >= 3,
        note="" if n >= 3 else "stated range starts at n=3",
    )


def check_cassini(n: int, k: int) -> IdentityResult:
    """Cassini-like product formula at offset k, 1 <= k <= n.

    At k = n the left side collapses through J(0) = 0 to -J(n)^2.
    """
    _require(n >= 1, f"need n >= 1, got {n}")
    _require(1 <= k <= n, f"need 1 <= k <= n, got k={k}, n={n}")
    return _cassini(n, k, J(n + k) * J(n - k), J(n) ** 2, J(k) ** 2)


def _cassini(n: int, k: int, product: int, jn_sq: int, jk_sq: int) -> IdentityResult:
    # lemma1.3 from J(n+k)J(n-k), J(n)^2 and J(k)^2; (-1)^(n-k+1) is -1 for even n-k
    lhs = product - jn_sq
    rhs = jk_sq << (n - k)
    if not (n - k) & 1:
        rhs = -rhs
    return IdentityResult("lemma1.3", n, lhs == rhs, lhs, rhs, k=k)


def _cassini_sweep(cassini_max: int) -> Iterator[IdentityResult]:
    # every 1 <= k <= n <= cassini_max, by n then k, from one table J(0..2*cassini_max)
    js = jacobsthal_range(0, 2 * cassini_max)
    squares = [j * j for j in js[: cassini_max + 1]]
    for n in range(1, cassini_max + 1):
        jn_sq = squares[n]
        for k in range(1, n + 1):
            yield _cassini(n, k, js[n + k] * js[n - k], jn_sq, squares[k])


def check_lemma_1_4(n: int) -> IdentityResult:
    """J(n+1)^2 - J(n)^2 = 2^(n+1) J(n-1) for n >= 1."""
    _require(n >= 1, f"need n >= 1, got {n}")
    lhs = J(n + 1) ** 2 - J(n) ** 2
    rhs = 2 ** (n + 1) * J(n - 1)
    return IdentityResult("lemma1.4", n, lhs == rhs, lhs, rhs)


def check_lemma_1_5(n: int) -> IdentityResult:
    """J(n+1)^2 + 2 J(n)^2 = J(2n+1) for n >= 1."""
    _require(n >= 1, f"need n >= 1, got {n}")
    lhs = J(n + 1) ** 2 + 2 * J(n) ** 2
    rhs = J(2 * n + 1)
    return IdentityResult("lemma1.5", n, lhs == rhs, lhs, rhs)


def check_step_2_1(n: int) -> IdentityResult:
    """J(n+1)J(n+3) - J(n)J(n+2) > 0, equivalently
    1/J(n) > 2/J(n+2) + 1/J(n+3); both forms are checked exactly, the
    second as its numerator over the positive denominator J(n)J(n+2)J(n+3)."""
    _require(n >= 1, f"need n >= 1, got {n}")
    j0, j1, j2, j3 = J(n), J(n + 1), J(n + 2), J(n + 3)
    diff = j1 * j3 - j0 * j2
    gap = j2 * j3 - 2 * j0 * j3 - j0 * j2
    if (diff > 0) != (gap > 0):
        raise RuntimeError(f"step2.1 forms disagree at n={n}: {diff} vs {gap}")
    return IdentityResult("step2.1", n, diff > 0 and gap > 0, diff, 0, relation=">")


def check_step_2_2(n: int) -> IdentityResult:
    """Telescoping step of the squared reciprocal series.

    1/(J(n-1)J(n)) - 1/J(n)^2 - 2/J(n+1)^2 - 4/(J(n+1)J(n+2)) equals
    (-1)^(n-1) 2^(n-1) J(2n+1) / (J(n-1) J(n)^2 J(n+1)^2 J(n+2)) exactly.
    Both sides are compared as numerators over that positive denominator.
    Needs J(n-1) > 0, so n >= 2 is computable; the stated range is n >= 3.
    """
    _require(n >= 2, f"need n >= 2 (J(n-1) appears in a denominator), got {n}")
    a, b, c, d = J(n - 1), J(n), J(n + 1), J(n + 2)
    b_sq, c_sq = b * b, c * c
    denom = a * b_sq * c_sq * d
    lhs_num = b * c_sq * d - a * c_sq * d - 2 * a * b_sq * d - 4 * a * b_sq * c
    rhs_num = J(2 * n + 1) << (n - 1)
    if not n & 1:
        rhs_num = -rhs_num
    rhs = Fraction(rhs_num, denom)
    lhs = rhs if lhs_num == rhs_num else Fraction(lhs_num, denom)
    sign = "positive" if lhs_num > 0 else ("negative" if lhs_num < 0 else "zero")
    return IdentityResult(
        "step2.2",
        n,
        lhs_num == rhs_num,
        lhs,
        rhs,
        applicable=n >= 3,
        note=f"common value {sign}" + ("" if n >= 3 else "; stated range starts at n=3"),
    )


def check_step_3_1(n: int) -> IdentityResult:
    """Numerator of the alternating-series telescoping step equals (-1)^n.

    The combined three-term difference of shifted alternating reciprocals
    has numerator
        (-1)^(n+1) J(n-1)J(n+1) + J(n+1) - J(n-1) + (-1)^n J(n)^2 + (-1)^n,
    which must collapse to (-1)^n for every n >= 1.
    """
    _require(n >= 1, f"need n >= 1, got {n}")
    sign = (-1) ** n
    lhs = -sign * J(n - 1) * J(n + 1) + J(n + 1) - J(n - 1) + sign * J(n) ** 2 + sign
    return IdentityResult("step3.1", n, lhs == sign, lhs, sign)


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
    _require(n >= 1, f"need n >= 1, got {n}")
    sign = (-1) ** n
    direct = (
        -sign * J(n - 1) ** 2 * J(n + 1) ** 2
        + J(n + 1) ** 2
        - J(n - 1) ** 2
        + sign * J(n) ** 4
        + sign
    )
    substituted = (
        2 ** (n + 1) * J(n - 1)
        + J(n) ** 2
        - sign * 2 ** (2 * n - 2)
        - J(n - 1) ** 2
        - 2**n * J(n) ** 2
        + sign
    )
    if direct != substituted:
        raise RuntimeError(
            f"step3.3 numerator forms disagree at n={n}: {direct} vs {substituted}"
        )
    holds = direct < 0 if n >= 5 else True
    note = f"value {'<' if direct < 0 else '>=' } 0"
    if n < 5:
        note += "; negativity is claimed only from n=5"
    return IdentityResult("step3.3", n, holds, direct, 0, relation="<", note=note)


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
    _require(max_n >= 1, f"need max_n >= 1, got {max_n}")
    _require(cassini_max >= 1, f"need cassini_max >= 1, got {cassini_max}")
    return _catalog(max_n, cassini_max)


def _catalog(max_n: int, cassini_max: int) -> Iterator[IdentityResult]:
    # one block per id, in id order: lemma1.1 < lemma1.2a < ... < lemma1.3
    # < lemma1.4 < ... < step3.3, each block by n, then k
    ns = range(1, max_n + 1)
    yield from map(check_lemma_1_1, ns)
    yield from map(_lemma_1_2a, ns)
    yield from map(_lemma_1_2b, ns)
    yield from map(_lemma_1_2c, ns)
    yield from _cassini_sweep(cassini_max)
    yield from map(check_lemma_1_4, ns)
    yield from map(check_lemma_1_5, ns)
    yield from map(check_step_2_1, ns)
    yield from map(check_step_2_2, range(3, max_n + 1))
    yield from map(check_step_3_1, ns)
    yield from map(check_step_3_3, ns)
