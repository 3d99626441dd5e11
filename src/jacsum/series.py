"""Exact partial sums and rigorous enclosures of the reciprocal series.

Four series families over the Jacobsthal numbers, each starting at an
index n >= 1:

    recip               sum_{k>=n} 1/J(k)
    recip-squared       sum_{k>=n} 1/J(k)^2
    alt-recip           sum_{k>=n} (-1)^k / J(k)
    alt-recip-squared   sum_{k>=n} (-1)^k / J(k)^2

An enclosure is an exact rational interval guaranteed to contain the
series limit: a partial sum through index K plus a two-sided bound on the
omitted tail.  Tail bounds:

  * positive families use 2^(k-2) < J(k) < 2^(k-1), valid for k >= 3,
    summed geometrically over k > K:
        recip:          [2^(1-K),   2^(2-K)]
        recip-squared:  [4^(1-K)/3, 4^(2-K)/3]
  * alternating families use first-omitted-term bracketing, valid once
    term magnitudes strictly decrease (k >= 2): the tail lies between 0
    and term(K+1).

`enclosures` sums on the dyadic grid 2^-p with integers, not with reduced
fractions, where p = e*K + GUARD_BITS (e = `SeriesFamily.power`: 2 for
the squared families, 1 otherwise).  Each term's magnitude 2^p / J(k)^e
is rounded down into the low sum and up into the high sum (for a
negative term the pair is negated and swapped), and the tail bound is
rounded outward onto the same grid in integers: shifts of 1, thirds of
powers of two, or one division by J(K+1)^e.  Endpoints are therefore
exact rationals m / 2^p, and the interval still contains the limit.  Each
enclosure is intersected with the previous one, so the sequence stays
nested.  `partial_sum`, `series_term` and `tail_bound` remain exact.

The rounded terms come from the Lambert expansions, not from one long
division per term.  With s = (-1)^k, 3 J(k) = 2^k - s, so

    1/J(k)   = 3 sum_{j>=1} s^(j-1) 2^(-kj)
    1/J(k)^2 = 9 sum_{j>=1} j s^(j-1) 2^(-k(j+1))

With m = p // k and r = p mod k, the terms of the expansion of
2^p / J(k)^e that are integers (j <= m, resp. j <= m - 1) sum to I_k,
and the rest sum exactly to

    linear:   R_k = s^m 2^r / J(k)
    squared:  R_k = s^(m-1) 2^r (m 2^k - (m-1) s) / J(k)^2

so floor(2^p / J(k)^e) = I_k + floor(R_k).  R_k is never 0 and has the
sign of s^m (resp. s^(m-1)).  For k >= 3, |R_k| < 1 unless r = k - 1
(linear) or r + bitlen(9(m+1)) + 2 > k (squared).  Where |R_k| < 1,
floor(R_k) is 0 or -1 by that sign; elsewhere one division of integers
of about 2k bits settles it.  J(k) is odd and above 1 there, so the
ceiling is the floor plus one.

Over k0 <= k <= K, with k0 = max(start, isqrt(p)), the integer parts are
summed by j: for each j the sum over k of +-2^(p-kd) (d = j, resp. j + 1)
is geometric, one exact division by 2^d -+ 1.  The floors of R_k are
counted over the O(sqrt(p)) blocks of k that share m.  So a pass costs
O(p / k0) operations on p-bit integers plus O(sqrt(p)) small steps,
where the per-term long division cost O(p k) bit operations for every
term, O(p K^2) per pass.  Terms below k0 are still divided one by one;
their divisors have at most e * isqrt(p) bits.

Refinement doubles K from start+8 until a width or decision goal is met,
capped at K <= start + max(4096, 4n).  The cap guarantees termination
even if a limit happens to sit exactly on a floor boundary.  It grows
with n because some decisions need K in proportion to n: the 3.1
proof-implied bracket, for one, first decides at K = 3n - 3 (measured at
n = 32, 64, 96 and 128), which a fixed start + 4096 would cut off for
every even n >= 2050.

`refine_inverse` is the one loop that inverts enclosures, and it runs on
the integers (lo, hi, p) of each round: it skips rounds with
lo <= 0 <= hi and hands a caller-supplied judge the exact reciprocal of
the rest, `intervals.Reciprocal(1 << p, lo, hi)`, which decides floors,
ceilings and bound tests by integer division and cross-multiplication,
until the judge settles.  Both `enclose_inverse` and every theorem claim
run through it.

`Enclosure(spec, lo, hi, p, terms)` is built from a round's integers and
keeps them as its fields; `as_payload` writes each endpoint straight from
them, shifting its trailing zero bits out of m and 2^p, and `_within`,
the one width test of `enclose_sum` and the `sum` command,
cross-multiplies them with the goal.  So from the first round to the
report no `Fraction` is built and no gcd is taken.  `Fraction`s are made
in two places only: when a caller first reads `Enclosure.interval`, which
no command does, and in `enclose_inverse`, which returns the reciprocal
as a `RatInterval`.  Each takes a gcd of p-bit integers: about 12 ms at
p = 100,000 and 190 ms at p = 400,000 (CPython 3.11, one Xeon core).
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterator, TypeVar

from .intervals import RatInterval, Reciprocal, _Record, _ratio_str, _shown
from .sequence import jacobsthal as J

__all__ = [
    "Enclosure",
    "InverseEnclosure",
    "NeedMoreTermsError",
    "SeriesFamily",
    "SeriesSpec",
    "enclose_inverse",
    "enclose_sum",
    "enclosures",
    "partial_sum",
    "refine_inverse",
    "series_term",
    "tail_bound",
]

INITIAL_EXTRA_TERMS = 8
MAX_EXTRA_TERMS = 4096
# extra bits of the dyadic grid beyond e*K: the rounding error of K terms,
# at most K * 2^-p, stays far below the tail width of about 2^-(e*K)
GUARD_BITS = 32


class NeedMoreTermsError(ValueError):
    """The truncation index is too small for the tail bound to be valid."""


class SeriesFamily(str, Enum):
    """A series family and its traits, set once per member: `alternating`
    (terms carry (-1)^k), `squared` (J(k) is squared) and `power`, the
    exponent e of J(k), 2 for the squared families and 1 otherwise."""

    RECIP = "recip"
    RECIP_SQUARED = "recip-squared"
    ALT_RECIP = "alt-recip"
    ALT_RECIP_SQUARED = "alt-recip-squared"

    def __init__(self, value: str) -> None:
        self.alternating = value.startswith("alt-")
        self.squared = value.endswith("-squared")
        self.power = 1 + self.squared


class SeriesSpec(_Record):
    """One series family plus its start index (start >= 1; J(0) = 0)."""

    __slots__ = ("family", "start")

    def __init__(self, family: SeriesFamily | str, start: int) -> None:
        family = SeriesFamily(family)
        if start < 1:
            raise ValueError(f"start must be >= 1, got {_shown(start)}")
        _Record.__init__(self, family, start)


def series_term(spec: SeriesSpec, k: int) -> Fraction:
    """Exact k-th term of the series."""
    if k < 1:
        raise ValueError(f"term index must be >= 1, got {_shown(k)}")
    num = (-1) ** k if spec.family.alternating else 1
    return Fraction(num, J(k) ** spec.family.power)


def partial_sum(spec: SeriesSpec, last: int) -> Fraction:
    """Exact sum of terms from spec.start through `last` inclusive."""
    if last < spec.start:
        raise ValueError(f"last index {_shown(last)} is below start {_shown(spec.start)}")
    total = Fraction(0)
    for k in range(spec.start, last + 1):
        total += series_term(spec, k)
    return total


def _min_tail_index(spec: SeriesSpec) -> int:
    # positive tails need every omitted index >= 3; alternating bracketing
    # needs strictly decreasing magnitudes, which holds from k >= 2
    return max(spec.start, 2 if spec.family.alternating else 3)


def tail_bound(spec: SeriesSpec, last: int) -> RatInterval:
    """Interval guaranteed to contain the omitted remainder beyond `last`."""
    if last < _min_tail_index(spec):
        raise NeedMoreTermsError(
            f"tail bound for {spec.family.value} needs last >= {_shown(_min_tail_index(spec))},"
            f" got {_shown(last)}"
        )
    if spec.family is SeriesFamily.RECIP:
        return RatInterval(Fraction(2) ** (1 - last), Fraction(2) ** (2 - last))
    if spec.family is SeriesFamily.RECIP_SQUARED:
        return RatInterval(Fraction(4) ** (1 - last) / 3, Fraction(4) ** (2 - last) / 3)
    t = series_term(spec, last + 1)  # the first omitted term
    return RatInterval(min(Fraction(0), t), max(Fraction(0), t))


def _zeros(m: int, p: int) -> int:
    """The trailing zero bits of m, at most p: all p of them when m = 0."""
    return min(p, (m & -m).bit_length() - 1) if m else p


def _dyadic_str(m: int, p: int) -> str:
    """m / 2^p as `rat_str` writes it, with no `Fraction` built and no gcd:
    the trailing zero bits of m are shifted out of m and 2^p, and the
    lowest-terms pair is written by `intervals._ratio_str`."""
    t = _zeros(m, p)
    return _ratio_str(m >> t, 1 << (p - t))


class Enclosure(_Record):
    """Partial sum plus tail bound: an interval containing the limit.

    `Enclosure(spec, lo, hi, p, terms)` is the interval [lo / 2^p, hi / 2^p]
    of the series `spec` summed through index `terms` (the truncation point
    K).  It refuses p < 0 and lo > hi with ValueError, and strips the
    trailing zero bits that lo and hi share, down to p = 0, so equal
    intervals on different grids are stored alike, compare equal and hash
    alike.  The five fields (spec, lo, hi, p, terms) are what equality,
    hashing and `repr` read.  `interval`, the same interval as a
    `RatInterval`, is built from them on first use, which takes a gcd of
    p-bit integers, and is kept in the instance's `__dict__`, which is not
    a field.
    """

    __slots__ = ("spec", "lo", "hi", "p", "terms", "__dict__")

    def __init__(self, spec: SeriesSpec, lo: int, hi: int, p: int, terms: int) -> None:
        if p < 0 or lo > hi:
            raise ValueError(
                f"need p >= 0 and lo <= hi, got lo={_shown(lo)}, hi={_shown(hi)}, p={_shown(p)}"
            )
        t = min(_zeros(lo, p), _zeros(hi, p))
        _Record.__init__(self, spec, lo >> t, hi >> t, p - t, terms)

    @cached_property
    def interval(self) -> RatInterval:
        # lo <= hi, checked by the constructor
        return RatInterval._of(Fraction(self.lo, 1 << self.p), Fraction(self.hi, 1 << self.p))

    def as_payload(self) -> dict:
        return {
            "lo": _dyadic_str(self.lo, self.p),
            "hi": _dyadic_str(self.hi, self.p),
            "terms": self.terms,
        }


def _truncation_cap(spec: SeriesSpec, max_terms: int | None) -> int:
    if max_terms is None:
        return spec.start + max(MAX_EXTRA_TERMS, 4 * spec.start)
    if max_terms < 1:
        raise ValueError(f"max_terms must be >= 1, got {_shown(max_terms)}")
    return spec.start + max_terms - 1


def _geometric(p: int, a: int, b: int, d: int, eps: int) -> int:
    """sum_{k=a..b} eps^k 2^(p - k*d), exactly, for eps = +-1 and p >= b*d."""
    n = b - a + 1
    if eps > 0:
        g = ((1 << n * d) - 1) // ((1 << d) - 1)
    else:
        g = ((1 << n * d) - (-1) ** n) // ((1 << d) + 1)
        if a % 2:
            g = -g
    return g << (p - b * d)


def _lambert_floors(family: SeriesFamily, p: int, k0: int, last: int) -> int:
    """sum over k0 <= k <= last of sign(k) * floor(2^p / J(k)^e); needs k0 >= 3.

    floor(2^p / J(k)^e) is the integer part of the Lambert expansion plus
    floor(R_k); see the module docstring.
    """
    squared, alternating, e = family.squared, family.alternating, family.power
    # integer parts, by j: term j of k is 3 (resp. 9j) sign(k) s^(j-1) 2^(p-kd)
    # with d = j + e - 1, an integer for k <= p // d, and sign(k) s^(j-1) is
    # eps^k with eps = (-1)^(j-1+alt), so the sum over k is geometric
    total = 0
    for d in range(e, p // k0 + 1):
        j = d - e + 1
        eps = -1 if (j - 1 + alternating) % 2 else 1
        g = _geometric(p, k0, min(last, p // d), d, eps)
        total += 9 * j * g if squared else 3 * g
    # floor(R_k), over the blocks of k that share m = p // k
    k = k0
    while k <= last:
        m = p // k
        b = min(last, p // m)
        t = m - 1 if squared else m  # R_k has the sign of s^t, s = (-1)^k
        # |R_k| < 1 once (m + 1) * k >= p + slack; below that, one small division
        slack = (9 * (m + 1)).bit_length() + 2 if squared else 2
        c = min(b, (p + slack - 1) // (m + 1))
        for i in range(k, c + 1):
            s = -1 if i % 2 else 1
            if squared:
                num = 9 * (m * (1 << i) - t * s) << (p - m * i)
                den = ((1 << i) - s) ** 2
            else:
                num, den = 3 << (p - m * i), (1 << i) - s
            f = (-num if s < 0 and t % 2 else num) // den
            total += -f if alternating and s < 0 else f
        # the rest have 0 < |R_k| < 1: floor(R_k) is -1 for odd k if t is odd, else 0
        if t % 2:
            odd = (b + 1) // 2 - max(k, c + 1) // 2
            total += odd if alternating else -odd
        k = b + 1
    return total


def _dyadic_bounds(spec: SeriesSpec, last: int) -> tuple[int, int, int]:
    """(lo, hi, p) with lo / 2^p <= limit <= hi / 2^p and p = e*last + GUARD_BITS.

    Needs last >= _min_tail_index(spec).  Each term 1/J(k)^e is floored
    into `lo` and ceiled into `hi` (negated and swapped for negative
    terms), then the tail bound beyond `last` = K is rounded outward onto
    the same grid, in integers: 2^(p+1-K) and 2^(p+2-K) (recip),
    floor(2^(p+2-2K)/3) and ceil(2^(p+4-2K)/3) (recip-squared), or 0 and
    the rounded first omitted term (alternating).  Terms below
    k0 = max(start, isqrt(p)) are divided out one by one; the rest come
    from `_lambert_floors`, and for them (k >= 5, J(k) > 1) the ceiling
    is the floor plus one.
    """
    power = spec.family.power
    p = power * last + GUARD_BITS
    one = 1 << p
    alternating = spec.family.alternating
    k0 = max(spec.start, math.isqrt(p))  # p >= 33, so k0 >= 5
    lo = hi = 0
    for k in range(spec.start, min(k0, last + 1)):
        q, r = divmod(one, J(k) ** power)
        if alternating and k % 2:
            lo -= q + (r != 0)
            hi -= q
        else:
            lo += q
            hi += q + (r != 0)
    if k0 <= last:
        floors = _lambert_floors(spec.family, p, k0, last)
        negative = (last + 1) // 2 - k0 // 2 if alternating else 0
        lo += floors - negative
        hi += floors + (last - k0 + 1 - negative)
    # tail_bound(spec, last), rounded outward onto the grid
    if alternating:
        # between 0 and the first omitted term, +-1/J(last+1)^power
        q, r = divmod(one, J(last + 1) ** power)
        if last % 2:
            hi += q + (r != 0)
        else:
            lo -= q + (r != 0)
    elif power == 1:
        lo += 1 << (p + 1 - last)
        hi += 1 << (p + 2 - last)
    else:
        lo += (1 << (p + 2 - 2 * last)) // 3
        hi += -(-(1 << (p + 4 - 2 * last)) // 3)
    return lo, hi, p


def _rounds(spec: SeriesSpec, max_terms: int | None) -> Iterator[tuple[int, int, int, int]]:
    """(lo, hi, p, K) of each refinement round: the enclosure
    [lo / 2^p, hi / 2^p] at K, 2K, ... up to the cap, each inside the one
    before.  Empty when the budget cannot reach the first valid truncation.
    """
    cap = _truncation_cap(spec, max_terms)
    if cap < _min_tail_index(spec):
        return
    k = min(spec.start + INITIAL_EXTRA_TERMS, cap)
    lo, hi, p = _dyadic_bounds(spec, k)
    while True:
        if lo > hi:
            raise ValueError(
                f"empty enclosure of {spec.family.value} from {_shown(spec.start)}"
                f" at K = {_shown(k)}"
            )
        yield lo, hi, p, k
        if k >= cap:
            return
        k = min(2 * k, cap)
        new_lo, new_hi, new_p = _dyadic_bounds(spec, k)
        # stay nested: intersect with the previous enclosure, moved onto the finer grid
        shift = new_p - p
        lo, hi, p = max(new_lo, lo << shift), min(new_hi, hi << shift), new_p


def enclosures(spec: SeriesSpec, *, max_terms: int | None = None) -> Iterator[Enclosure]:
    """Yield successively tighter enclosures at K, 2K, ... up to the cap.

    `max_terms` optionally limits how many terms may be summed in total
    (the default budget is the cap start + max(4096, 4 * start)).  If the
    budget cannot even reach the first valid truncation the iterator is
    empty; callers then report the result undecided.
    """
    for rnd in _rounds(spec, max_terms):
        yield Enclosure(spec, *rnd)


def enclose_sum(
    spec: SeriesSpec,
    width_goal: Fraction,
    *,
    max_terms: int | None = None,
) -> Enclosure | None:
    """Refine until the enclosure width is <= width_goal.

    Returns the best enclosure reached; the caller decides whether an
    unmet goal (width still above the target at the refinement cap) counts
    as undecided.  Returns None when the budget admits no enclosure at all.
    """
    width_goal = Fraction(width_goal)
    if width_goal <= 0:
        raise ValueError(f"width goal must be positive, got {_shown(width_goal)}")
    best: Enclosure | None = None
    for best in enclosures(spec, max_terms=max_terms):
        if _within(best, width_goal):
            break
    return best


def _within(enc: Enclosure, width_goal: Fraction) -> bool:
    """Whether the width of `enc` is at most `width_goal`: the one test of
    a width goal, made without a `Fraction` or a gcd."""
    # (hi - lo) / 2^p <= num / den, cross-multiplied
    return (enc.hi - enc.lo) * width_goal.denominator <= width_goal.numerator << enc.p


class InverseEnclosure(_Record):
    """Enclosure of the reciprocal of a series limit, plus its floor/ceil.

    `decided` is None when the refinement cap was reached first, either
    because the reciprocal interval kept straddling an integer or because
    the sum enclosure never excluded zero (`interval` is then None too).
    """

    __slots__ = ("spec", "mode", "decided", "interval", "sum_enclosure")

    def __init__(self, spec: SeriesSpec, mode: str, decided: int | None,
                 interval: RatInterval | None, sum_enclosure: Enclosure | None) -> None:
        _Record.__init__(self, spec, mode, decided, interval, sum_enclosure)


_T = TypeVar("_T")


def refine_inverse(
    spec: SeriesSpec,
    judge: Callable[[Reciprocal], _T | None],
    *,
    max_terms: int | None = None,
) -> tuple[_T | None, Reciprocal | None, Enclosure | None]:
    """Refine until `judge` settles on the reciprocal of the sum enclosure.

    Enclosures that straddle zero are skipped; for every other one, the
    judge is asked about its exact reciprocal, a `Reciprocal`, and the
    first result that is not None ends the refinement.  Returns (result,
    the last `Reciprocal` judged, the last sum enclosure); result is None
    when the cap came first.
    """
    result = last = view = None
    for last in _rounds(spec, max_terms):
        lo, hi, p, _ = last
        if lo <= 0 <= hi:
            continue
        view = Reciprocal(1 << p, lo, hi)
        result = judge(view)
        if result is not None:
            break
    return result, view, None if last is None else Enclosure(spec, *last)


def enclose_inverse(
    spec: SeriesSpec,
    mode: str = "floor",
    *,
    max_terms: int | None = None,
) -> InverseEnclosure:
    """Enclose the reciprocal of the series limit and decide its floor/ceil.

    Refines the sum enclosure until zero is excluded and the requested
    rounding of the reciprocal interval is decided, or the cap is reached.
    """
    if mode not in ("floor", "ceil"):
        raise ValueError(f"mode must be 'floor' or 'ceil', got {_shown(mode)}")
    decide = Reciprocal.floor if mode == "floor" else Reciprocal.ceil
    value, view, best = refine_inverse(spec, decide, max_terms=max_terms)
    inverse = None if view is None else RatInterval(
        Fraction(view.d, view.b), Fraction(view.d, view.a)
    )
    return InverseEnclosure(spec, mode, value, inverse, best)
