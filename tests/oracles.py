"""Independent oracle used throughout the tests.

Deliberately avoids every package code path: Jacobsthal numbers come from
the oracle's own closed form (2^n - (-1)^n)/3, not `jacobsthal`, series
values from brute-force exact truncation with an explicit tail margin,
and floors/ceilings are accepted only when stable under that margin.
"""

from __future__ import annotations

import math
from fractions import Fraction

FAMILIES = ("recip", "recip-squared", "alt-recip", "alt-recip-squared")


def jac(n: int) -> int:
    return (2**n - (-1) ** n) // 3


def term(family: str, k: int) -> Fraction:
    j = jac(k)
    denom = j * j if "squared" in family else j
    sign = (-1) ** k if family.startswith("alt") else 1
    return Fraction(sign, denom)


_prefix: dict[str, list[Fraction]] = {}


def _prefix_sums(family: str, upto: int) -> list[Fraction]:
    # lst[i] = sum of terms 1..i; shared across tests for speed
    lst = _prefix.setdefault(family, [Fraction(0)])
    while len(lst) <= upto:
        lst.append(lst[-1] + term(family, len(lst)))
    return lst


def truncation(family: str, start: int, last: int) -> Fraction:
    """Exact sum of terms start..last inclusive."""
    p = _prefix_sums(family, last)
    return p[last] - p[start - 1]


def tail_margin(family: str, last: int) -> Fraction:
    # |term(k)| <= 4*2^-k (linear) resp. 16*4^-k (squared) for k >= 1,
    # so the absolute tail beyond `last` is below these geometric sums
    if "squared" in family:
        return Fraction(6, 4**last)
    return Fraction(4, 2**last)


def sum_bracket(family: str, start: int, last: int) -> tuple[Fraction, Fraction]:
    """Exact interval certain to contain the series limit."""
    s = truncation(family, start, last)
    eps = tail_margin(family, last)
    return s - eps, s + eps


def _default_depth(start: int) -> int:
    # the alternating inverses sit within ~2^-n of an integer, so floor
    # stability needs truncation depth ~3n; 3n+120 is comfortable
    return 3 * start + 120


def _same_strict_sign(lo: Fraction, hi: Fraction) -> bool:
    # lo * hi > 0, without multiplying two ~250k-bit rationals
    return (lo > 0 and hi > 0) or (lo < 0 and hi < 0)


def floor_of_inverse(family: str, start: int, depth: int | None = None) -> int:
    lo, hi = sum_bracket(family, start, depth or _default_depth(start))
    assert _same_strict_sign(lo, hi), f"sum bracket straddles zero for {family}@{start}"
    f_lo, f_hi = math.floor(1 / hi), math.floor(1 / lo)
    assert f_lo == f_hi, f"oracle floor unstable for {family}@{start}; deepen"
    return f_lo


def ceil_of_inverse(family: str, start: int, depth: int | None = None) -> int:
    lo, hi = sum_bracket(family, start, depth or _default_depth(start))
    assert _same_strict_sign(lo, hi), f"sum bracket straddles zero for {family}@{start}"
    c_lo, c_hi = math.ceil(1 / hi), math.ceil(1 / lo)
    assert c_lo == c_hi, f"oracle ceiling unstable for {family}@{start}; deepen"
    return c_lo


def step_2_1_gap(n: int) -> Fraction:
    """1/J(n) - 2/J(n+2) - 1/J(n+3), summed as exact rationals."""
    return Fraction(1, jac(n)) - Fraction(2, jac(n + 2)) - Fraction(1, jac(n + 3))


def step_2_2_sides(n: int) -> tuple[Fraction, Fraction]:
    """Both sides of the squared-series telescoping step, as exact rationals."""
    a, b, c, d = jac(n - 1), jac(n), jac(n + 1), jac(n + 2)
    lhs = Fraction(1, a * b) - Fraction(1, b**2) - Fraction(2, c**2) - Fraction(4, c * d)
    rhs = Fraction((-1) ** (n - 1) * 2 ** (n - 1) * jac(2 * n + 1), a * b**2 * c**2 * d)
    return lhs, rhs


def float_truncation(family: str, start: int, count: int) -> float:
    """Double-precision summation of `count` terms, for midpoint checks."""
    return sum(float(term(family, k)) for k in range(start, start + count))


def dyadic_bounds(family: str, start: int, last: int, guard_bits: int) -> tuple[int, int, int]:
    """Per-term long-division reference for `series._dyadic_bounds`.

    (lo, hi, p) with p = e*last + guard_bits: each term's magnitude
    divmod(2^p, J(k)^e) is floored into lo and ceiled into hi (negated and
    swapped for negative terms), then the exact tail bound beyond `last`
    is rounded outward onto the grid 2^-p.
    """
    power = 2 if "squared" in family else 1
    alternating = family.startswith("alt")
    p = power * last + guard_bits
    one = 1 << p
    lo = hi = 0
    for k in range(start, last + 1):
        q, r = divmod(one, jac(k) ** power)
        if alternating and k % 2:
            lo -= q + (r != 0)
            hi -= q
        else:
            lo += q
            hi += q + (r != 0)
    if alternating:
        t = term(family, last + 1)
        tail_lo, tail_hi = min(Fraction(0), t), max(Fraction(0), t)
    elif power == 2:
        tail_lo, tail_hi = Fraction(4) ** (1 - last) / 3, Fraction(4) ** (2 - last) / 3
    else:
        tail_lo, tail_hi = Fraction(2) ** (1 - last), Fraction(2) ** (2 - last)
    lo += (tail_lo.numerator << p) // tail_lo.denominator
    hi -= (-tail_hi.numerator << p) // tail_hi.denominator
    return lo, hi, p
