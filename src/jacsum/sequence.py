"""Jacobsthal numbers and integer evaluations of Jacobsthal polynomials.

The sequence is J(0) = 0, J(1) = 1, J(n) = J(n-1) + 2*J(n-2).  Everything
here is exact integer arithmetic and holds no state between calls: a single
J(n) comes from the closed form (2^n - (-1)^n) / 3 in O(n) time, and a run
J(lo..hi) from one pass of the recurrence, so a caller keeps only the
values it asked for.
"""

from __future__ import annotations

from .intervals import _shown

__all__ = [
    "jacobsthal",
    "jacobsthal_closed_form",
    "jacobsthal_poly",
    "jacobsthal_range",
]


def jacobsthal(n: int) -> int:
    """n-th Jacobsthal number, exact at any index, from the closed form
    (2^n - (-1)^n) / 3 without the recurrence."""
    if n < 0:
        raise ValueError(f"index must be >= 0, got {_shown(n)}")
    return ((1 << n) - (-1 if n & 1 else 1)) // 3


# one implementation under both public names
jacobsthal_closed_form = jacobsthal


def jacobsthal_range(lo: int, hi: int) -> list[int]:
    """[J(lo), ..., J(hi)] inclusive, as a new list; requires 0 <= lo <= hi.

    One pass of the recurrence, started from the closed-form J(lo) and
    J(lo+1).
    """
    if not 0 <= lo <= hi:
        raise ValueError(f"need 0 <= lo <= hi, got lo={_shown(lo)}, hi={_shown(hi)}")
    a, b = jacobsthal(lo), jacobsthal(lo + 1)
    values = []
    for _ in range(lo, hi + 1):
        values.append(a)
        a, b = b, b + 2 * a
    return values


def jacobsthal_poly(n: int, x: int) -> int:
    """Value of the degree-n Jacobsthal polynomial at an integer x.

    P(0) = 0, P(1) = 1, P(n) = P(n-1) + x*P(n-2).  At x = 2 this equals
    jacobsthal(n); at x = 1 it is the Fibonacci sequence.
    """
    if n < 0:
        raise ValueError(f"index must be >= 0, got {_shown(n)}")
    a, b = 0, 1
    for _ in range(n):
        a, b = b, b + x * a
    return a
