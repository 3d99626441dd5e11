"""Jacobsthal numbers and integer evaluations of Jacobsthal polynomials.

The sequence is J(0) = 0, J(1) = 1, J(n) = J(n-1) + 2*J(n-2).  Everything
here is exact integer arithmetic; a process-wide grow-only cache keeps
contiguous verification sweeps cheap.
"""

from __future__ import annotations

import threading

__all__ = [
    "jacobsthal",
    "jacobsthal_closed_form",
    "jacobsthal_poly",
    "jacobsthal_range",
]


def jacobsthal_closed_form(n: int) -> int:
    """(2^n - (-1)^n) / 3, computed without the recurrence.

    Kept as an independent path so the recurrence-based cache can be
    cross-checked against it.
    """
    if n < 0:
        raise ValueError(f"index must be >= 0, got {n}")
    return ((1 << n) - (-1 if n % 2 else 1)) // 3


class SequenceCache:
    """Grow-only, densely indexed store of Jacobsthal numbers.

    Reads of already-cached indices are lock-free; extension is serialized
    so concurrent sweeps may share one instance.  Entries are never mutated
    once appended.
    """

    def __init__(self) -> None:
        self._values = [0, 1]
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._values)

    def get(self, n: int) -> int:
        values = self._values
        if n < len(values):
            return values[n]
        with self._lock:
            values = self._values
            while len(values) <= n:
                nxt = values[-1] + 2 * values[-2]
                if __debug__:
                    # redundant closed-form path catches recurrence faults
                    assert nxt == jacobsthal_closed_form(len(values))
                values.append(nxt)
            return values[n]


_CACHE = SequenceCache()


def jacobsthal(n: int) -> int:
    """n-th Jacobsthal number, exact at any index."""
    if n < 0:
        raise ValueError(f"index must be >= 0, got {n}")
    return _CACHE.get(n)


def jacobsthal_range(lo: int, hi: int) -> list[int]:
    """[J(lo), ..., J(hi)] inclusive, as a new list; requires 0 <= lo <= hi."""
    if not 0 <= lo <= hi:
        raise ValueError(f"need 0 <= lo <= hi, got lo={lo}, hi={hi}")
    _CACHE.get(hi)
    return _CACHE._values[lo : hi + 1]


def jacobsthal_poly(n: int, x: int) -> int:
    """Value of the degree-n Jacobsthal polynomial at an integer x.

    P(0) = 0, P(1) = 1, P(n) = P(n-1) + x*P(n-2).  At x = 2 this equals
    jacobsthal(n); at x = 1 it is the Fibonacci sequence.
    """
    if n < 0:
        raise ValueError(f"index must be >= 0, got {n}")
    if n == 0:
        return 0
    a, b = 0, 1
    for _ in range(n - 1):
        a, b = b, b + x * a
    return b
