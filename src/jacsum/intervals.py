"""Exact rational intervals with decidable floor and ceiling.

`RatInterval` has `fractions.Fraction` endpoints.  `Reciprocal` is the
exact interval [d/b, d/a] of integers, the reciprocal of [a/d, b/d]; it
decides floors, ceilings and bound tests by integer division and
cross-multiplication, with no gcd.  Every comparison on a decision path
is exact: no floating point enters any verdict.

The module owns the text of exact numbers.  `int_str` writes an integer
whatever the interpreter's int-to-str digit limit; `_ratio_str` writes a
lowest-terms num/den as "p/q", or "p" when q = 1.  It writes every
enclosure endpoint, width and identity side in a report and every
rational an error message quotes, through `rat_str`, `_shown`,
`series._dyadic_str` and `report._side_text`.  `_parse_rat` reads such
text back and refuses any other text, and `_approx_decimal` writes a
rational's six-place decimal for plain reports.

`_Record` is the small base of jacsum's records, `RatInterval` among
them: slotted classes that compare, hash, print and pickle field by field.
Its `__init__` is the one store of a record's fields; a record's own
`__init__` checks and converts its arguments and ends in a call of it.
"""

from __future__ import annotations

import decimal
import math
import re
from fractions import Fraction
from typing import Callable, Union

__all__ = [
    "NotInvertibleError",
    "RatInterval",
    "Reciprocal",
    "ceil_decide",
    "floor_decide",
    "int_str",
    "interval_reciprocal",
    "rat_str",
]

RatLike = Union[Fraction, int]


class NotInvertibleError(ValueError):
    """The interval contains zero, so it has no bounded reciprocal image."""


# int_str's fallback converts an integer of at most _SPLIT_BITS bits
# 10^_CHUNK at a time; CPython never sets its int-to-str digit limit below
# 640, so str() of one chunk always succeeds.  That takes time quadratic in
# the length, so a longer integer is split in binary halves down to pieces
# of that size, which are combined in exact decimal arithmetic: no
# operation may round.  Below about 2^15 bits the chunks are the faster of
# the two, above it the split (CPython 3.11).
_CHUNK = 500
_CHUNK_BASE = 10**_CHUNK
_SPLIT_BITS = 1 << 15
_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, traps=[decimal.Inexact])


def _chunked(value: int) -> str:
    """Decimal form of an integer >= 0, converted 10^_CHUNK at a time."""
    chunks = []
    while value >= _CHUNK_BASE:
        value, low = divmod(value, _CHUNK_BASE)
        chunks.append(str(low).zfill(_CHUNK))
    chunks.append(str(value))
    return "".join(reversed(chunks))


def int_str(value: int) -> str:
    """Decimal form of an integer of any size, whatever the digit limit.

    Pure and thread-safe: the interpreter's int-to-str limit (4300 digits
    by default) is neither read nor changed.  An integer too long for
    str() under that limit is converted 10^_CHUNK at a time, and one of
    more than _SPLIT_BITS bits is first split in halves, hi * 2^w + lo in
    exact `decimal` arithmetic, each 2^w made once.
    """
    try:
        return str(value)
    except ValueError:
        pass
    sign, value = ("-", -value) if value < 0 else ("", value)
    if value.bit_length() <= _SPLIT_BITS:
        return sign + _chunked(value)
    powers: dict[int, decimal.Decimal] = {}

    def convert(v: int) -> decimal.Decimal:
        bits = v.bit_length()
        if bits <= _SPLIT_BITS:
            return decimal.Decimal(_chunked(v))
        w = bits >> 1
        if w not in powers:
            powers[w] = decimal.Decimal(2) ** w
        return convert(v >> w) * powers[w] + convert(v & ((1 << w) - 1))

    with decimal.localcontext(_EXACT):
        return sign + str(convert(value))


def _ratio_str(num: int, den: int, write: Callable[[int], str] = int_str) -> str:
    """num/den, in lowest terms with den >= 1, as "p/q", "/q" left out when
    den = 1: the one rule of jacsum's exact-number text.  Each integer is
    written by `write`."""
    return write(num) if den == 1 else f"{write(num)}/{write(den)}"


# Longest value an error message quotes whole; a longer one is shown by its
# first _ECHO_CHARS characters and its length.
_ECHO_CHARS = 20

_INTEGER = re.compile(r"[+-]?[0-9]+")


def _shown(value: int | Fraction | str) -> str:
    """`value` as an error message quotes it, in at most about 60 characters
    (about 120 for a rational).

    An int is written as str() writes it while it has at most _ECHO_CHARS
    digits.  A longer one is cut to its leading digits by one division by
    a power of ten, so it is never converted whole, whatever the
    interpreter's int-to-str digit limit.  A `Fraction` is written as
    "p/q" like str() writes it, with p and q each quoted as an int.  Text,
    such as a command-line argument, is quoted with repr().
    """
    if isinstance(value, Fraction):
        return _ratio_str(value.numerator, value.denominator, _shown)
    if isinstance(value, int):
        # 30102999 / 10^8 < log10(2), so 10^drop <= |value|: at least
        # _ECHO_CHARS digits are left, and few more than that
        drop = max(0, value.bit_length() * 30102999 // 10**8 - _ECHO_CHARS)
        head = str(abs(value) // 10**drop)
        if drop == 0 and len(head) <= _ECHO_CHARS:
            return str(value)
        sign = "-" if value < 0 else ""
        return f"{sign}{head[:_ECHO_CHARS]}... ({len(head) + drop} digits)"
    if len(value) <= _ECHO_CHARS:
        return repr(value)
    if _INTEGER.fullmatch(value):
        size = f"{len(value.lstrip('+-'))} digits"
    else:
        size = f"{len(value)} characters"
    return f"{value[:_ECHO_CHARS]!r}... ({size})"


def rat_str(value: RatLike) -> str:
    """Serialize an exact rational as "p/q", omitting "/q" when q = 1."""
    if type(value) is int:
        return int_str(value)
    q = Fraction(value)
    return _ratio_str(q.numerator, q.denominator)


# "p" or "p/q", q > 0, in ASCII digits: the text `_ratio_str` writes, and
# also a leading "+", leading zeros and a ratio not in lowest terms
_RATIO = re.compile(r"[+-]?[0-9]+(/0*[1-9][0-9]*)?")


def _parse_rat(text: str) -> Fraction:
    """Inverse of `rat_str`: reads text that `_RATIO` matches, such as
    "-12/5", "+7" (as `cli._integer` passes it) or "10/4", and raises
    ValueError for any other text.  Decimal parses digits whatever the
    int-to-str digit limit, and int() of a Decimal is not bound by it either."""
    if not _RATIO.fullmatch(text):
        raise ValueError(f"not a rational p/q: {_shown(text)}")
    return Fraction(*(int(decimal.Decimal(part)) for part in text.split("/")))


def _approx_decimal(q: Fraction) -> str:
    """Deterministic decimal rendering for plain output (no float), rounded
    to six places."""
    sign = "-" if q < 0 else ""
    q = abs(q)
    scaled = math.floor(q * 10**6 + Fraction(1, 2))
    whole, frac = divmod(scaled, 10**6)
    return f"{sign}{whole}.{frac:06d}"


def _field_repr(value: object) -> str:
    """repr() of a record's field, an int, a `Fraction`'s parts and a dict's
    values written through `int_str`, so a record prints whatever the
    int-to-str digit limit."""
    if type(value) is int:
        return int_str(value)
    if type(value) is Fraction:
        return f"Fraction({int_str(value.numerator)}, {int_str(value.denominator)})"
    if type(value) is dict:  # a `ReportRow`'s payload
        return "{" + ", ".join(f"{k!r}: {_field_repr(v)}" for k, v in value.items()) + "}"
    return repr(value)


class _Record:
    """Base of jacsum's records: a subclass names its fields in `__slots__`,
    in order.  Its `__init__` checks and converts its arguments, then hands
    the values, in that order, to `_Record.__init__`, the one store.

    The store writes each field through its slot's own descriptor setter,
    bound once per class, so it gets past a frozen record's refusing
    `__setattr__`.  Records compare, hash and print field by field,
    printing as `Name(field=value, ...)`, and refuse assignment and
    deletion.  `pickle` and `copy` rebuild them through `_of`, which runs
    the store and no subclass `__init__`.

    A subclass declared with `frozen=False` may be assigned to and, since
    it still compares by value, is not hashable.  Such a record assigns
    its fields directly, not through the store: `IdentityResult` is made
    by the tens of thousands, and a call of the store would make each
    about five times slower to build.  A `"__dict__"` slot is not a field;
    it only makes room for a `cached_property`.
    """

    __slots__ = ()

    def __init_subclass__(cls, frozen: bool = True) -> None:
        cls._fields = tuple(name for name in cls.__slots__ if name != "__dict__")
        cls._stores = tuple(getattr(cls, name).__set__ for name in cls._fields)
        if not frozen:
            cls.__setattr__, cls.__delattr__ = object.__setattr__, object.__delattr__
            cls.__hash__ = None

    def __init__(self, *values) -> None:
        for store, value in zip(self._stores, values):
            store(self, value)

    @classmethod
    def _of(cls, *values):
        """The record of `values`, one per field, stored as they are: no
        conversion and no check."""
        rec = cls.__new__(cls)
        _Record.__init__(rec, *values)
        return rec

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def _replace(self, **changes):
        """A copy with the named fields changed, made by the constructor, so
        the copy is checked as any new record is, and a name that is not a
        parameter of `__init__` raises TypeError."""
        return type(self)(**{name: getattr(self, name) for name in self._fields} | changes)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={_field_repr(getattr(self, name))}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return self._of, self._values()


class RatInterval(_Record):
    """Closed interval [lo, hi] with exact rational endpoints, lo <= hi."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: RatLike, hi: RatLike) -> None:
        lo, hi = Fraction(lo), Fraction(hi)
        if lo > hi:
            raise ValueError(f"empty interval: lo={_shown(lo)} > hi={_shown(hi)}")
        _Record.__init__(self, lo, hi)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def __contains__(self, value: RatLike) -> bool:
        return self.lo <= value <= self.hi

    def contains_zero(self) -> bool:
        return self.lo <= 0 <= self.hi

    def shift(self, offset: RatLike) -> "RatInterval":
        """Translate both endpoints by an exact offset."""
        return RatInterval(self.lo + offset, self.hi + offset)

    def encloses(self, other: "RatInterval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi


def interval_reciprocal(iv: RatInterval) -> RatInterval:
    """Exact image of a sign-definite interval under x -> 1/x.

    The reciprocal is antitone on intervals that avoid zero, so the image
    of [lo, hi] is [1/hi, 1/lo].  Applying it twice returns the original
    interval exactly.
    """
    if iv.contains_zero():
        raise NotInvertibleError(
            f"interval [{_shown(iv.lo)}, {_shown(iv.hi)}] contains zero;"
            " refine the enclosure first"
        )
    return RatInterval(1 / iv.hi, 1 / iv.lo)


def floor_decide(iv: RatInterval) -> int | None:
    """Common floor of all points of the interval, or None if it straddles.

    Floor rounds toward -inf: floor(-26/5) = -6.  A decision requires both
    endpoints to agree, so a value lying exactly on an integer may remain
    undecided under one-sided refinement; callers must cap refinement.
    """
    lo = math.floor(iv.lo)
    return lo if lo == math.floor(iv.hi) else None


def ceil_decide(iv: RatInterval) -> int | None:
    """Common ceiling of all points of the interval, or None if it straddles.

    Dual of floor_decide, rounding toward +inf.
    """
    lo = math.ceil(iv.lo)
    return lo if lo == math.ceil(iv.hi) else None


class Reciprocal:
    """The exact interval [d/b, d/a] for integers d > 0 and a <= b of one sign.

    It is the image of [a/d, b/d] under x -> 1/x, so a sum enclosure
    [lo/2^p, hi/2^p] that avoids zero has the reciprocal
    Reciprocal(1 << p, lo, hi).  Floors, ceilings and comparisons with an
    integer c are decided in integers: with a and b made positive (all
    three negated when they are negative), c < d/b is c*b < d.  No
    `Fraction` is built and no gcd is taken.
    """

    __slots__ = ("d", "a", "b")

    def __init__(self, d: int, a: int, b: int) -> None:
        if a < 0:
            d, a, b = -d, -a, -b
        self.d, self.a, self.b = d, a, b

    def floor(self) -> int | None:
        """Common floor of the interval, or None if it straddles; see floor_decide."""
        lo = self.d // self.b
        return lo if lo == self.d // self.a else None

    def ceil(self) -> int | None:
        """Common ceiling of the interval, or None if it straddles; see ceil_decide."""
        lo = -(-self.d // self.b)
        return lo if lo == -(-self.d // self.a) else None

    def above(self, c: int) -> bool:
        """c < lo: the whole interval lies strictly above c."""
        return c * self.b < self.d

    def at_least(self, c: int) -> bool:
        """c <= lo."""
        return c * self.b <= self.d

    def below(self, c: int) -> bool:
        """hi < c: the whole interval lies strictly below c."""
        return self.d < c * self.a

    def at_most(self, c: int) -> bool:
        """hi <= c."""
        return self.d <= c * self.a
