"""Per-index verdicts for the five reciprocal-sum claims.

The claims under test, indexed by the series start n:

    2.1   J(n-2) < (sum_{k>=n} 1/J(k))^-1 < 4(J(n-2)+1)         n >= 2
    2.2   odd n: floor((sum_{k>=n} 1/J(k)^2)^-1) <= J(n-1)J(n)
    3.1   even n: floor((sum_{k>=n} (-1)^k/J(k)^2)^-1) = 2^(n-1)-1
    3.2   odd n: floor((sum_{k>=n} (-1)^k/J(k))^-1) <= -(2^(n-1)+1)
    3.3   ceil((sum_{k>=n} (-1)^k/J(k)^2)^-1) <= J(n-1)^2+J(n)^2-1

Two of the claims come with a supporting derivation that establishes a
different statement than the printed one, so those are verified in two
variants and both verdicts are reported:

  * 2.2: the derivation shows sum < 1/(J(n-1)J(n)), which forces the floor
    of the inverse *upward* past J(n-1)J(n); "stated" checks the printed
    <=, "proof-implied" checks the derived strict sum bound (and at n = 1
    the exact floor 0 = J(0)J(1)).
  * 3.1: the derivation brackets the *unsquared* alternating series while
    the statement displays the squared one; "proof-implied" decides the
    unsquared floor, "stated" the squared floor.

When the two variants disagree the pair is flagged (`discrepancy=True`)
and the notes carry the evidence; nothing is reconciled silently.

Every claim reading is one row of the table `_CLAIMS`: the theorem id and
variant, the series family, the lowest index and the parity the claim is
stated for, the integer it compares against (E = `expected(n)`), and its
target for 1/S, the inverse of the series limit, as data: the target's
two integer ends (lo, hi) as a function of n and E, either end possibly
absent, a bracket per end for open or closed, an optional rounding
(floor or ceil), and the note templates per outcome.

    reading                      target for 1/S              rounding
    2.1                          (J(n-2), 4(J(n-2)+1))        -
    2.2 stated, 3.2              (-inf, E+1)                  floor
    2.2 proof-implied, n = 1     [0, 1)                       floor
    2.2 proof-implied, n >= 3    (J(n-1)J(n), inf)            -
    3.1 proof-implied            (E, E+1)                     floor
    3.1 stated                   [E, E+1)                     floor
    3.3                          (-inf, E]                    ceil

One judge decides every reading.  It gets the reciprocal of a sum
enclosure as an `intervals.Reciprocal`, the exact interval [2^p/hi,
2^p/lo] of the enclosure's integers, and settles verified when that
interval lies wholly inside the target and refuted when it lies wholly
outside; a reading with a rounding settles only once the floor or
ceiling is decided, which becomes the verdict's `decided`.  All tests
are in integers.  The verdict keeps the enclosure of the round that
settles it as that round's integers, and the report writes them as they
are, so no `Fraction` is made for a verdict unless a caller reads its
`enclosure.interval`.  A claim's rows appear in the
order its verifier returns them.  All rows run through the one refinement
loop, `series.refine_inverse`, which refines the sum until the judge
settles or the `max_terms` budget runs out; the public verifiers are thin
views of the table.  The table is also the only statement of which
indices a claim covers, read by `_covers`: `verify_range` runs every
index of the requested parity that some reading covers through it and
drops the readings that answer not-applicable.  It
walks the indices in ascending order and puts each index's readings in
variant order, so a sweep comes out in (n, variant) order by
construction, never by sorting it.

Every verified/refuted status is backed by the enclosure stored on the
verdict: the claim holds (or fails) on that entire interval, so the
verdict can be re-checked from the serialized enclosure alone.  Strict
inequalities are never concluded from a touching endpoint; refinement
continues instead, and the refinement cap turns into an `undecided`.
"""

from __future__ import annotations

import warnings
from enum import Enum
from operator import attrgetter
from typing import Callable, NamedTuple

from .intervals import Reciprocal, _Record, _shown, int_str
from .sequence import jacobsthal as J
from .series import Enclosure, SeriesFamily, SeriesSpec, refine_inverse

__all__ = [
    "Status",
    "Verdict",
    "THEOREM_IDS",
    "default_variant",
    "verify_cor_3_2",
    "verify_range",
    "verify_thm_2_1",
    "verify_thm_2_2",
    "verify_thm_3_1",
    "verify_thm_3_3",
]


class Status(str, Enum):
    VERIFIED = "verified"
    REFUTED = "refuted"
    UNDECIDED = "undecided"
    NOT_APPLICABLE = "not-applicable"


class Verdict(_Record):
    """Outcome of one claim at one index.

    `decided` is the exactly decided floor/ceiling where the claim calls
    for one; `expected` is the integer the claim compares it against.
    `enclosure` is the final sum enclosure backing the verdict.
    """

    __slots__ = ("theorem", "n", "status", "variant", "decided", "expected", "enclosure",
                 "discrepancy", "note")

    def __init__(
        self, theorem: str, n: int, status: Status, variant: str = "stated",
        decided: int | None = None, expected: int | None = None,
        enclosure: Enclosure | None = None, discrepancy: bool = False, note: str = "",
    ) -> None:
        _Record.__init__(self, theorem, n, status, variant, decided, expected, enclosure,
                         discrepancy, note)


# An end's tests, (1/S on the target's side of it, 1/S wholly past it), by its
# bracket: a lower end closed ("[") or open ("("), an upper end closed ("]") or open (")")
_ENDS = {"[": (Reciprocal.at_least, Reciprocal.below), "(": (Reciprocal.above, Reciprocal.at_most),
         "]": (Reciprocal.at_most, Reciprocal.above), ")": (Reciprocal.below, Reciprocal.at_least)}


def _target(left: str, right: str, rounding: str | None, verified: str, refuted: str,
            undecided: str, suffix: Callable[[int], str] = lambda n: "") -> Callable:
    """A reading's target for 1/S, the interval `left`lo, hi`right` between
    ends lo and hi, an end of None absent: the function of (n, E, lo, hi),
    E the reading's expected value, that gives the reading's judge at n.
    Its tests are chosen once per reading, not per index.

    The judge settles verified when the reciprocal interval of a round
    lies wholly inside the target and refuted when it lies wholly outside
    it; otherwise it returns None to keep refining.  A reading with a
    `rounding`, "floor" or "ceil" of 1/S, settles only once that is
    decided, and it is the verdict's `decided`.  Given None in place of an
    interval, as when the refinement cap came first, the judge returns the
    undecided outcome.  It returns (status, decided, note), the note being
    the outcome's template formatted with d (decided), e (E), lo and hi,
    then `suffix(n)`.
    """
    low_in, low_out = _ENDS[left]
    high_in, high_out = _ENDS[right]
    decide = {"floor": Reciprocal.floor, "ceil": Reciprocal.ceil, None: None}[rounding]

    def at(n: int, e: int | None, lo: int | None, hi: int | None) -> Callable:
        def judge(view: Reciprocal | None) -> tuple[Status, int | None, str] | None:
            decided = None
            if view is None:
                status, note = Status.UNDECIDED, undecided
            elif decide is not None and (decided := decide(view)) is None:
                return None
            elif (lo is None or low_in(view, lo)) and (hi is None or high_in(view, hi)):
                status, note = Status.VERIFIED, verified
            elif lo is not None and low_out(view, lo) or hi is not None and high_out(view, hi):
                status, note = Status.REFUTED, refuted
            else:
                return None
            ints = {"d": decided, "e": e, "lo": lo, "hi": hi}
            try:
                note = note.format_map(ints)
            except ValueError:  # an integer past the int-to-str digit limit
                note = note.format_map({k: int_str(v) for k, v in ints.items()})
            return status, decided, note + suffix(n)

        return judge

    return at


def _since(n0: int, before: Callable, after: Callable) -> Callable:
    """The target `before` below index n0 and `after` from n0 on."""
    return lambda n, *args: (before if n < n0 else after)(n, *args)


class _Claim(NamedTuple):
    theorem: str
    variant: str
    family: SeriesFamily
    min_n: int
    parity: str  # "any", "even" or "odd"
    expected: Callable[[int], int | None]
    ends: Callable[[int, int | None], tuple[int | None, int | None]]  # (lo, hi) from n and E
    target: Callable[..., Callable[[Reciprocal | None], tuple | None]]


def _coverage_3_3(n: int) -> str:
    return "" if n >= 5 and n % 2 == 0 else "; outside derivation range (even n >= 5)"


_CAP_HIT = "refinement cap hit"
_FLOOR_OPEN = "floor undecided at refinement cap"
_ZERO = "floor must equal J(0)J(1) = 0 exactly"


# Each reading's expected value E, the ends of its target for 1/S, and its target
_CLAIMS = (
    _Claim("2.1", "stated", SeriesFamily.RECIP, 2, "any", lambda n: None,
           lambda n, e: (J(n - 2), 4 * (J(n - 2) + 1)),
           _target("(", ")", None, "inverse within ({lo}, {hi})", "inverse escapes ({lo}, {hi})",
                   _CAP_HIT)),
    _Claim("2.2", "stated", SeriesFamily.RECIP_SQUARED, 1, "odd", lambda n: J(n - 1) * J(n),
           lambda n, e: (None, e + 1),
           _target("(", ")", "floor", "decided floor {d} <= J(n-1)J(n) = {e}",
                   "decided floor {d} > J(n-1)J(n) = {e}", _FLOOR_OPEN)),
    # n = 1: J(0)J(1) = 0, so the floor itself must be 0.  n >= 3: the sum
    # is positive, so sum < 1/(J(n-1)J(n)) is exactly 1/S > J(n-1)J(n).
    _Claim("2.2", "proof-implied", SeriesFamily.RECIP_SQUARED, 1, "odd",
           lambda n: 0 if n == 1 else None,
           lambda n, e: (0, 1) if n == 1 else (J(n - 1) * J(n), None),
           _since(3, _target("[", ")", "floor", _ZERO, _ZERO, _FLOOR_OPEN),
                  _target("(", ")", None, "sum < 1/(J(n-1)J(n)) = 1/{lo}",
                          "sum >= 1/(J(n-1)J(n)) = 1/{lo}", _CAP_HIT))),
    # the derivation's strict bracket E < 1/S < E + 1
    _Claim("3.1", "proof-implied", SeriesFamily.ALT_RECIP, 1, "even", lambda n: 2 ** (n - 1) - 1,
           lambda n, e: (e, e + 1),
           _target("(", ")", "floor", "inverse strictly inside ({lo}, {hi})",
                   "decided floor {d} != 2^(n-1)-1 = {e}", _CAP_HIT)),
    _Claim("3.1", "stated", SeriesFamily.ALT_RECIP_SQUARED, 1, "even", lambda n: 2 ** (n - 1) - 1,
           lambda n, e: (e, e + 1),
           _target("[", ")", "floor", "squared-series floor {d} == {e}",
                   "squared-series floor {d} != {e}", _FLOOR_OPEN)),
    _Claim("3.2", "stated", SeriesFamily.ALT_RECIP, 1, "odd", lambda n: -(2 ** (n - 1) + 1),
           lambda n, e: (None, e + 1),
           _target("(", ")", "floor", "decided floor {d} <= -(2^(n-1)+1) = {e}",
                   "decided floor {d} > -(2^(n-1)+1) = {e}", _FLOOR_OPEN)),
    _Claim("3.3", "stated", SeriesFamily.ALT_RECIP_SQUARED, 1, "any",
           lambda n: J(n - 1) ** 2 + J(n) ** 2 - 1,
           lambda n, e: (None, e),
           _target("(", "]", "ceil", "decided ceiling {d} <= {e}", "decided ceiling {d} > {e}",
                   "ceiling undecided at refinement cap", _coverage_3_3)),
)

THEOREM_IDS = tuple(dict.fromkeys(c.theorem for c in _CLAIMS))


def _claims(theorem: str) -> list[_Claim]:
    claims = [c for c in _CLAIMS if c.theorem == theorem]
    if not claims:
        raise ValueError(f"unknown theorem id {_shown(theorem)}; expected one of {THEOREM_IDS}")
    return claims


def _has_parity(n: int, parity: str) -> bool:
    return parity == "any" or n % 2 == (parity == "odd")


def _covers(c: _Claim, n: int) -> bool:
    """Whether reading `c` is stated for index n."""
    return n >= c.min_n and _has_parity(n, c.parity)


def _verdicts(claims: list[_Claim], n: int, max_terms: int | None) -> tuple[Verdict, ...]:
    """Every reading of one claim, its rows `claims`, at n, with disagreeing
    readings flagged.

    Each reading's outcome is collected first; the disagreement stamp is
    then decided from all of them, and each `Verdict` is built once.

    n < 1 is rejected, except by a claim stated from a higher index, which
    answers not-applicable below it.
    """
    rows = []  # (reading, status, decided, note, expected, enclosure)
    for c in claims:
        if not _covers(c, n):
            if n < 1 and c.min_n == 1:
                raise ValueError(f"need n >= 1, got {_shown(n)}")
            note = f"stated for n >= {c.min_n}" if n < c.min_n else f"stated for {c.parity} n"
            rows.append((c, Status.NOT_APPLICABLE, None, note, None, None))
            continue
        expected = c.expected(n)
        judge = c.target(n, expected, *c.ends(n, expected))
        judged, _, enc = refine_inverse(SeriesSpec(c.family, n), judge, max_terms=max_terms)
        status, decided, note = judged or judge(None)
        rows.append((c, status, decided, note, expected, enc))
    stamp = ("variants disagree: " + "; ".join(f"{c.variant} {s.value}" for c, s, *_ in rows)
             if {Status.VERIFIED, Status.REFUTED} <= {row[1] for row in rows} else "")
    return tuple(Verdict(c.theorem, n, status, c.variant, decided, expected, enc, bool(stamp),
                         f"{note}; {stamp}" if note and stamp else note or stamp)
                 for c, status, decided, note, expected, enc in rows)


def verify_thm_2_1(n: int, *, max_terms: int | None = None) -> Verdict:
    """Strict two-sided bound on the inverse of the plain reciprocal sum.

    Verified only when the whole reciprocal interval lies strictly inside
    (J(n-2), 4(J(n-2)+1)); an interval wholly at-or-outside either bound
    refutes.  For n >= 3 this is equivalently the derivation's combined
    bound 1/(4(J(n-2)+1)) < sum < 1/J(n-2) on the sum side.  n < 2 yields
    not-applicable.
    """
    return _verdicts(_claims("2.1"), n, max_terms)[0]


def verify_thm_2_2(n: int, *, max_terms: int | None = None) -> tuple[Verdict, Verdict]:
    """Floor claim for the squared reciprocal sum at odd n, both variants.

    Returns (stated, proof-implied).  Even n yields not-applicable.
    """
    return _verdicts(_claims("2.2"), n, max_terms)


def verify_thm_3_1(n: int, *, max_terms: int | None = None) -> tuple[Verdict, Verdict]:
    """Floor-equality claim at even n, both variants.

    Returns (proof-implied, stated): the proof-implied variant decides the
    floor of the inverse of the *unsquared* alternating sum and also
    requires the derivation's strict bracket
        2^(n-1)-1 < inverse < 2^(n-1)
    to hold on the whole interval; the stated variant decides the same
    floor for the squared alternating sum.  Odd n yields not-applicable.
    """
    return _verdicts(_claims("3.1"), n, max_terms)


def verify_cor_3_2(n: int, *, max_terms: int | None = None) -> Verdict:
    """Floor bound for the unsquared alternating sum at odd n."""
    return _verdicts(_claims("3.2"), n, max_terms)[0]


def verify_thm_3_3(n: int, *, max_terms: int | None = None) -> Verdict:
    """Ceiling bound for the squared alternating sum, swept over all n >= 1.

    The supporting derivation only covers even n >= 5 (its sign step needs
    n >= 5 and the final inequality is drawn for even n), but the claim is
    stated for every positive n, so every index gets a verdict and
    verdicts outside the derivation's range are annotated as such.
    """
    return _verdicts(_claims("3.3"), n, max_terms)[0]


def default_variant(theorem: str) -> str:
    """Variant verified by default: the one the derivation establishes."""
    variants = [c.variant for c in _claims(theorem)]
    return "proof-implied" if "proof-implied" in variants else "stated"


def verify_range(
    theorem: str,
    n_lo: int,
    n_hi: int,
    parity: str = "any",
    variant: str = "default",
    *,
    max_terms: int | None = None,
) -> list[Verdict]:
    """Apply one claim's verifier to every admissible index in [n_lo, n_hi].

    `parity` further filters the sweep ("any", "even", "odd"); indices the
    claim itself does not cover are skipped rather than reported: each
    index that some reading covers is run through the claim table, and
    readings that answer not-applicable there are dropped.  `variant` selects which verdict
    rows are returned: "default" picks the derivation-established variant,
    "both" keeps the full pairs.  Output is in (n, variant) order by
    construction: indices ascend, and each index's readings are put in
    variant order; the sweep is never sorted as a whole.
    """
    if not 1 <= n_lo <= n_hi:
        raise ValueError(f"need 1 <= n_lo <= n_hi, got {_shown(n_lo)}..{_shown(n_hi)}")
    if parity not in ("any", "even", "odd"):
        raise ValueError(f"parity must be any/even/odd, got {_shown(parity)}")
    if variant == "default":
        variant = default_variant(theorem)
    claims = _claims(theorem)
    if variant != "both" and variant not in [c.variant for c in claims]:
        raise ValueError(f"theorem {theorem} has no {_shown(variant)} variant")

    out = [
        v for n in range(n_lo, n_hi + 1)
        if _has_parity(n, parity) and any(_covers(c, n) for c in claims)
        for v in sorted(_verdicts(claims, n, max_terms), key=attrgetter("variant"))
        if v.status is not Status.NOT_APPLICABLE and variant in ("both", v.variant)
    ]
    if not out:
        warnings.warn(
            f"no admissible indices for theorem {theorem} in [{_shown(n_lo)}, {_shown(n_hi)}]"
            f" with parity {parity}",
            stacklevel=2,
        )
    return out
