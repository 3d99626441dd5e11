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
stated for, the integer it compares against (`expected(n)`), a judge that
decides the claim from the reciprocal of a sum enclosure, and the note for
rows left undecided.  A judge gets that reciprocal as an
`intervals.Reciprocal`, the exact interval [2^p/hi, 2^p/lo] of the
enclosure's integers, and decides floors, ceilings and bound tests on it
in integers.  The verdict keeps the enclosure of the round that settles
it as that round's integers, and the report writes them as they are, so
no `Fraction` is made for a verdict unless a caller reads its
`enclosure.interval`.  A claim's rows appear in the
order its verifier returns them.  All rows run through the one refinement
loop, `series.refine_inverse`, which refines the sum until the judge
settles or the `max_terms` budget runs out; the public verifiers are thin
views of the table.  The table is also the only statement of which
indices a claim covers: `verify_range` runs every index of the requested
parity through it and drops the readings that answer not-applicable.  It
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
from functools import partial
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


# A judge gets (n, expected, reciprocal interval) and returns
# (status, decided, note) once the claim is settled on the whole interval,
# or None to keep refining.
_Judge = Callable[[int, "int | None", Reciprocal], "tuple[Status, int | None, str] | None"]


class _Claim(NamedTuple):
    theorem: str
    variant: str
    family: SeriesFamily
    min_n: int
    parity: str  # "any", "even" or "odd"
    expected: Callable[[int], int | None]
    judge: _Judge
    undecided: Callable[[int], str]


def _settled(ok: bool) -> Status:
    return Status.VERIFIED if ok else Status.REFUTED


def _rounding(
    mode: str, rule: str, note: str, suffix: Callable[[int], str] = lambda n: ""
) -> _Judge:
    """Judge for `floor`/`ceil` of the inverse compared by `rule` ("<=" or "==").

    `note` is formatted with the decided value, the relation found and the
    expected value; `suffix(n)` is appended to it.
    """

    def judge(n: int, expected: int, inverse: Reciprocal):
        decided = inverse.floor() if mode == "floor" else inverse.ceil()
        if decided is None:
            return None
        ok = decided <= expected if rule == "<=" else decided == expected
        op = rule if ok else {"<=": ">", "==": "!="}[rule]
        text = note.format(int_str(decided), op, int_str(expected))
        return _settled(ok), decided, text + suffix(n)

    return judge


def _judge_2_1(n: int, expected: int | None, inverse: Reciprocal):
    lo_bound, hi_bound = J(n - 2), 4 * (J(n - 2) + 1)
    if inverse.above(lo_bound) and inverse.below(hi_bound):
        status, relation = Status.VERIFIED, "within"
    elif inverse.at_most(lo_bound) or inverse.at_least(hi_bound):
        status, relation = Status.REFUTED, "escapes"
    else:
        return None
    return status, None, f"inverse {relation} ({int_str(lo_bound)}, {int_str(hi_bound)})"


_FLOOR_IS_ZERO = _rounding("floor", "==", "floor must equal J(0)J(1) = 0 exactly")


def _judge_2_2_proof(n: int, expected: int | None, inverse: Reciprocal):
    # n = 1: J(0)J(1) = 0, so the floor itself must be 0.  n >= 3: the sum
    # is positive, so sum < 1/(J(n-1)J(n)) is exactly inverse > J(n-1)J(n).
    if n == 1:
        return _FLOOR_IS_ZERO(n, expected, inverse)
    bound = J(n - 1) * J(n)
    if inverse.above(bound):
        return Status.VERIFIED, None, f"sum < 1/(J(n-1)J(n)) = 1/{int_str(bound)}"
    if inverse.at_most(bound):
        return Status.REFUTED, None, f"sum >= 1/(J(n-1)J(n)) = 1/{int_str(bound)}"
    return None


def _judge_3_1_proof(n: int, expected: int, inverse: Reciprocal):
    # the derivation's strict bracket expected < inverse < expected + 1
    decided = inverse.floor()
    if decided is not None and decided != expected:
        note = f"decided floor {int_str(decided)} != 2^(n-1)-1 = {int_str(expected)}"
        return Status.REFUTED, decided, note
    if decided == expected and inverse.above(expected) and inverse.below(expected + 1):
        note = f"inverse strictly inside ({int_str(expected)}, {int_str(expected + 1)})"
        return Status.VERIFIED, decided, note
    return None


def _coverage_3_3(n: int) -> str:
    return "" if n >= 5 and n % 2 == 0 else "; outside derivation range (even n >= 5)"


def _pow2_less_one(n: int) -> int:
    return 2 ** (n - 1) - 1


_CAP_HIT = "refinement cap hit"
_FLOOR_OPEN = "floor undecided at refinement cap"


_CLAIMS = (
    _Claim("2.1", "stated", SeriesFamily.RECIP, 2, "any",
           lambda n: None, _judge_2_1, lambda n: _CAP_HIT),
    _Claim("2.2", "stated", SeriesFamily.RECIP_SQUARED, 1, "odd",
           lambda n: J(n - 1) * J(n),
           _rounding("floor", "<=", "decided floor {} {} J(n-1)J(n) = {}"),
           lambda n: _FLOOR_OPEN),
    _Claim("2.2", "proof-implied", SeriesFamily.RECIP_SQUARED, 1, "odd",
           lambda n: 0 if n == 1 else None, _judge_2_2_proof,
           lambda n: _FLOOR_OPEN if n == 1 else _CAP_HIT),
    _Claim("3.1", "proof-implied", SeriesFamily.ALT_RECIP, 1, "even",
           _pow2_less_one, _judge_3_1_proof, lambda n: _CAP_HIT),
    _Claim("3.1", "stated", SeriesFamily.ALT_RECIP_SQUARED, 1, "even",
           _pow2_less_one, _rounding("floor", "==", "squared-series floor {} {} {}"),
           lambda n: _FLOOR_OPEN),
    _Claim("3.2", "stated", SeriesFamily.ALT_RECIP, 1, "odd",
           lambda n: -(2 ** (n - 1) + 1),
           _rounding("floor", "<=", "decided floor {} {} -(2^(n-1)+1) = {}"),
           lambda n: _FLOOR_OPEN),
    _Claim("3.3", "stated", SeriesFamily.ALT_RECIP_SQUARED, 1, "any",
           lambda n: J(n - 1) ** 2 + J(n) ** 2 - 1,
           _rounding("ceil", "<=", "decided ceiling {} {} {}", _coverage_3_3),
           lambda n: "ceiling undecided at refinement cap" + _coverage_3_3(n)),
)

THEOREM_IDS = tuple(dict.fromkeys(c.theorem for c in _CLAIMS))


def _claims(theorem: str) -> list[_Claim]:
    claims = [c for c in _CLAIMS if c.theorem == theorem]
    if not claims:
        raise ValueError(f"unknown theorem id {theorem!r}; expected one of {THEOREM_IDS}")
    return claims


def _has_parity(n: int, parity: str) -> bool:
    return parity == "any" or n % 2 == (parity == "odd")


def _verdicts(theorem: str, n: int, max_terms: int | None) -> tuple[Verdict, ...]:
    """Every reading of one claim at n, with disagreeing readings flagged.

    n < 1 is rejected, except by a claim stated from a higher index, which
    answers not-applicable below it.
    """
    out = []
    for c in _claims(theorem):
        if n < c.min_n or not _has_parity(n, c.parity):
            if n < 1 and c.min_n == 1:
                raise ValueError(f"need n >= 1, got {_shown(n)}")
            note = f"stated for n >= {c.min_n}" if n < c.min_n else f"stated for {c.parity} n"
            out.append(Verdict(theorem, n, Status.NOT_APPLICABLE, c.variant, note=note))
            continue
        expected = c.expected(n)
        judged, _, enc = refine_inverse(
            SeriesSpec(c.family, n), partial(c.judge, n, expected), max_terms=max_terms
        )
        status, decided, note = judged or (Status.UNDECIDED, None, c.undecided(n))
        out.append(Verdict(theorem, n, status, c.variant, decided, expected, enc, note=note))
    if {Status.VERIFIED, Status.REFUTED} <= {v.status for v in out}:
        stamp = "variants disagree: " + "; ".join(f"{v.variant} {v.status.value}" for v in out)
        out = [v._replace(discrepancy=True, note=f"{v.note}; {stamp}" if v.note else stamp)
               for v in out]
    return tuple(out)


def verify_thm_2_1(n: int, *, max_terms: int | None = None) -> Verdict:
    """Strict two-sided bound on the inverse of the plain reciprocal sum.

    Verified only when the whole reciprocal interval lies strictly inside
    (J(n-2), 4(J(n-2)+1)); an interval wholly at-or-outside either bound
    refutes.  For n >= 3 this is equivalently the derivation's combined
    bound 1/(4(J(n-2)+1)) < sum < 1/J(n-2) on the sum side.  n < 2 yields
    not-applicable.
    """
    return _verdicts("2.1", n, max_terms)[0]


def verify_thm_2_2(n: int, *, max_terms: int | None = None) -> tuple[Verdict, Verdict]:
    """Floor claim for the squared reciprocal sum at odd n, both variants.

    Returns (stated, proof-implied).  Even n yields not-applicable.
    """
    return _verdicts("2.2", n, max_terms)


def verify_thm_3_1(n: int, *, max_terms: int | None = None) -> tuple[Verdict, Verdict]:
    """Floor-equality claim at even n, both variants.

    Returns (proof-implied, stated): the proof-implied variant decides the
    floor of the inverse of the *unsquared* alternating sum and also
    requires the derivation's strict bracket
        2^(n-1)-1 < inverse < 2^(n-1)
    to hold on the whole interval; the stated variant decides the same
    floor for the squared alternating sum.  Odd n yields not-applicable.
    """
    return _verdicts("3.1", n, max_terms)


def verify_cor_3_2(n: int, *, max_terms: int | None = None) -> Verdict:
    """Floor bound for the unsquared alternating sum at odd n."""
    return _verdicts("3.2", n, max_terms)[0]


def verify_thm_3_3(n: int, *, max_terms: int | None = None) -> Verdict:
    """Ceiling bound for the squared alternating sum, swept over all n >= 1.

    The supporting derivation only covers even n >= 5 (its sign step needs
    n >= 5 and the final inequality is drawn for even n), but the claim is
    stated for every positive n, so every index gets a verdict and
    verdicts outside the derivation's range are annotated as such.
    """
    return _verdicts("3.3", n, max_terms)[0]


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
    index is run through the claim table, and readings that answer
    not-applicable there are dropped.  `variant` selects which verdict
    rows are returned: "default" picks the derivation-established variant,
    "both" keeps the full pairs.  Output is in (n, variant) order by
    construction: indices ascend, and each index's readings are put in
    variant order; the sweep is never sorted as a whole.
    """
    if not 1 <= n_lo <= n_hi:
        raise ValueError(f"need 1 <= n_lo <= n_hi, got {_shown(n_lo)}..{_shown(n_hi)}")
    if parity not in ("any", "even", "odd"):
        raise ValueError(f"parity must be any/even/odd, got {parity!r}")
    if variant == "default":
        variant = default_variant(theorem)
    if variant != "both" and variant not in [c.variant for c in _claims(theorem)]:
        raise ValueError(f"theorem {theorem} has no {variant!r} variant")

    out = [
        v for n in range(n_lo, n_hi + 1) if _has_parity(n, parity)
        for v in sorted(_verdicts(theorem, n, max_terms), key=attrgetter("variant"))
        if v.status is not Status.NOT_APPLICABLE and variant in ("both", v.variant)
    ]
    if not out:
        warnings.warn(
            f"no admissible indices for theorem {theorem} in [{n_lo}, {n_hi}]"
            f" with parity {parity}",
            stacklevel=2,
        )
    return out
