import copy
import functools
import itertools
import math
import pickle
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from jacsum import (
    NeedMoreTermsError,
    SeriesFamily,
    SeriesSpec,
    enclose_inverse,
    enclose_sum,
    enclosures,
    interval_reciprocal,
    RatInterval,
    Reciprocal,
    partial_sum,
    rat_str,
    refine_inverse,
    series_term,
    tail_bound,
    verify_range,
)
from jacsum import series
from jacsum.series import GUARD_BITS

import oracles

F = Fraction

ALL_FAMILIES = list(SeriesFamily)


def spec(family, start):
    return SeriesSpec(SeriesFamily(family), start)


def test_spec_validation():
    with pytest.raises(ValueError):
        spec("recip", 0)
    with pytest.raises(ValueError):
        SeriesSpec("no-such-family", 3)
    assert spec("alt-recip", 2).family is SeriesFamily.ALT_RECIP


# the paper's four series: (-1)^k in the terms or not, and the exponent e of J(k)
@pytest.mark.parametrize("value, alternating, squared, power", [
    ("recip", False, False, 1),
    ("recip-squared", False, True, 2),
    ("alt-recip", True, False, 1),
    ("alt-recip-squared", True, True, 2),
])
def test_family_traits(value, alternating, squared, power):
    member = SeriesFamily(value)
    assert (member.alternating, member.squared, member.power) == (alternating, squared, power)
    assert SeriesFamily(member.value) is member
    for copied in (pickle.loads(pickle.dumps(member)), copy.deepcopy(member)):
        assert copied is member
        assert (copied.alternating, copied.squared, copied.power) == (alternating, squared, power)


def test_terms_match_oracle():
    for family in ALL_FAMILIES:
        for k in range(1, 40):
            assert series_term(spec(family, 1), k) == oracles.term(family.value, k)


def test_partial_sum_examples():
    assert partial_sum(spec("recip", 3), 4) == F(8, 15)
    assert partial_sum(spec("recip-squared", 1), 1) == 1
    assert partial_sum(spec("alt-recip", 2), 3) == F(2, 3)


def test_partial_sum_rejects_short_range():
    with pytest.raises(ValueError):
        partial_sum(spec("recip", 5), 4)


def test_tail_bound_exact_values():
    assert tail_bound(spec("recip", 3), 5) == _iv(F(1, 16), F(1, 8))
    assert tail_bound(spec("recip-squared", 3), 4) == _iv(F(1, 192), F(1, 48))
    # first omitted term at k=5 is -1/11
    assert tail_bound(spec("alt-recip", 2), 4) == _iv(F(-1, 11), F(0))
    assert tail_bound(spec("alt-recip-squared", 2), 4) == _iv(F(-1, 121), F(0))


def _iv(lo, hi):
    from jacsum import RatInterval

    return RatInterval(lo, hi)


def test_tail_bound_validity_thresholds():
    with pytest.raises(NeedMoreTermsError):
        tail_bound(spec("recip", 1), 2)
    with pytest.raises(NeedMoreTermsError):
        tail_bound(spec("alt-recip", 1), 1)
    with pytest.raises(NeedMoreTermsError):
        tail_bound(spec("recip", 7), 6)
    # thresholds themselves are fine
    tail_bound(spec("recip", 1), 3)
    tail_bound(spec("alt-recip", 1), 2)


def test_tail_bound_contains_true_remainder():
    rng = random.Random(7)
    for _ in range(40):
        family = rng.choice(ALL_FAMILIES).value
        start = rng.randint(1, 12)
        s = spec(family, start)
        last = rng.randint(max(start, 3), 60)
        bound = tail_bound(s, last)
        rem_lo, rem_hi = oracles.sum_bracket(family, last + 1, last + 200)
        assert bound.lo <= rem_lo and rem_hi <= bound.hi


def test_enclosures_contain_limit_and_shrink():
    for family in ALL_FAMILIES:
        for start in (1, 2, 3, 7):
            s = spec(family.value, start)
            seen = []
            for enc in enclosures(s):
                seen.append(enc)
                if len(seen) == 4:
                    break
            lo, hi = oracles.sum_bracket(family.value, start, 3 * start + 200)
            for enc in seen:
                assert enc.interval.lo <= lo and hi <= enc.interval.hi
            for a, b in zip(seen, seen[1:]):
                assert a.interval.encloses(b.interval)
                assert b.interval.width < a.interval.width
            assert seen[0].terms == start + 8
            assert seen[1].terms == 2 * (start + 8)


@functools.cache
def _unbudgeted(family, mode, start):
    return enclose_inverse(SeriesSpec(family, start), mode).decided


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(ALL_FAMILIES), st.sampled_from(["floor", "ceil"]),
       st.integers(1, 300), st.data())
def test_a_decided_rounding_does_not_depend_on_the_budget(family, mode, start, data):
    max_terms = data.draw(st.integers(1, 4 * start + 64), label="max_terms")
    got = enclose_inverse(SeriesSpec(family, start), mode, max_terms=max_terms).decided
    assert got is None or got == _unbudgeted(family, mode, start)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(ALL_FAMILIES), st.integers(1, 100) | st.integers(1, 3000))
def test_enclosures_nest_on_power_of_two_grids(family, start):
    # the Lambert path at every start; below about 100, k0 = isqrt(p) > start
    # at the later passes, so the split between divided and expanded terms moves
    power = 2 if family.squared else 1
    seen = list(enclosures(SeriesSpec(family, start)))
    for enc in seen:
        for end in (enc.interval.lo, enc.interval.hi):
            den = end.denominator
            assert den & (den - 1) == 0
            assert den.bit_length() - 1 <= power * enc.terms + GUARD_BITS
    for a, b in zip(seen, seen[1:]):
        assert a.interval.encloses(b.interval)
        assert b.interval.width <= a.interval.width


def test_positive_family_enclosures_stay_positive():
    for family in ("recip", "recip-squared"):
        for start in (1, 2, 5):
            for i, enc in enumerate(enclosures(spec(family, start))):
                assert enc.interval.lo > 0
                if i == 2:
                    break


def test_alternating_partial_sums_bracket_limit():
    for family in ("alt-recip", "alt-recip-squared"):
        for start in (1, 2, 3, 6):
            s = spec(family, start)
            lo, hi = oracles.sum_bracket(family, start, 3 * start + 200)
            for last in range(max(start, 2), start + 12):
                a = partial_sum(s, last)
                b = partial_sum(s, last + 1)
                lo_pair, hi_pair = min(a, b), max(a, b)
                assert lo_pair <= lo and hi <= hi_pair


def test_enclose_sum_meets_width_goal():
    goal = F(1, 10**6)
    enc = enclose_sum(spec("recip", 3), goal)
    assert enc is not None and enc.interval.width <= goal
    mid = (enc.interval.lo + enc.interval.hi) / 2
    lo, hi = oracles.sum_bracket("recip", 3, 400)
    assert enc.interval.lo <= lo and hi <= enc.interval.hi
    assert abs(mid - (lo + hi) / 2) <= goal


def test_enclose_sum_decimal_spot_values():
    # limits to 6 decimal places, oracle-computed: 0.718592 / 0.807995 / 0.033573
    for family, start, digits in (
        ("recip", 3, F(718592, 10**6)),
        ("alt-recip", 2, F(807995, 10**6)),
        ("alt-recip-squared", 4, F(33573, 10**6)),
    ):
        enc = enclose_sum(spec(family, start), F(1, 10**9))
        mid = (enc.interval.lo + enc.interval.hi) / 2
        assert abs(mid - digits) < F(2, 10**6)


def test_enclose_sum_budget_exhaustion():
    # budget below the first valid truncation index: no enclosure at all
    assert enclose_sum(spec("recip", 1), F(1), max_terms=2) is None
    # valid but coarse budget: enclosure exists, goal unmet
    enc = enclose_sum(spec("recip", 4), F(1, 10**40), max_terms=3)
    assert enc is not None
    assert enc.terms == 6
    assert enc.interval.width > F(1, 10**40)


@pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.value)
def test_enclose_sum_stops_at_the_first_round_within_the_goal(family):
    s = spec(family, 3)
    rounds = list(itertools.islice(enclosures(s), 7))
    for enc in rounds[:-1]:
        # a goal met exactly stops at this round, one just below it does not
        for goal in (enc.interval.width, enc.interval.width * F(999, 1000)):
            first = next(e for e in rounds if e.interval.width <= goal)
            assert enclose_sum(s, goal) == first


def test_enclose_inverse_examples():
    assert enclose_inverse(spec("alt-recip", 2), "floor").decided == 1
    assert enclose_inverse(spec("recip-squared", 1), "floor").decided == 0
    assert enclose_inverse(spec("alt-recip", 3), "floor").decided == -6


def test_enclose_inverse_interval_is_reciprocal_of_sum():
    inv = enclose_inverse(spec("recip", 5), "floor")
    assert inv.decided is not None
    assert inv.interval == interval_reciprocal(inv.sum_enclosure.interval)
    lo, hi = oracles.sum_bracket("recip", 5, 300)
    assert inv.interval.lo <= 1 / hi and 1 / lo <= inv.interval.hi


def test_enclose_inverse_undecided_under_tiny_budget():
    inv = enclose_inverse(spec("alt-recip", 8), "floor", max_terms=2)
    assert inv.decided is None
    assert inv.sum_enclosure is not None and inv.sum_enclosure.terms == 9


def test_enclose_inverse_rejects_bad_mode():
    with pytest.raises(ValueError):
        enclose_inverse(spec("recip", 3), "round")


def test_enclosure_serialization_schema():
    enc = enclose_sum(spec("recip", 3), F(1, 100))
    payload = enc.as_payload()
    assert set(payload) == {"lo", "hi", "terms"}
    assert payload["terms"] == enc.terms
    assert F(payload["lo"]) == enc.interval.lo
    assert F(payload["hi"]) == enc.interval.hi


@pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.value)
def test_dyadic_enclosures_match_oracle(family):
    # differential test of the dyadic kernel against the exact-Fraction oracle
    power = 2 if family.squared else 1
    for start in range(1, 129):
        s = spec(family.value, start)
        floor = enclose_inverse(s, "floor")
        ceil = enclose_inverse(s, "ceil")
        assert floor.decided == oracles.floor_of_inverse(family.value, start)
        assert ceil.decided == oracles.ceil_of_inverse(family.value, start)
        lo, hi = oracles.sum_bracket(family.value, start, 3 * start + 200)
        deepest = max(floor.sum_enclosure.terms, ceil.sum_enclosure.terms)
        for enc in enclosures(s):
            assert enc.interval.lo <= lo and hi <= enc.interval.hi
            # outward rounding: the exact enclosure at the same K lies inside
            exact = oracles.truncation(family.value, start, enc.terms)
            assert enc.interval.encloses(tail_bound(s, enc.terms).shift(exact))
            for end in (enc.interval.lo, enc.interval.hi):
                d = end.denominator
                assert d & (d - 1) == 0, "endpoint is not dyadic"
                assert d.bit_length() - 1 <= power * enc.terms + GUARD_BITS
            if enc.terms >= deepest:
                break


# --- the Lambert kernel against the per-term long division it replaced ---


@pytest.fixture
def expansions(monkeypatch):
    """(p, k0, last) of every pass that expands terms, recorded as it runs."""
    seen = []
    real = series._lambert_floors

    def record(family, p, k0, last):
        seen.append((p, k0, last))
        return real(family, p, k0, last)

    monkeypatch.setattr(series, "_lambert_floors", record)
    return seen


def _assert_kernel_matches_reference(family, start, lasts):
    s = spec(family.value, start)
    for last in lasts:
        if last < series._min_tail_index(s):
            continue
        got = series._dyadic_bounds(s, last)
        want = oracles.dyadic_bounds(family.value, start, last, GUARD_BITS)
        assert got == want, (family.value, start, last)


@pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.value)
def test_kernel_matches_long_division_on_the_schedule(family, expansions):
    # every start <= 130 at the first two truncations the schedule takes,
    # the smallest ones, and a deep one
    for start in range(1, 131):
        lasts = {start, start + 1, start + 8, 2 * (start + 8), 4 * start + 16}
        _assert_kernel_matches_reference(family, start, sorted(lasts))
    assert len(expansions) >= 200


@pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.value)
def test_kernel_matches_long_division_where_j_is_one(family, expansions):
    # J(1) = J(2) = 1 divide 2^p exactly: the divided terms must keep r == 0
    for start in (1, 2):
        _assert_kernel_matches_reference(family, start, range(start, 260))
    assert len(expansions) >= 300


@pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.value)
def test_kernel_matches_long_division_around_the_k0_seam(family, expansions):
    # k0 = max(start, isqrt(p)): starts on both sides of isqrt(p), so the
    # split between divided and expanded terms moves across the range
    power = 2 if family.squared else 1
    for last in (100, 333, 1000):
        root = math.isqrt(power * last + GUARD_BITS)
        for start in range(root - 3, root + 4):
            _assert_kernel_matches_reference(family, start, [last])
    split = sum(1 for p, k0, last in expansions if k0 == math.isqrt(p))
    assert len(expansions) == 21 and split == 12


@pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.value)
def test_kernel_matches_long_division_where_p_mod_k_is_k_minus_1(family, expansions):
    # for the linear families |R_k| >= 1 exactly when k divides p + 1; the
    # squared families take the small division at the start of every block
    for start in (1, 5, 40):
        _assert_kernel_matches_reference(family, start, range(start + 8, start + 300, 7))
    hits = [any((p + 1) % k == 0 for k in range(k0, last + 1)) for p, k0, last in expansions]
    assert sum(hits) >= 20


@pytest.mark.parametrize("family, start", [
    (SeriesFamily.RECIP, 4096),
    (SeriesFamily.RECIP_SQUARED, 4095),
    (SeriesFamily.ALT_RECIP, 4096),
    (SeriesFamily.ALT_RECIP_SQUARED, 4095),
], ids=lambda x: getattr(x, "value", x))
def test_kernel_matches_long_division_near_4096(family, start, expansions):
    # the second pass of the schedule, at p of about 8k resp. 16k bits
    _assert_kernel_matches_reference(family, start, [2 * (start + 8)])
    assert len(expansions) == 1


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_index_zero_and_empty_budgets_are_rejected(family):
    s = spec(family, 1)
    with pytest.raises(ValueError, match="term index must be >= 1"):
        series_term(s, 0)
    with pytest.raises(ValueError, match="max_terms must be >= 1"):
        next(enclosures(s, max_terms=0))
    with pytest.raises(ValueError, match="width goal must be positive"):
        enclose_sum(s, 0)


def test_disjoint_rounds_are_refused_not_inverted(monkeypatch):
    # rounds are intersected as integers; bounds that miss each other leave
    # an empty enclosure, which must raise rather than reach a judge
    real = series._dyadic_bounds

    def drifting(spec, last):
        lo, hi, p = real(spec, last)
        return (lo, hi, p) if last == spec.start + 8 else (lo + (1 << p), hi + (1 << p), p)

    monkeypatch.setattr(series, "_dyadic_bounds", drifting)
    with pytest.raises(ValueError, match="empty enclosure of alt-recip from 5 at K = 26"):
        refine_inverse(spec("alt-recip", 5), lambda inverse: None)


@given(st.integers(-2**80, 2**80), st.integers(0, 70), st.integers(0, 90))
def test_dyadic_endpoints_are_reduced_by_their_trailing_zeros(odd, p, zeros):
    # odd * 2^zeros / 2^p, including integers (zeros >= p), zero and negatives
    m = (2 * odd + 1) << zeros if odd % 3 else 0
    enc = series.Enclosure(spec("recip", 3), m, m, p, 9)
    assert enc.interval.lo == enc.interval.hi == Fraction(m, 1 << p)
    assert enc.p == 0 or enc.lo % 2  # no trailing zero bit left to strip


@given(st.integers(-2**80, 2**80), st.integers(0, 70), st.integers(0, 90))
@example(1, 5, 4).via("one power of two left: 3/2")
@example(-2, 5, 4).via("negative, one power of two left: -3/2")
@example(1, 5, 5).via("an integer, exactly: 3")
@example(-2, 0, 0).via("no fraction bits: -3")
def test_dyadic_endpoint_text_is_rat_str_of_the_fraction(odd, p, zeros):
    # odd * 2^zeros / 2^p, including integers (zeros >= p), zero and negatives
    m = (2 * odd + 1) << zeros if odd % 3 else 0
    assert series._dyadic_str(m, p) == rat_str(Fraction(m, 1 << p))


@pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.value)
def test_enclosure_rebuilt_from_its_interval_is_equal(family):
    for start in (1, 2, 5, 40):
        for enc in itertools.islice(enclosures(spec(family, start)), 3):
            again = series.Enclosure(enc.spec, enc.lo, enc.hi, enc.p, enc.terms)
            assert again == enc and hash(again) == hash(enc)
            assert again.as_payload() == enc.as_payload()
            assert enc.as_payload()["lo"] == rat_str(enc.interval.lo)
            assert enc.as_payload()["hi"] == rat_str(enc.interval.hi)
            # the same interval on a finer grid is the same enclosure
            lo, hi, p = enc.lo, enc.hi, enc.p
            finer = series.Enclosure(enc.spec, lo << 5, hi << 5, p + 5, enc.terms)
            assert finer == enc and finer.interval == enc.interval
            assert enc != series.Enclosure(enc.spec, lo, hi, p, enc.terms + 1)
            with pytest.raises(AttributeError):
                enc.terms = 0


@pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.value)
def test_enclosure_interval_is_the_checked_interval_of_its_integers(family):
    for enc in itertools.islice(enclosures(spec(family, 2)), 4):
        iv = enc.interval
        assert iv == RatInterval(F(enc.lo, 1 << enc.p), F(enc.hi, 1 << enc.p))
        assert type(iv.lo) is F and type(iv.hi) is F and iv.lo <= iv.hi
        assert enc.interval is iv  # built once


def test_enclosure_refuses_non_dyadic_intervals():
    # a non-dyadic interval cannot be given; an empty one or a negative p is refused
    s = spec("recip", 3)
    assert series.Enclosure(s, -3 << 2, 5, 2, 9).as_payload() == {
        "lo": "-3", "hi": "5/4", "terms": 9,
    }
    for lo, hi, p in ((5, 4, 2), (1, 0, 0), (1, 1, -1), (0, 0, -3)):
        with pytest.raises(ValueError, match=f"lo={lo}, hi={hi}, p={p}"):
            series.Enclosure(s, lo, hi, p, 9)


@pytest.mark.parametrize("theorem, family, parity, mode", [
    ("2.2", "recip-squared", 1, Reciprocal.floor),
    ("3.1", "alt-recip-squared", 0, Reciprocal.floor),
    ("3.2", "alt-recip", 1, Reciprocal.floor),
    ("3.3", "alt-recip-squared", None, Reciprocal.ceil),
])
def test_refine_inverse_returns_the_deciding_reciprocal(theorem, family, parity, mode):
    for n in range(1, 41):
        if parity is not None and n % 2 != parity:
            continue
        stated, = (v for v in verify_range(theorem, n, n, variant="both")
                   if v.variant == "stated")
        decided, view, enc = refine_inverse(spec(family, n), mode)
        assert stated.decided is not None
        assert decided == mode(view) == stated.decided
        assert enc == stated.enclosure
        lo, hi = enc.interval.lo, enc.interval.hi
        assert (F(view.d, view.b), F(view.d, view.a)) == (1 / hi, 1 / lo)
    # a budget that admits no enclosure judges nothing
    assert refine_inverse(spec("recip", 1), mode, max_terms=1) == (None, None, None)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="interpreter has no int-to-str digit limit")
def test_width_goal_message_quotes_huge_goals_in_short():
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    try:
        for goal, shown in ((F(-10**5000), "-10000000000000000000... (5001 digits)"),
                            (F(-1, 10**5000), "-1/10000000000000000000... (5001 digits)")):
            with pytest.raises(ValueError) as caught:
                enclose_sum(spec("recip", 3), goal)
            assert str(caught.value) == f"width goal must be positive, got {shown}"
    finally:
        sys.set_int_max_str_digits(old)
