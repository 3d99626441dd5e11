import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from jacsum import (
    NotInvertibleError,
    RatInterval,
    Reciprocal,
    ceil_decide,
    floor_decide,
    interval_reciprocal,
    rat_str,
)
from jacsum.intervals import _parse_rat, _ratio_str, _shown, int_str
from jacsum.series import _dyadic_str

F = Fraction

rationals = st.fractions(
    min_value=F(-10**6), max_value=F(10**6), max_denominator=10**6
)


@st.composite
def intervals(draw):
    a, b = sorted((draw(rationals), draw(rationals)))
    return RatInterval(a, b)


@st.composite
def sign_definite_intervals(draw):
    iv = draw(intervals().filter(lambda i: i.width < 10**5))
    offset = draw(st.sampled_from([F(1), F(1, 7), F(-1)]))
    if offset > 0:
        return RatInterval(iv.lo + abs(iv.lo) + offset, iv.hi + abs(iv.lo) + offset)
    return RatInterval(iv.lo - abs(iv.hi) - 1, iv.hi - abs(iv.hi) - 1)


def test_construction_normalizes_and_validates():
    iv = RatInterval(F(1, 2), F(2, 3))
    assert iv.width == F(1, 6)
    assert F(7, 12) in iv
    assert 2 not in iv
    with pytest.raises(ValueError):
        RatInterval(F(2, 3), F(1, 2))


def test_shift_and_encloses():
    iv = RatInterval(F(1, 3), F(1, 2)).shift(F(1))
    assert iv == RatInterval(F(4, 3), F(3, 2))
    assert RatInterval(1, 2).encloses(iv)
    assert not iv.encloses(RatInterval(1, 2))


def test_reciprocal_examples():
    assert interval_reciprocal(RatInterval(F(1, 2), F(2, 3))) == RatInterval(F(3, 2), F(2))
    assert interval_reciprocal(RatInterval(F(-1, 3), F(-1, 5))) == RatInterval(F(-5), F(-3))


def test_reciprocal_rejects_zero_straddle():
    with pytest.raises(NotInvertibleError):
        interval_reciprocal(RatInterval(F(-1, 4), F(1, 4)))
    with pytest.raises(NotInvertibleError):
        interval_reciprocal(RatInterval(F(0), F(1)))
    with pytest.raises(NotInvertibleError):
        interval_reciprocal(RatInterval(F(-1), F(0)))


@given(sign_definite_intervals())
def test_reciprocal_is_an_involution(iv):
    assert interval_reciprocal(interval_reciprocal(iv)) == iv


def test_floor_decide_examples():
    assert floor_decide(RatInterval(F(9, 8), F(5, 4))) == 1
    assert floor_decide(RatInterval(F(-26, 5), F(-51, 10))) == -6
    assert floor_decide(RatInterval(F(9, 10), F(11, 10))) is None
    assert floor_decide(RatInterval(F(3), F(3))) == 3


def test_ceil_decide_examples():
    assert ceil_decide(RatInterval(F(29, 10), F(3))) == 3
    # ceil(-3) = -3 but ceil(-26/10) = -2: endpoint exactness matters
    assert ceil_decide(RatInterval(F(-3), F(-26, 10))) is None
    assert ceil_decide(RatInterval(F(61, 20), F(79, 20))) == 4


@given(intervals())
def test_floor_decision_brackets_the_interval(iv):
    decided = floor_decide(iv)
    if decided is None:
        assert math.floor(iv.lo) != math.floor(iv.hi)
    else:
        assert decided <= iv.lo and iv.hi < decided + 1


@given(intervals())
def test_ceil_decision_brackets_the_interval(iv):
    decided = ceil_decide(iv)
    if decided is None:
        assert math.ceil(iv.lo) != math.ceil(iv.hi)
    else:
        assert decided - 1 < iv.lo and iv.hi <= decided


@given(rationals, rationals)
def test_exact_arithmetic_normalized(a, b):
    # Fraction keeps lowest terms with positive denominator for every op
    for value in (a + b, a - b, a * b):
        assert math.gcd(value.numerator, value.denominator) == 1
        assert value.denominator > 0


def test_rat_str_serialization():
    assert rat_str(F(8, 15)) == "8/15"
    assert rat_str(F(3, 1)) == "3"
    assert rat_str(F(-26, 5)) == "-26/5"
    assert rat_str(0) == "0"
    assert rat_str(F(-4, 2)) == "-2"


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="interpreter has no int-to-str digit limit")
def test_int_str_matches_str_under_the_lowest_digit_limit():
    values = [0, 1, -1, 9, 10**499, 10**500 - 1, 10**500, 10**500 + 1, 10**1000,
              -(10**1000) - 7, 2**16448 - 1, -(3**9000), 7 * 10**4300 + 3]
    old = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        want = [str(v) for v in values]
        sys.set_int_max_str_digits(640)  # the lowest limit CPython accepts
        got = [int_str(v) for v in values]
        ratios = [rat_str(F(-(3**9000), 7 * 10**4300 + 3)), rat_str(F(10**1000, 1)),
                  rat_str(-(10**1000) - 7)]
    finally:
        sys.set_int_max_str_digits(old)
    assert got == want
    assert ratios == [f"{want[11]}/{want[12]}", want[8], want[9]]


# int_str in a child started under the lowest digit limit CPython accepts,
# against str() in the same child once it has lifted the limit; the test
# process's own limit is never touched.  The values travel in hex, which no
# digit limit bounds.
_INT_STR_AGAINST_STR = """
import json, sys
from jacsum.intervals import int_str

assert sys.get_int_max_str_digits() == 640
values = [int(word, 16) for word in sys.stdin.read().split()]
got = [int_str(v) for v in values]
sys.set_int_max_str_digits(0)
print(json.dumps([i for i, (text, v) in enumerate(zip(got, values)) if text != str(v)]))
"""


def _int_str_mismatches(values: list) -> list:
    """Indices of `values` whose `int_str` under the lowest digit limit is
    not their `str()` without a limit."""
    proc = subprocess.run([sys.executable, "-c", _INT_STR_AGAINST_STR],
                          input=" ".join(map(hex, values)), capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONINTMAXSTRDIGITS": "640"})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


_needs_digit_limit = pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                                        reason="interpreter has no int-to-str digit limit")


@_needs_digit_limit
def test_int_str_equals_str_from_the_digit_limit_to_a_million_bits():
    # zero, signs, powers of 2 and 10, 10^k - 1 and random values; str() of
    # the reference takes about 0.1 s at 262,200 bits and 1 s at 10^6 bits
    rng = random.Random(15)
    values = [0, 1, -1, 10**639, 10**640 - 1, 10**640, -(10**640)]
    for bits in (2127, 4096, 4097, 8193, 14300, 29001, 50000):
        v = rng.getrandbits(bits) | 1 << (bits - 1)
        values += [v, -v, 1 << bits, -(1 << bits), (1 << bits) - 1, 1 << (bits - 1)]
    for k in (641, 1234, 4300, 4301, 10_000):
        values += [10**k, -(10**k), 10**k - 1, 10**k + 1]
    v = rng.getrandbits(262_200) | 1 << 262_199
    values += [v, -v, 1 << 262_200, (1 << 262_200) - 1, 10**78_929, -(10**301_029 - 1)]
    assert max(v.bit_length() for v in values) == 999_997  # 10^301029 - 1
    assert _int_str_mismatches(values) == []


@_needs_digit_limit
def test_ratio_text_is_str_and_reads_back_under_any_digit_limit():
    # integers on each of int_str's paths under the default limit: str() (to
    # 4,300 digits), 10^500 at a time (to 2^15 bits) and split in halves
    ints = [1, 7, 10**30 + 1, 3**5000, 7 * 10**4300 + 3, 11**9000, 13**9000, 2**40000 - 1]
    assert [v.bit_length() > 1 << 15 for v in ints[-3:]] == [False, True, True]
    ratios = [F(sign * num, den) for num in [0, *ints] for den in ints for sign in (1, -1)]
    dyadic = [(5, 0), (-12, 2), (3**5000, 100), (-(11**9000) << 7, 20000),
              (13**9000, 40000), (1 << 40000, 40000)]
    values = ratios + [F(m, 1 << p) for m, p in dyadic]
    old = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        want = [str(q) for q in values]
        for limit in (sys.int_info.default_max_str_digits, 640):
            sys.set_int_max_str_digits(limit)
            written = [_ratio_str(q.numerator, q.denominator) for q in ratios]
            written += [_dyadic_str(m, p) for m, p in dyadic]
            wrong = [i for i, q in enumerate(values)
                     if not written[i] == rat_str(q) == want[i] or _parse_rat(want[i]) != q]
            assert wrong == [], limit
    finally:
        sys.set_int_max_str_digits(old)


@pytest.mark.parametrize("text", [
    "1.5/2", "1e3", " 12 ", "12\n", "1/2/3", "1/0", "-3/00", "inf", "nan", "", "/", "1/", "/2",
    "+", "1/-2", "1/+2", "0x10", "1_000", "\u0663/\u0664", "\uff11\uff12", "1/\u0662",
])
def test_ratio_reader_refuses_text_the_writer_never_writes(text):
    with pytest.raises(ValueError, match="not a rational p/q"):
        _parse_rat(text)


def test_ratio_reader_reads_signs_leading_zeros_and_unreduced_ratios():
    assert [_parse_rat(t) for t in ("0", "-0", "+7", "-12/5", "3/01", "10/4")] == [
        0, 0, 7, F(-12, 5), 3, F(5, 2)]


def test_shown_writes_long_rationals_by_their_leading_digits():
    assert _shown(F(-10**30 - 1, 7)) == "-10000000000000000000... (31 digits)/7"
    assert _shown(F(5, 10**45 + 3)) == "5/10000000000000000000... (46 digits)"


@st.composite
def long_ints(draw):
    """An integer of 2,100 to 60,000 bits, past the lowest digit limit:
    random, a power of 2 or 10, or 10^k - 1, of either sign."""
    bits = draw(st.integers(2100, 60_000))
    kind = draw(st.sampled_from(("random", "2^k", "10^k", "10^k - 1")))
    if kind == "random":
        v = random.Random(draw(st.integers(0, 2**32))).getrandbits(bits) | 1 << (bits - 1)
    elif kind == "2^k":
        v = 1 << bits
    else:
        v = 10 ** (bits * 3 // 10) - (kind == "10^k - 1")
    return -v if draw(st.booleans()) else v


@_needs_digit_limit
@settings(max_examples=12, deadline=None)
@given(st.lists(long_ints(), min_size=1, max_size=8))
def test_int_str_equals_str_on_drawn_long_integers(values):
    assert _int_str_mismatches(values) == []


# --- the integer reciprocal view against the Fraction path ---

ends = st.one_of(
    st.integers(1, 40).map(F),
    st.fractions(min_value=F(1, 60), max_value=F(1000), max_denominator=60),
)


@st.composite
def reciprocal_views(draw):
    """(d, a, b) with d > 0 and a <= b of one sign, both signs drawn.

    Either the reciprocal side is drawn, often with integer endpoints, and
    written as [d/b, d/a] at a random common scale, or the sum side is
    drawn on a dyadic grid the way the series kernel makes it.
    """
    if draw(st.booleans()):
        x, y = sorted((draw(ends), draw(ends)))
        if draw(st.booleans()):
            x, y = -y, -x
        scale = draw(st.integers(1, 2**70))
        (l1, l2), (h1, h2) = x.as_integer_ratio(), y.as_integer_ratio()
        return h1 * l1 * scale, h2 * l1 * scale, l2 * h1 * scale
    p = draw(st.integers(0, 80))
    a, b = sorted(draw(st.lists(st.integers(1, 2**90), min_size=2, max_size=2)))
    return (1 << p, a, b) if draw(st.booleans()) else (1 << p, -b, -a)


@given(reciprocal_views())
def test_reciprocal_view_decides_as_the_fraction_path(dab):
    d, a, b = dab
    view = Reciprocal(d, a, b)
    ref = interval_reciprocal(RatInterval(F(a, d), F(b, d)))
    assert view.floor() == floor_decide(ref)
    assert view.ceil() == ceil_decide(ref)
    # every integer an endpoint touches, and its neighbours
    near = {f(end) + step for end in (ref.lo, ref.hi) for f in (math.floor, math.ceil)
            for step in (-1, 0, 1)}
    for c in near:
        assert view.above(c) == (c < ref.lo)
        assert view.at_least(c) == (c <= ref.lo)
        assert view.below(c) == (ref.hi < c)
        assert view.at_most(c) == (ref.hi <= c)


def test_reciprocal_view_examples():
    # [1/3, 1/2] inverts to [2, 3]; [-1/2, -1/3] to [-3, -2]
    up, down = Reciprocal(6, 2, 3), Reciprocal(6, -3, -2)
    assert (up.floor(), up.ceil(), down.floor(), down.ceil()) == (None, None, None, None)
    assert up.at_least(2) and not up.above(2) and up.at_most(3) and not up.below(3)
    assert down.at_least(-3) and not down.above(-3) and down.at_most(-2) and not down.below(-2)
    # [2/5, 3/5] inverts to [5/3, 5/2]; [-3/5, -2/5] to [-5/2, -5/3]
    assert Reciprocal(5, 2, 3).floor() is None and Reciprocal(5, 2, 2).floor() == 2
    assert Reciprocal(5, -2, -2).floor() == -3 and Reciprocal(5, -2, -2).ceil() == -2


# --- bounded quotes in error messages ---


@given(st.one_of(
    st.integers(-10**60, 10**60),
    st.integers(0, 1200).map(lambda k: 10**k),
    st.integers(1, 1200).map(lambda k: 10**k - 1),
    st.integers(1, 10**4).map(lambda k: -(2**k)),
))
def test_shown_quotes_the_leading_digits_and_the_length(value):
    text = int_str(value)
    digits = text.lstrip("-")
    shown = _shown(value)
    if len(digits) <= 20:
        assert shown == text
    else:
        assert shown == f"{text[:len(text) - len(digits) + 20]}... ({len(digits)} digits)"


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="interpreter has no int-to-str digit limit")
def test_range_checks_quote_huge_values_in_short():
    from jacsum import (
        SeriesSpec, check_cassini, check_lemma_1_1, enclosures, jacobsthal,
        jacobsthal_poly, jacobsthal_range, partial_sum, series_term, tail_bound,
        verify_range, verify_thm_3_1,
    )
    from jacsum.identities import iter_identities

    huge = -(10**5000)
    spec = SeriesSpec("recip", 1)
    checks = [
        (lambda: jacobsthal(huge), "index must be >= 0, got "),
        (lambda: jacobsthal_range(huge, 1), "need 0 <= lo <= hi, got lo="),
        (lambda: jacobsthal_poly(huge, 2), "index must be >= 0, got "),
        (lambda: SeriesSpec("recip", huge), "start must be >= 1, got "),
        (lambda: series_term(spec, huge), "term index must be >= 1, got "),
        (lambda: partial_sum(spec, huge), "last index "),
        (lambda: tail_bound(spec, huge), "tail bound for recip needs last >= 3, got "),
        (lambda: next(enclosures(spec, max_terms=huge)), "max_terms must be >= 1, got "),
        (lambda: verify_range("3.1", huge, 1), "need 1 <= n_lo <= n_hi, got "),
        (lambda: verify_thm_3_1(huge), "need n >= 1, got "),
        (lambda: next(iter_identities(huge, 1)), "need max_n >= 1, got "),
        (lambda: next(iter_identities(1, huge)), "need cassini_max >= 1, got "),
        (lambda: check_cassini(1, huge), "need 1 <= k <= n, got k="),
        (lambda: check_lemma_1_1(huge), "lemma1.1 needs n >= 0, got "),
    ]
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    try:
        for check, prefix in checks:
            with pytest.raises(ValueError) as caught:
                check()
            message = str(caught.value)
            assert message.startswith(prefix), message
            assert "-10000000000000000000... (5001 digits)" in message
            assert len(message) <= len(prefix) + 60, message
    finally:
        sys.set_int_max_str_digits(old)


@given(st.fractions(max_denominator=10**30))
def test_shown_quotes_rationals_as_str_while_short(q):
    shown = _shown(q)
    if max(len(str(abs(q.numerator))), len(str(q.denominator))) <= 20:
        assert shown == str(q)
    else:
        num, _, den = shown.partition("/")
        assert num == _shown(q.numerator) and den in ("", _shown(q.denominator))


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="interpreter has no int-to-str digit limit")
def test_interval_messages_quote_huge_rationals_in_short():
    huge, short = F(10**5000), "10000000000000000000... (5001 digits)"
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    try:
        with pytest.raises(ValueError) as caught:
            RatInterval(huge, 0)
        assert type(caught.value) is ValueError
        assert str(caught.value) == f"empty interval: lo={short} > hi=0"
        with pytest.raises(NotInvertibleError) as caught:
            interval_reciprocal(RatInterval(-huge, 1 / huge))
        assert str(caught.value) == (
            f"interval [-{short}, 1/{short}] contains zero; refine the enclosure first"
        )
    finally:
        sys.set_int_max_str_digits(old)
