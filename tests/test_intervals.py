import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from jacsum import (
    NotInvertibleError,
    RatInterval,
    ceil_decide,
    floor_decide,
    interval_reciprocal,
    rat_str,
)
from jacsum.intervals import int_str

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
