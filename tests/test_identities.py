import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from jacsum import (
    check_cassini,
    check_lemma_1_1,
    check_lemma_1_2,
    check_lemma_1_4,
    check_lemma_1_5,
    check_step_2_1,
    check_step_2_2,
    check_step_3_1,
    check_step_3_3,
    identity_sweep,
    jacobsthal_closed_form,
    jacobsthal_range,
    rat_str,
)
from jacsum import identities
from jacsum.identities import iter_identities

import oracles

F = Fraction


def test_lemma_1_1_examples():
    assert check_lemma_1_1(3).holds and check_lemma_1_1(3).lhs == 8
    assert check_lemma_1_1(1).holds and check_lemma_1_1(1).lhs == 2
    assert check_lemma_1_1(10).holds


def test_lemma_1_1_below_stated_range_is_flagged():
    res = check_lemma_1_1(0)
    assert not res.applicable
    assert res.holds  # 0 + 1 == 2^0 happens to hold anyway


def test_lemma_1_2_examples():
    a, b, c = check_lemma_1_2(3)
    assert a.holds and b.holds and c.holds
    assert (c.lhs, c.rhs) == (F(2), F(4))

    a, b, c = check_lemma_1_2(1)
    assert a.holds and a.applicable
    assert not b.applicable and not c.applicable

    a, b, c = check_lemma_1_2(2)
    assert a.holds and b.holds
    assert a.applicable and b.applicable and not c.applicable


def test_cassini_examples():
    r = check_cassini(2, 1)
    assert r.holds and r.lhs == 2
    r = check_cassini(3, 2)
    assert r.holds and r.lhs == 2
    # k = n collapses through J(0) = 0 to -J(n)^2 on both sides
    for n in (1, 2, 5, 9):
        r = check_cassini(n, n)
        assert r.holds and r.lhs == r.rhs < 0


def test_cassini_rejects_bad_offsets():
    with pytest.raises(ValueError):
        check_cassini(3, 0)
    with pytest.raises(ValueError):
        check_cassini(3, 4)
    with pytest.raises(ValueError):
        check_cassini(0, 0)


def test_cassini_offset_one_specialization():
    # J(n-1)J(n+1) - J(n)^2 == (-1)^n 2^(n-1), used by the alternating claims
    for n in range(1, 129):
        r = check_cassini(n, 1)
        assert r.holds
        assert r.lhs == (-1) ** n * 2 ** (n - 1)


def test_lemma_1_4_examples():
    assert check_lemma_1_4(2).holds and check_lemma_1_4(2).lhs == 8
    assert check_lemma_1_4(1).holds and check_lemma_1_4(1).lhs == 0
    r = check_lemma_1_4(6)
    assert r.holds and r.lhs == 1408 == 2**7 * 11


def test_lemma_1_5_examples():
    assert check_lemma_1_5(3).holds and check_lemma_1_5(3).lhs == 43
    assert check_lemma_1_5(1).holds and check_lemma_1_5(1).lhs == 3
    assert check_lemma_1_5(4).holds and check_lemma_1_5(4).lhs == 171


def test_step_2_1_examples():
    assert check_step_2_1(1).holds and check_step_2_1(1).lhs == 2
    assert check_step_2_1(2).holds and check_step_2_1(2).lhs == 28
    assert check_step_2_1(5).holds


def test_step_2_2_spot_value():
    r = check_step_2_2(3)
    assert r.holds
    assert r.lhs == r.rhs == F(172, 2475)


def test_step_2_2_signs():
    assert check_step_2_2(4).holds and check_step_2_2(4).lhs < 0
    assert check_step_2_2(5).holds and check_step_2_2(5).lhs > 0


def test_step_2_2_range_handling():
    res = check_step_2_2(2)
    assert not res.applicable and res.holds  # arithmetic admissible, range flagged
    with pytest.raises(ValueError):
        check_step_2_2(1)


def test_step_3_1_examples():
    assert check_step_3_1(2).holds and check_step_3_1(2).lhs == 1
    assert check_step_3_1(3).holds and check_step_3_1(3).lhs == -1
    assert check_step_3_1(10).holds and check_step_3_1(10).lhs == 1


def test_step_3_1_sign_matches_parity():
    for n in range(1, 257):
        r = check_step_3_1(n)
        assert r.holds and r.lhs == (-1) ** n


def test_step_3_3_examples():
    r = check_step_3_3(5)
    assert r.holds and r.lhs == -3201
    r = check_step_3_3(2)
    assert r.holds and r.lhs == 1  # positive, but the claim starts at n=5
    assert "n=5" in r.note
    r = check_step_3_3(1)
    assert r.holds and r.lhs == -1


@pytest.mark.parametrize("ident, n, values", [
    ("step2.1", 4, {4: 1, 5: 100, 6: 1, 7: 1}),
    ("step3.3", 5, {4: 1, 5: 1, 6: 1}),
])
def test_disagreeing_forms_raise(ident, n, values):
    # each entry evaluates its claim in two forms that agree on every true J;
    # wrong J values make them disagree, which must stop the sweep
    sides = identities._CATALOG[ident].sides(values, range(n, n + 1))
    with pytest.raises(RuntimeError, match=rf"^{re.escape(ident)} .* at n={n}: "):
        next(sides)


def test_step_3_3_negative_from_five():
    for n in range(5, 129):
        r = check_step_3_3(n)
        assert r.holds and r.lhs < 0


def test_checks_reject_indices_below_range():
    for fn in (check_lemma_1_2, check_lemma_1_4, check_lemma_1_5,
               check_step_2_1, check_step_3_1, check_step_3_3):
        with pytest.raises(ValueError):
            fn(0)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=400))
def test_equalities_hold_at_random_indices(n):
    assert check_lemma_1_1(n).holds
    assert check_lemma_1_4(n).holds
    assert check_lemma_1_5(n).holds
    assert check_step_3_1(n).holds
    if n >= 3:
        r = check_step_2_2(n)
        assert r.holds
        # the common value carries the sign (-1)^(n-1)
        assert (r.lhs > 0) == (n % 2 == 1)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_cassini_holds_at_random_offsets(data):
    n = data.draw(st.integers(min_value=1, max_value=300))
    k = data.draw(st.integers(min_value=1, max_value=n))
    assert check_cassini(n, k).holds


def test_sweep_is_deterministic_and_clean():
    first = identity_sweep(16, 8)
    second = identity_sweep(16, 8)
    assert first == second
    assert not any(r.failed for r in first)
    ids = {r.identity for r in first}
    assert ids == {
        "lemma1.1", "lemma1.2a", "lemma1.2b", "lemma1.2c", "lemma1.3",
        "lemma1.4", "lemma1.5", "step2.1", "step2.2", "step3.1", "step3.3",
    }


def test_integer_sides_stay_int():
    for r in identity_sweep(12, 6):
        if r.identity == "step2.2" or (r.identity == "lemma1.2c" and r.n == 1):
            continue  # sides that can be fractional: step2.2, and 2^(n-2) = 1/2 at n = 1
        assert type(r.lhs) is int and type(r.rhs) is int, r
    assert check_lemma_1_2(1)[2].lhs == F(1, 2)
    assert rat_str(2**80) == str(2**80) and rat_str(-7) == "-7"
    assert rat_str(F(6, 3)) == "2" and rat_str(F(-3, 6)) == "-1/2"


def test_step_2_1_matches_exact_fraction_form():
    # the integer numerator must decide exactly as the old Fraction gap did
    for n in range(1, 301):
        r = check_step_2_1(n)
        diff = oracles.jac(n + 1) * oracles.jac(n + 3) - oracles.jac(n) * oracles.jac(n + 2)
        gap = oracles.step_2_1_gap(n)
        assert (r.holds, r.lhs, r.rhs, r.note, r.applicable) == (
            diff > 0 and gap > 0, diff, 0, "", True
        ), n


def test_step_2_2_matches_exact_fraction_form():
    for n in range(2, 301):
        r = check_step_2_2(n)
        lhs, rhs = oracles.step_2_2_sides(n)
        sign = "positive" if lhs > 0 else ("negative" if lhs < 0 else "zero")
        note = f"common value {sign}" + ("" if n >= 3 else "; stated range starts at n=3")
        assert (r.holds, r.lhs, r.rhs, r.note, r.applicable) == (
            lhs == rhs, lhs, rhs, note, n >= 3
        ), n
        assert type(r.lhs) is Fraction and type(r.rhs) is Fraction


def test_step_2_2_reduced_pair_equals_the_full_gcd_value():
    # step2.2 reduces its common value R/D by g = gcd(R mod 9, D mod 9, 9)
    # alone: the pair must be R/D in lowest terms, g in {1, 3, 9}, g = 1
    # unless 3 divides n - 1, and the value the oracle's
    J, seen = jacobsthal_range(0, 2 * 2048 + 2), set()
    for n, _, holds, lhs, rhs, _ in identities._step_2_2(J, range(3, 2049)):
        a, b, c, d = J[n - 1], J[n], J[n + 1], J[n + 2]
        denom = a * b**2 * c**2 * d
        value = Fraction((-1) ** (n - 1) * J[2 * n + 1] * 2 ** (n - 1), denom)
        assert holds and lhs is rhs, n
        p, q = rhs
        assert (p, q) == (value.numerator, value.denominator), n
        g, rest = divmod(denom, q)
        assert rest == 0 and g in (1, 3, 9), n
        assert g == 1 or (n - 1) % 3 == 0, n
        assert oracles.step_2_2_sides(n) == (value, value), n
        seen.add(g)
    assert seen == {1, 3, 9}


def test_cassini_sweep_matches_single_checks_and_closed_form():
    rows = [r for r in iter_identities(64, 64) if r.identity == "lemma1.3"]
    assert [(r.n, r.k) for r in rows] == [
        (n, k) for n in range(1, 65) for k in range(1, n + 1)
    ]
    for r in rows:
        n, k = r.n, r.k
        assert r == check_cassini(n, k)
        assert r.rhs == (-1) ** (n - k + 1) * 2 ** (n - k) * jacobsthal_closed_form(k) ** 2


_SINGLE_CHECKS = {
    "lemma1.1": check_lemma_1_1,
    "lemma1.2a": lambda n: check_lemma_1_2(n)[0],
    "lemma1.2b": lambda n: check_lemma_1_2(n)[1],
    "lemma1.2c": lambda n: check_lemma_1_2(n)[2],
    "lemma1.4": check_lemma_1_4,
    "lemma1.5": check_lemma_1_5,
    "step2.1": check_step_2_1,
    "step2.2": check_step_2_2,
    "step3.1": check_step_3_1,
    "step3.3": check_step_3_3,
}


def test_sweep_rows_match_single_checks():
    # the sweep reads one window of J, the checks the closed form: same rows
    rows = [r for r in iter_identities(300, 64) if r.identity != "lemma1.3"]
    assert [(r.identity, r.n) for r in rows] == [
        (ident, n) for ident in _SINGLE_CHECKS
        for n in range(3 if ident == "step2.2" else 1, 301)
    ]
    for r in rows:
        single = _SINGLE_CHECKS[r.identity](r.n)
        assert r == single, r
        assert (type(r.lhs), type(r.rhs)) == (type(single.lhs), type(single.rhs)), r
