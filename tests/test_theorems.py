import contextlib
import gc
import re
import sys
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import pytest

from jacsum import (
    Status,
    default_variant,
    interval_reciprocal,
    jacobsthal,
    verify_cor_3_2,
    verify_range,
    verify_thm_2_1,
    verify_thm_2_2,
    verify_thm_3_1,
    verify_thm_3_3,
)
from jacsum import theorems
from jacsum.intervals import Reciprocal

import oracles

F = Fraction


def test_thm_2_1_small_indices_verified():
    for n in (2, 3, 6):
        v = verify_thm_2_1(n)
        assert v.status is Status.VERIFIED
        assert v.theorem == "2.1" and v.n == n


def test_thm_2_1_verdict_recheckable_from_enclosure():
    v = verify_thm_2_1(6)
    inv = interval_reciprocal(v.enclosure.interval)
    assert jacobsthal(4) < inv.lo and inv.hi < 4 * (jacobsthal(4) + 1)
    # equivalent combined bound on the sum side
    assert v.enclosure.interval.lo > F(1, 4 * (jacobsthal(4) + 1))
    assert v.enclosure.interval.hi < F(1, jacobsthal(4))


def test_thm_2_1_below_range():
    assert verify_thm_2_1(1).status is Status.NOT_APPLICABLE
    assert verify_thm_2_1(0).status is Status.NOT_APPLICABLE


def test_thm_2_1_undecided_when_budget_admits_no_enclosure():
    # at n=2 the tail bound needs truncation index >= 3, out of reach here
    v = verify_thm_2_1(2, max_terms=1)
    assert v.status is Status.UNDECIDED and v.enclosure is None


def test_thm_2_2_at_one_both_variants_verified():
    stated, proof = verify_thm_2_2(1)
    assert stated.status is Status.VERIFIED and stated.decided == 0
    assert proof.status is Status.VERIFIED and proof.decided == 0
    assert proof.variant == "proof-implied" and stated.variant == "stated"
    assert not stated.discrepancy and not proof.discrepancy


def test_thm_2_2_direction_flip_at_three():
    stated, proof = verify_thm_2_2(3)
    assert stated.status is Status.REFUTED
    assert stated.decided == 6 and stated.expected == 3
    assert proof.status is Status.VERIFIED
    assert proof.enclosure.interval.hi < F(1, 3)
    assert stated.discrepancy and proof.discrepancy
    stamp = "variants disagree: stated refuted; proof-implied verified"
    assert stated.note == f"decided floor 6 > J(n-1)J(n) = 3; {stamp}"
    assert proof.note == f"sum < 1/(J(n-1)J(n)) = 1/3; {stamp}"


def test_thm_2_2_spot_floor_at_five():
    stated, proof = verify_thm_2_2(5)
    assert stated.decided == 88 and stated.expected == 55
    assert stated.status is Status.REFUTED and proof.status is Status.VERIFIED
    assert stated.decided == oracles.floor_of_inverse("recip-squared", 5)


def test_thm_2_2_even_is_not_applicable():
    stated, proof = verify_thm_2_2(4)
    assert stated.status is proof.status is Status.NOT_APPLICABLE


def test_thm_3_1_proof_implied_floor():
    proof, stated = verify_thm_3_1(2)
    assert proof.status is Status.VERIFIED and proof.decided == 1
    assert stated.status is Status.VERIFIED and stated.decided == 1
    assert not proof.discrepancy

    proof, stated = verify_thm_3_1(4)
    assert proof.status is Status.VERIFIED and proof.decided == 7
    assert stated.status is Status.REFUTED and stated.decided == 29
    assert proof.discrepancy and stated.discrepancy
    stamp = "variants disagree: proof-implied verified; stated refuted"
    assert proof.note == f"inverse strictly inside (7, 8); {stamp}"
    assert stated.note == f"squared-series floor 29 != 7; {stamp}"


def test_thm_3_1_bracket_recheckable():
    proof, _ = verify_thm_3_1(6)
    inv = interval_reciprocal(proof.enclosure.interval)
    assert 2**5 - 1 < inv.lo and inv.hi < 2**5


def test_thm_3_1_decides_beyond_the_fixed_budget():
    # the proof-implied bracket first decides at K = 3n - 3, past start + 4096
    # here; the default budget start + max(4096, 4n) grows with n
    proof, stated = verify_thm_3_1(2100)
    assert proof.status is Status.VERIFIED and proof.decided == 2**2099 - 1
    assert proof.enclosure.terms == 8432
    assert stated.status is Status.REFUTED


def test_thm_3_1_odd_not_applicable():
    proof, stated = verify_thm_3_1(5)
    assert proof.status is stated.status is Status.NOT_APPLICABLE


def test_cor_3_2_examples():
    v = verify_cor_3_2(3)
    assert v.status is Status.VERIFIED
    assert v.decided == -6 and v.expected == -5

    v = verify_cor_3_2(1)
    assert v.status is Status.VERIFIED and v.decided == -6 and v.expected == -2

    v = verify_cor_3_2(5)
    assert v.status is Status.VERIFIED and v.expected == -17
    assert v.decided == oracles.floor_of_inverse("alt-recip", 5) == -18

    assert verify_cor_3_2(4).status is Status.NOT_APPLICABLE


def test_thm_3_3_examples():
    v = verify_thm_3_3(4)
    assert v.status is Status.VERIFIED and v.decided == 30 and v.expected == 33

    v = verify_thm_3_3(2)
    assert v.status is Status.REFUTED and v.decided == 2 and v.expected == 1
    assert "outside derivation range" in v.note

    v = verify_thm_3_3(5)
    assert v.status is Status.VERIFIED and v.decided == -155 and v.expected == 145

    v = verify_thm_3_3(1)
    assert v.status is Status.VERIFIED and v.decided == -12 and v.expected == 0


def test_verdicts_match_oracle_floors_small_range():
    for n in range(2, 17, 2):
        proof, stated = verify_thm_3_1(n)
        assert proof.decided == oracles.floor_of_inverse("alt-recip", n)
        assert stated.decided == oracles.floor_of_inverse("alt-recip-squared", n)
    for n in range(1, 17):
        assert verify_thm_3_3(n).decided == oracles.ceil_of_inverse(
            "alt-recip-squared", n
        )


def test_verify_range_shapes():
    rows = verify_range("3.1", 2, 8, parity="even")
    assert [v.n for v in rows] == [2, 4, 6, 8]
    assert all(v.variant == "proof-implied" for v in rows)
    assert all(v.status is Status.VERIFIED for v in rows)

    rows = verify_range("3.1", 2, 8, variant="both")
    assert len(rows) == 8

    rows = verify_range("3.2", 1, 9, parity="odd")
    assert [v.n for v in rows] == [1, 3, 5, 7, 9]

    rows = verify_range("2.1", 2, 2)
    assert len(rows) == 1

    assert default_variant("3.1") == "proof-implied"
    assert default_variant("3.3") == "stated"


def test_verify_range_skips_inadmissible_indices():
    rows = verify_range("2.2", 1, 6)
    assert [v.n for v in rows] == [1, 3, 5]


def test_verify_range_empty_set_warns():
    with pytest.warns(UserWarning):
        rows = verify_range("3.1", 3, 3, parity="odd")
    assert rows == []


def test_verify_range_is_deterministic():
    a = verify_range("2.2", 1, 9, variant="both")
    b = verify_range("2.2", 1, 9, variant="both")
    assert a == b


def test_verify_range_rejects_bad_arguments():
    with pytest.raises(ValueError):
        verify_range("9.9", 1, 4)
    with pytest.raises(ValueError):
        verify_range("3.1", 4, 1)
    with pytest.raises(ValueError):
        verify_range("3.1", 1, 4, parity="prime")
    with pytest.raises(ValueError):
        verify_range("2.1", 2, 4, variant="proof-implied")


def test_undecided_statuses_under_budget():
    proof, stated = verify_thm_3_1(8, max_terms=2)
    assert proof.status is Status.UNDECIDED
    assert stated.status is Status.UNDECIDED
    v = verify_thm_3_3(8, max_terms=2)
    assert v.status is Status.UNDECIDED

    floor_note = "floor undecided at refinement cap"
    # n = 1: the budget admits no enclosure, so neither variant is decided
    for v, variant in zip(verify_thm_2_2(1, max_terms=1), ("stated", "proof-implied")):
        assert v.variant == variant and v.status is Status.UNDECIDED
        assert v.decided is None and v.expected == 0
        assert v.enclosure is None and v.note == floor_note

    # one term: the floor straddles, while the sum-side bound already holds
    stated, proof = verify_thm_2_2(3, max_terms=1)
    assert stated.status is Status.UNDECIDED and stated.expected == 3
    assert stated.enclosure.terms == 3 and stated.note == floor_note
    assert proof.status is Status.VERIFIED and proof.expected is None
    assert proof.enclosure.terms == 3 and proof.note == "sum < 1/(J(n-1)J(n)) = 1/3"
    assert not stated.discrepancy and not proof.discrepancy

    v = verify_cor_3_2(9, max_terms=2)
    assert v.status is Status.UNDECIDED and v.decided is None and v.expected == -257
    assert v.enclosure.terms == 10 and v.note == floor_note

    v = verify_thm_3_3(3, max_terms=1)
    assert v.status is Status.UNDECIDED and v.decided is None and v.expected == 9
    assert v.enclosure.terms == 3
    assert v.note == (
        "ceiling undecided at refinement cap; outside derivation range (even n >= 5)"
    )


@pytest.mark.parametrize("theorem, n, rows", [
    ("3.1", 4096, [("proof-implied", Status.VERIFIED, 16416), ("stated", Status.REFUTED, 8208)]),
    ("3.2", 4095, [("stated", Status.VERIFIED, 16412)]),
    ("3.3", 4095, [("stated", Status.VERIFIED, 8206)]),
])
def test_deep_indices_keep_their_verdicts_and_truncations(theorem, n, rows):
    verdicts = verify_range(theorem, n, n, variant="both")
    assert [(v.variant, v.status, v.enclosure.terms) for v in verdicts] == rows


@contextlib.contextmanager
def _default_digit_limit():
    if not hasattr(sys, "set_int_max_str_digits"):  # interpreters without the limit
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


@pytest.mark.parametrize("theorem, n", [("3.3", 7300), ("3.1", 8192)])
def test_library_verdicts_beyond_the_digit_limit(theorem, n):
    # notes and endpoints with more than 4300 digits, under the default limit
    with _default_digit_limit():
        verdicts = verify_range(theorem, n, n, variant="both")
        payloads = [v.enclosure.as_payload() for v in verdicts]
    assert {v.status for v in verdicts} <= {Status.VERIFIED, Status.REFUTED}
    for v, payload in zip(verdicts, payloads):
        # Decimal reads and compares decimal strings exactly, under any limit
        for end in ("lo", "hi"):
            num, den = payload[end].split("/")
            exact = getattr(v.enclosure.interval, end)
            assert (Decimal(num), Decimal(den)) == (exact.numerator, exact.denominator)
            assert len(den) > 4300
        # the note carries expected in full
        assert any(Decimal(word) == v.expected for word in re.findall(r"-?\d+", v.note))


def test_deep_index_memory_is_linear_and_released():
    # J(n) comes from the closed form, so nothing grows a table of J(0..n),
    # about n^2/2 bits (some 64 MB at this n), and nothing outlives the call
    gc.collect()
    tracemalloc.start()
    try:
        verdicts = verify_range("3.3", 32768, 32768)
        _, peak = tracemalloc.get_traced_memory()
        assert [v.status for v in verdicts] == [Status.VERIFIED]
        del verdicts
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert retained < 64 * 2**10


# The one judge, reached through a reading's row of the claim table and fed
# made-up reciprocal intervals: a claim is settled only when the whole
# interval is on one side of its bound, and an endpoint touching a strict
# bound keeps the refinement going.
def _view(lo, hi):
    """The reciprocal interval [l1/l2, h1/h2] as judges get it: [d/b, d/a]
    with d = h1*l1, a = h2*l1 and b = l2*h1."""
    (l1, l2), (h1, h2) = F(lo).as_integer_ratio(), F(hi).as_integer_ratio()
    return Reciprocal(h1 * l1, h2 * l1, l2 * h1)


def _reading(theorem, variant):
    (claim,) = [c for c in theorems._CLAIMS if (c.theorem, c.variant) == (theorem, variant)]
    return claim


def _judge(theorem, variant, n, expected, lo, hi):
    """(status, decided, note) of the reading's judge at n on [lo, hi], or None."""
    c = _reading(theorem, variant)
    assert c.expected(n) == expected
    return c.target(n, expected, *c.ends(n, expected))(_view(lo, hi))


def _judged(theorem, variant, n, expected, lo, hi):
    result = _judge(theorem, variant, n, expected, lo, hi)
    return None if result is None else result[:2]


@pytest.mark.parametrize("lo, hi, judged", [
    # n = 4: the bounds are J(2) = 1 and 4(J(2)+1) = 8
    ("2", "3", (Status.VERIFIED, None)),
    ("1/4", "1/2", (Status.REFUTED, None)),  # wholly below
    ("1/2", "1", (Status.REFUTED, None)),  # touches J(n-2) from below
    ("10", "11", (Status.REFUTED, None)),  # wholly above
    ("8", "9", (Status.REFUTED, None)),  # touches 4(J(n-2)+1) from above
    ("1/2", "2", None),  # straddles J(n-2)
    ("7", "9", None),  # straddles 4(J(n-2)+1)
    ("1", "2", None),  # touches J(n-2) from inside
    ("7", "8", None),  # touches 4(J(n-2)+1) from inside
])
def test_judge_2_1_on_made_up_intervals(lo, hi, judged):
    assert _judged("2.1", "stated", 4, None, lo, hi) == judged


def test_judge_2_1_notes_name_the_bounds():
    assert _judge("2.1", "stated", 4, None, 9, 10)[2] == "inverse escapes (1, 8)"
    assert _judge("2.1", "stated", 4, None, 2, 3)[2] == "inverse within (1, 8)"


@pytest.mark.parametrize("n, expected, lo, hi, judged", [
    # n = 3: the bound is J(2)J(3) = 3, and the inverse must lie above it
    (3, None, "7/2", "4", (Status.VERIFIED, None)),
    (3, None, "2", "5/2", (Status.REFUTED, None)),  # wholly below
    (3, None, "2", "3", (Status.REFUTED, None)),  # touches the bound from below
    (3, None, "5/2", "7/2", None),  # straddles the bound
    (3, None, "3", "4", None),  # touches the bound from above
    # n = 1: the floor itself must be J(0)J(1) = 0
    (1, 0, "1/5", "1/2", (Status.VERIFIED, 0)),
    (1, 0, "6/5", "3/2", (Status.REFUTED, 1)),
    (1, 0, "1", "3/2", (Status.REFUTED, 1)),  # touches 1 from above
    (1, 0, "1/2", "3/2", None),  # straddles 1
])
def test_judge_2_2_proof_on_made_up_intervals(n, expected, lo, hi, judged):
    assert _judged("2.2", "proof-implied", n, expected, lo, hi) == judged


def test_judge_2_2_proof_refutation_note():
    note = _judge("2.2", "proof-implied", 3, None, 2, 3)[2]
    assert note == "sum >= 1/(J(n-1)J(n)) = 1/3"


@pytest.mark.parametrize("lo, hi, judged", [
    # n = 4: the floor must be 2^3 - 1 = 7, strictly inside (7, 8)
    ("36/5", "39/5", (Status.VERIFIED, 7)),
    ("41/5", "17/2", (Status.REFUTED, 8)),  # wholly above
    ("31/5", "34/5", (Status.REFUTED, 6)),  # wholly below
    ("8", "17/2", (Status.REFUTED, 8)),  # touches 8 from above
    ("13/2", "15/2", None),  # straddles 7
    ("15/2", "17/2", None),  # straddles 8
    ("7", "15/2", None),  # floor 7, but touches 7
    ("15/2", "8", None),  # touches 8 from below
])
def test_judge_3_1_proof_on_made_up_intervals(lo, hi, judged):
    assert _judged("3.1", "proof-implied", 4, 7, lo, hi) == judged


def test_judge_3_1_proof_refutation_note():
    note = _judge("3.1", "proof-implied", 4, 7, F(41, 5), F(17, 2))[2]
    assert note == "decided floor 8 != 2^(n-1)-1 = 7"


@pytest.mark.parametrize("theorem, variant, n, lo, hi, judged", [
    # a closed end touched from inside settles: [E, E + 1) and (-inf, E]
    ("3.1", "stated", 4, "7", "15/2", (Status.VERIFIED, 7)),
    ("3.1", "stated", 4, "15/2", "8", None),  # floor straddles E + 1
    ("3.1", "stated", 4, "8", "17/2", (Status.REFUTED, 8)),
    ("3.3", "stated", 4, "65/2", "33", (Status.VERIFIED, 33)),  # E = 9 + 25 - 1
    ("3.3", "stated", 4, "33", "67/2", None),  # ceiling straddles E
    ("3.3", "stated", 4, "67/2", "34", (Status.REFUTED, 34)),
    # (-inf, E + 1) with a floor: E = J(2)J(3) = 3 and -(2^2 + 1) = -5
    ("2.2", "stated", 3, "3", "7/2", (Status.VERIFIED, 3)),
    ("2.2", "stated", 3, "4", "9/2", (Status.REFUTED, 4)),
    ("3.2", "stated", 3, "-5", "-9/2", (Status.VERIFIED, -5)),
    ("3.2", "stated", 3, "-4", "-7/2", (Status.REFUTED, -4)),
])
def test_rounding_readings_on_made_up_intervals(theorem, variant, n, lo, hi, judged):
    expected = _reading(theorem, variant).expected(n)
    assert _judged(theorem, variant, n, expected, lo, hi) == judged


def test_index_zero_is_rejected_unless_the_claim_starts_higher():
    with pytest.raises(ValueError, match="need n >= 1"):
        verify_thm_3_1(0)
    v = verify_thm_2_1(0)
    assert (v.status, v.note) == (Status.NOT_APPLICABLE, "stated for n >= 2")


# --- the targets as data: mutated ends and an independent oracle ---


def _outcomes(theorem):
    return [(v.n, v.variant, v.status, v.decided)
            for v in verify_range(theorem, 1, 64, variant="both")]


def _move_end(monkeypatch, theorem, variant, end, by):
    """Put in a copy of the claim table whose reading (theorem, variant) has
    its `end` ("lo" or "hi") moved by `by`, wherever that end is present."""
    i = 0 if end == "lo" else 1

    def moved(row):
        def ends(n, e):
            pair = list(row.ends(n, e))
            if pair[i] is not None:
                pair[i] += by
            return tuple(pair)
        return row._replace(ends=ends) if (row.theorem, row.variant) == (theorem, variant) else row

    monkeypatch.setattr(theorems, "_CLAIMS", tuple(moved(c) for c in theorems._CLAIMS))


@pytest.mark.parametrize("theorem, variant, end, by, first_n", [
    ("2.1", "stated", "lo", 1, 2),
    ("2.2", "stated", "hi", -1, 1),
    ("2.2", "proof-implied", "lo", 1, 1),  # [1, 1) at n = 1
    ("2.2", "proof-implied", "hi", -1, 1),  # [0, 0) at n = 1
    ("3.1", "proof-implied", "lo", 1, 2),
    ("3.1", "proof-implied", "hi", -1, 2),
    ("3.1", "stated", "lo", 1, 2),
    ("3.1", "stated", "hi", -1, 2),
    ("3.3", "stated", "hi", 1, 2),
    # 3.2's floor sits one below its bound, so neither move of its one end
    # changes a verdict at n <= 64
    ("3.2", "stated", "hi", 1, None),
    ("3.2", "stated", "hi", -1, None),
])
def test_moving_one_end_of_a_target_by_one_changes_a_verdict(
    monkeypatch, theorem, variant, end, by, first_n
):
    before = _outcomes(theorem)
    _move_end(monkeypatch, theorem, variant, end, by)
    after = _outcomes(theorem)
    assert [(n, v) for n, v, *_ in after] == [(n, v) for n, v, *_ in before]
    changed = [a[0] for a, b in zip(after, before) if a != b]
    assert (changed[0] if changed else None) == first_n


def _oracle_status(inside, outside):
    assert inside != outside, "oracle bracket too wide; deepen"
    return Status.VERIFIED if inside else Status.REFUTED


def _oracle_outcomes(theorem):
    """(n, variant, status, decided) over admissible n <= 64, from the oracle,
    with every target end computed here."""
    jac, out = oracles.jac, []
    for n in range(1, 65):
        if theorem == "2.1" and n >= 2:
            lo, hi = oracles.sum_bracket("recip", n, 3 * n + 120)
            a, b = jac(n - 2), 4 * (jac(n - 2) + 1)  # a < 1/S < b
            out.append((n, "stated", _oracle_status(a < 1 / hi and 1 / lo < b,
                                                    1 / lo <= a or 1 / hi >= b), None))
        if theorem == "2.2" and n % 2:
            e = jac(n - 1) * jac(n)
            if n == 1:
                f = oracles.floor_of_inverse("recip-squared", n)
                out.append((n, "proof-implied", _oracle_status(f == 0, f != 0), f))
            else:
                lo, hi = oracles.sum_bracket("recip-squared", n, 3 * n + 120)
                out.append((n, "proof-implied", _oracle_status(1 / hi > e, 1 / lo <= e), None))
            f = oracles.floor_of_inverse("recip-squared", n)
            out.append((n, "stated", _oracle_status(f <= e, f > e), f))
        if theorem == "3.1" and n % 2 == 0:
            e = 2 ** (n - 1) - 1
            lo, hi = oracles.sum_bracket("alt-recip", n, 3 * n + 120)
            f = oracles.floor_of_inverse("alt-recip", n)
            inside, outside = e < 1 / hi and 1 / lo < e + 1, 1 / lo <= e or 1 / hi >= e + 1
            out.append((n, "proof-implied", _oracle_status(inside, outside), f))
            f = oracles.floor_of_inverse("alt-recip-squared", n)
            out.append((n, "stated", _oracle_status(f == e, f != e), f))
        if theorem == "3.2" and n % 2:
            e = -(2 ** (n - 1) + 1)
            f = oracles.floor_of_inverse("alt-recip", n)
            out.append((n, "stated", _oracle_status(f <= e, f > e), f))
        if theorem == "3.3":
            e = jac(n - 1) ** 2 + jac(n) ** 2 - 1
            c = oracles.ceil_of_inverse("alt-recip-squared", n)
            out.append((n, "stated", _oracle_status(c <= e, c > e), c))
    return out


@pytest.mark.parametrize("theorem", theorems.THEOREM_IDS)
def test_every_reading_agrees_with_the_oracle(theorem):
    assert _outcomes(theorem) == _oracle_outcomes(theorem)
