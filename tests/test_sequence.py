import threading

import pytest

from jacsum import (
    jacobsthal,
    jacobsthal_closed_form,
    jacobsthal_poly,
    jacobsthal_range,
)

import oracles

FIRST_NINE = [0, 1, 1, 3, 5, 11, 21, 43, 85]


def test_first_terms():
    assert [jacobsthal(n) for n in range(9)] == FIRST_NINE


def test_spot_values():
    assert jacobsthal(0) == 0
    assert jacobsthal(1) == 1
    assert jacobsthal(8) == 85


def test_recurrence_holds_to_512():
    for n in range(2, 513):
        assert jacobsthal(n) == jacobsthal(n - 1) + 2 * jacobsthal(n - 2)


def test_closed_form_consistency_to_512():
    # 3*J(n) + (-1)^n == 2^n, and the closed-form helper agrees
    for n in range(513):
        assert 3 * jacobsthal(n) + (-1) ** n == 2**n
        assert jacobsthal(n) == jacobsthal_closed_form(n) == oracles.jac(n)


def test_strictly_increasing_from_index_two():
    for n in range(2, 513):
        assert jacobsthal(n + 1) > jacobsthal(n)


def test_negative_index_rejected():
    with pytest.raises(ValueError):
        jacobsthal(-1)
    with pytest.raises(ValueError):
        jacobsthal_closed_form(-3)
    with pytest.raises(ValueError):
        jacobsthal_poly(-1, 2)


def test_range_examples():
    assert jacobsthal_range(0, 4) == [0, 1, 1, 3, 5]
    assert jacobsthal_range(3, 3) == [3]
    assert jacobsthal_range(7, 9) == [43, 85, 171]


def test_range_matches_elementwise():
    for lo, hi in [(5, 40), (0, 0), (0, 70), (1, 1), (9, 9), (13, 200), (150, 600)]:
        assert jacobsthal_range(lo, hi) == [jacobsthal(n) for n in range(lo, hi + 1)]


def test_range_returns_a_copy_of_the_cache():
    values = jacobsthal_range(3, 12)
    values[0] = -1
    values.append(0)
    del values[1:4]
    assert jacobsthal(3) == 3 and jacobsthal(4) == 5 and jacobsthal(13) == 2731
    assert jacobsthal_range(3, 12) == [oracles.jac(n) for n in range(3, 13)]


def test_range_rejects_bad_bounds():
    with pytest.raises(ValueError):
        jacobsthal_range(4, 3)
    with pytest.raises(ValueError):
        jacobsthal_range(-1, 3)


def test_poly_fibonacci_at_one():
    assert jacobsthal_poly(5, 1) == 5
    a, b = 0, 1
    for n in range(1, 61):
        assert jacobsthal_poly(n, 1) == b
        a, b = b, a + b


def test_poly_at_two_matches_sequence():
    for n in range(201):
        assert jacobsthal_poly(n, 2) == jacobsthal(n)


def test_poly_base_cases():
    for x in (-5, -1, 0, 1, 2, 7, 10**6):
        assert jacobsthal_poly(0, x) == 0
        assert jacobsthal_poly(1, x) == 1


def test_poly_example():
    assert jacobsthal_poly(6, 2) == 21


def test_cache_safe_under_concurrent_readers():
    results = {}

    def worker(tag, hi):
        results[tag] = [jacobsthal(n) for n in range(hi)]

    threads = [
        threading.Thread(target=worker, args=(i, 400 + 50 * i)) for i in range(8)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for tag, values in results.items():
        for n, v in enumerate(values):
            assert v == oracles.jac(n), f"worker {tag} saw a wrong J({n})"
