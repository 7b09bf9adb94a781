"""Recurrence engine against the generating product and the enumeration oracle."""

import json

import pytest

from fixtures import TABLE1
from trident import sequences
from trident.oracle import count_partitions, oracle_poly
from trident.polyring import MultiPoly
from trident.sequences import (PRODUCT_CAP, S1, S2, W1, W2, WPair, TRIPLE_COEFF,
                               closed_form_k3n, gf_check, q_poly, r_poly, s_poly,
                               s_poly_product, scalar_qr)


def proper_divisor_sum(n: int) -> int:
    """Trial-division oracle for perfection checks."""
    total = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            total += d
            other = n // d
            if other != d:
                total += other
        d += 1
    return total


def test_table_rows_from_recurrence():
    for n, records in TABLE1.items():
        assert s_poly(n) == MultiPoly(records), f"n={n}"


def test_base_cases():
    assert s_poly(0) == MultiPoly.one()
    assert s_poly(1) == S1
    assert s_poly(2) == S2
    assert (q_poly(0), q_poly(1)) == (MultiPoly.zero(), MultiPoly.one())
    assert (r_poly(0), r_poly(1)) == (MultiPoly.one(), S1)
    for seq in (s_poly, q_poly, r_poly):
        with pytest.raises(ValueError):
            seq(-1)


def test_product_path_small_values():
    assert s_poly_product(1) == S1
    assert s_poly_product(4) == MultiPoly(TABLE1[4])
    assert s_poly_product(0) == MultiPoly.one()


def test_product_path_power_index():
    assert s_poly_product(3**4 - 1) == S2**4


def test_product_cap():
    with pytest.raises(ValueError):
        s_poly_product(PRODUCT_CAP + 1)


def test_three_paths_agree():
    for n in range(61):
        recurrence = s_poly(n)
        assert recurrence == s_poly_product(n), f"product mismatch at n={n}"
        assert recurrence == oracle_poly(n), f"oracle mismatch at n={n}"


def test_mod_three_shift_identity():
    for n in range(1, 51):
        assert s_poly(3 * n + 2) == S2 * s_poly(n)


def test_closed_form_power_of_three():
    assert closed_form_k3n(1, 2) == S2**2
    assert closed_form_k3n(1, 0) == MultiPoly.one()
    assert s_poly(3**4 - 1) == S2**4
    for k in (1, 2, 3, 5):
        for n in range(4):
            assert closed_form_k3n(k, n) == s_poly(k * 3**n - 1), (k, n)


def test_subsequence_base_cases():
    assert q_poly(0) == MultiPoly.zero()
    assert q_poly(1) == MultiPoly.one()
    assert q_poly(2) == s_poly(3)
    assert r_poly(0) == MultiPoly.one()
    assert r_poly(1) == S1
    assert r_poly(2) == s_poly(4)


def test_subsequences_match_definition():
    for n in range(9):
        assert q_poly(n) == (MultiPoly.zero() if n == 0 else s_poly((3**n - 3) // 2))
        assert r_poly(n) == s_poly((3**n - 1) // 2)


def test_w_pair_literals():
    # construction-time assertion is live; also cross-check here
    WPair(w1=W1, w2=W2)
    assert W1 == TRIPLE_COEFF + S1


def test_scalar_values():
    assert scalar_qr(0) == (0, 1)
    assert scalar_qr(2) == (6, 10)
    assert scalar_qr(5)[0] == 496
    assert scalar_qr(5) == (496, 528)


def test_scalar_recurrence_and_binet():
    prev_q, prev_r = scalar_qr(0)
    cur_q, cur_r = scalar_qr(1)
    for n in range(2, 41):
        q, r = scalar_qr(n)
        assert q == 6 * cur_q - 8 * prev_q
        assert r == 6 * cur_r - 8 * prev_r
        assert q + r == 4**n
        assert r - q == 2**n
        prev_q, prev_r, cur_q, cur_r = cur_q, cur_r, q, r


def test_scalars_are_specializations():
    for n in range(11):
        q, r = scalar_qr(n)
        assert q_poly(n).evaluate(1, 1, 1, 1) == q
        assert r_poly(n).evaluate(1, 1, 1, 1) == r


def test_perfect_number_subsequence():
    expected = {2: 6, 3: 28, 5: 496, 7: 8128}
    for p, value in expected.items():
        q, _ = scalar_qr(p)
        assert q == value
        assert proper_divisor_sum(q) == q


def test_mersenne_and_fermat_closed_forms():
    for n in range(1, 41):
        q, r = scalar_qr(n)
        assert q == 2 ** (n - 1) * (2**n - 1)
        assert r == 2 ** (n - 1) * (2**n + 1)


def test_counts_at_subsequence_indices():
    for n in range(1, 9):
        q, r = scalar_qr(n)
        assert count_partitions((3**n - 3) // 2) == q
        assert count_partitions((3**n - 1) // 2) == r


def test_generating_functions():
    assert gf_check(1).ok
    assert gf_check(10).ok
    report = gf_check(15)
    assert report.ok and report.failures == []


def test_generating_function_failure_names_degree(monkeypatch):
    # a stray constant in Q_3 breaks the cleared series at degrees 3, 4, 5
    monkeypatch.setattr(sequences, "q_poly", lambda n: q_poly(n) + 1 if n == 3 else q_poly(n))
    report = gf_check(8)
    assert report.failures == ["q-series degree 3", "q-series degree 4", "q-series degree 5"]
    assert json.loads(report.witness)["check"] == "q-series degree 3"
