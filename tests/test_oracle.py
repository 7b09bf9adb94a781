"""Enumeration ground truth: worked examples, counts, and invariants."""

from collections import Counter

import pytest

from fixtures import PARTITIONS_OF_3, SEQUENCE_COUNTS, TABLE1
from trident.oracle import (CapExceeded, count_partitions,
                            enumerate_partitions, oracle_poly)
from trident.polyring import MultiPoly


def test_partitions_of_three():
    parts = enumerate_partitions(3)
    assert len(parts) == 6
    assert [p.render() for p in parts] == PARTITIONS_OF_3
    assert set(p.render() for p in parts) == {
        "3", "3-", "3~", "1+1+1-", "1+1+1~", "1+1-+1~"}


def test_empty_partition_of_zero():
    parts = enumerate_partitions(0)
    assert len(parts) == 1
    assert parts[0].digits == ()
    assert parts[0].stats() == (0, 0, 0, 0)
    assert parts[0].render() == "0"


def test_partitions_of_twelve_block_structure():
    # Grouping by the copy count used at each power reproduces the four
    # blocks of the unrestricted base-3 partitions of 12: sizes 9, 9, 1, 9.
    parts = enumerate_partitions(12)
    assert len(parts) == 28
    blocks = Counter(tuple(d.total() for d in p.digits) for p in parts)
    assert blocks == {(0, 1, 1): 9, (3, 0, 1): 9, (0, 4): 1, (3, 3): 9}


def test_monomials_of_twelve():
    p = oracle_poly(12)
    assert (2, 1, 1, 1, 2) in p.terms()
    assert (1, 1, 0, 1, 3) in p.terms()


def test_oracle_polynomials_match_reference_table():
    for n, records in TABLE1.items():
        assert oracle_poly(n) == MultiPoly(records), f"n={n}"


def test_counting_sequence():
    assert tuple(count_partitions(n) for n in range(16)) == SEQUENCE_COUNTS


def test_power_of_four_and_perfect_counts():
    assert count_partitions(3**4 - 1) == 4**4
    assert count_partitions((3**5 - 3) // 2) == 496
    # the perfect-number identity 1300 base-3 digits deep
    assert count_partitions((3**1300 - 3) // 2) == 2**1299 * (2**1300 - 1)


def test_enumeration_matches_count():
    for n in (0, 1, 7, 25, 40, 81):
        assert len(enumerate_partitions(n)) == count_partitions(n)


def test_partition_invariants():
    for n in (5, 13, 27, 44):
        for part in enumerate_partitions(n):
            assert sum(d.total() * 3**j for j, d in enumerate(part.digits)) == n
            for d in part.digits:
                assert d.over in (0, 1) and d.tilde in (0, 1) and 0 <= d.plain <= 2
            if part.digits:
                assert part.digits[-1].total() > 0   # trailing zeros trimmed


def test_lexicographic_digit_order():
    for n in (*range(400), 1000):
        keys = [p.digits for p in enumerate_partitions(n)]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)


def test_coefficients_positive():
    for n in (4, 11, 26):
        assert all(t[4] > 0 for t in oracle_poly(n).terms())


def test_evaluation_at_ones_counts():
    for n in (2, 9, 31, 57):
        assert sum(c for *_, c in oracle_poly(n).terms()) == count_partitions(n)


def test_cap_exceeded():
    with pytest.raises(CapExceeded) as err:
        enumerate_partitions(3, cap=5)
    assert err.value.count == 6 and err.value.cap == 5
    # counting is never capped
    assert count_partitions(3) == 6


def test_negative_n_rejected():
    with pytest.raises(ValueError):
        count_partitions(-1)
    with pytest.raises(ValueError):
        enumerate_partitions(-2)


def test_stats_of_a_worked_partition():
    # 3 + 3 + 3overline + 1 + 1overline + 1tilde: two overlines, one tilde,
    # one single unmarked power (the 1s), one unmarked pair (the 3s).
    for p in enumerate_partitions(12):
        if p.render() == "3+3+3-+1+1-+1~":
            assert p.stats() == (2, 1, 1, 1)
            break
    else:
        pytest.fail("expected partition not enumerated")
