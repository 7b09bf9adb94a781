"""Recurrence engine against the generating product and the enumeration oracle."""

import hashlib
import json

import pytest

from fixtures import TABLE1
from trident import sequences
from trident.chebyshev import two_term
from trident.oracle import count_partitions, oracle_poly
from trident.polyring import (EXP_LIMIT, MultiPoly, NotDivisible, mp_divide_exact, mp_pack_z,
                              mp_unpack_z)
from trident.sequences import (PRODUCT_CAP, S1, S2, VAR_W, VAR_X, VAR_Y, VAR_Z, W1, W2,
                               gf_check, q_poly, r_poly, s_poly, s_poly_product, scalar_qr)


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
    # r_poly(-2) would reach the walk as the float index (3**-2 - 1) // 2
    for seq, n in ((s_poly, -1), (q_poly, -1), (r_poly, -1), (r_poly, -2)):
        with pytest.raises(ValueError, match="n must be non-negative"):
            seq(n)


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
    # the lemma S(k 3^n - 1) = S(k - 1) S2^n
    assert s_poly(3**2 - 1) == S2**2
    assert s_poly(3**0 - 1) == MultiPoly.one()
    assert s_poly(3**4 - 1) == S2**4
    for k in (1, 2, 3, 5):
        for n in range(4):
            assert s_poly(k - 1) * S2**n == s_poly(k * 3**n - 1), (k, n)


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


def test_three_term_recurrence_reference():
    # the reference route: Q and R by the (W1, W2) recurrence from their first two values
    for n in range(17):
        assert q_poly(n) == two_term(W1, W2, MultiPoly.zero(), MultiPoly.one(), n), n
        assert r_poly(n) == two_term(W1, W2, MultiPoly.one(), S1, n), n


def seeds():
    return {-1: MultiPoly.zero(), 0: MultiPoly.one()}


def fresh_memo(monkeypatch):
    """Give ``sequences`` an empty value memo for the test, and return it."""
    memo = seeds()
    monkeypatch.setattr(sequences, "_VALUES", memo)
    return memo


def test_pair_memo_keeps_requested_indices_only(monkeypatch):
    memo = fresh_memo(monkeypatch)
    m = (3**12 - 1) // 2
    r_poly(12)   # R_12 = S(m) and, beside it, Q_12 = S(m - 1)
    assert set(memo) == {-1, 0, m - 1, m}
    q_poly(12)
    assert set(memo) == {-1, 0, m - 1, m}
    s_poly(3**10 + 5)
    assert set(memo) == {-1, 0, m - 1, m, 3**10 + 5}


def test_dense_sweep_shares_the_before_entry(monkeypatch):
    # a dense sweep holds each S once, one value per index; a pair whose
    # S(n-1) is memoized forms S(n) alone and returns the memoized object
    memo = fresh_memo(monkeypatch)
    for n in range(200):
        s_poly(n)
    assert set(memo) == set(range(-1, 200))
    assert len({id(value) for value in memo.values()}) == len(memo)
    before = memo[39]
    r, q = sequences.repunit_pair(4, sequences.DIGIT_COEFFS, memo)   # S(40), S(39)
    assert q is before and memo[39] is before and r is memo[40]


def test_lone_index_forms_one_row_at_its_last_digit(monkeypatch):
    # from the seeds, each of the six base-3 digits of 3^5 + 5 but the last
    # forms the pair's two rows; the last forms S(n) alone
    fresh_memo(monkeypatch)
    calls = []
    row = sequences._digit_row
    monkeypatch.setattr(sequences, "_digit_row",
                        lambda d, *rest: calls.append(d) or row(d, *rest))
    n = 3**5 + 5   # 100012 in base 3
    assert s_poly(n) == oracle_poly(n)
    assert calls == [1, 0, 0, -1, 0, -1, 0, -1, 1, 0, 2]


def test_sweep_matches_s_poly_and_keeps_a_third(monkeypatch):
    # the sweep's own memo drops what no later index reads: below n//3 - 1,
    # and above upto//3 once yielded
    upto = 400
    expected = [s_poly(n) for n in range(upto + 1)]
    held = []
    walk = sequences.digit_walk

    def spy(n, coeffs, memo):
        value = walk(n, coeffs, memo)
        held.append((n, min(memo), len(memo)))   # S(n) stored, not yet dropped
        return value
    monkeypatch.setattr(sequences, "digit_walk", spy)
    assert list(sequences.s_poly_sweep(upto)) == expected
    assert [n for n, _, _ in held] == list(range(upto + 1))
    assert all(low >= n // 3 - 1 for n, low, _ in held)
    assert max(size for *_, size in held) <= upto // 3 + 3


def test_repunit_sweep_is_the_pair_and_keeps_no_memo(monkeypatch):
    # q-poly and r-poly --upto walk this sweep: M1 from the pair before, with
    # nothing written to the library memo
    memo = fresh_memo(monkeypatch)
    pairs = list(sequences.repunit_sweep(8))
    assert set(memo) == {-1, 0}
    assert pairs == [(r_poly(n), q_poly(n)) for n in range(9)]


def plain_walk(n, pair=False):
    """The unpacked digit walk from the seeds."""
    return sequences.digit_walk(n, sequences.DIGIT_COEFFS, seeds(), pair)


# The s_poly indices of the benchmark's algebra workload, one per half decade.
ALGEBRA_INDICES = [int(10 ** ((i + 0.5) / 2)) for i in range(20)]


def test_packed_walk_matches_the_plain_walk(monkeypatch):
    # every walk of two or more steps packs here, from the seeds or from a
    # memoized pair two steps below; a slot too narrow for a coefficient
    # carries into the next power of z and shows as a difference
    fresh_memo(monkeypatch)   # the library memo comes back at teardown
    monkeypatch.setattr(sequences, "PACK_FROM", 0)
    unpacked = []
    unpack = sequences.mp_unpack_z
    monkeypatch.setattr(sequences, "mp_unpack_z",
                        lambda p, width: unpacked.append(width) or unpack(p, width))
    indices = [*range(3**7), *ALGEBRA_INDICES]
    for n in indices:
        sequences._VALUES = seeds()
        assert s_poly(n) == plain_walk(n), n
    # all but the hit at 0 and the single steps to 1 and 2 were packed
    assert len(unpacked) == sum(n >= 3 for n in indices)
    for n in range(21):
        sequences._VALUES = seeds()
        assert (r_poly(n), q_poly(n)) == plain_walk((3**n - 1) // 2, pair=True), n
    for first in (0, 1):
        sequences._VALUES = seeds()
        for n in range(first, 21, 2):
            assert (r_poly(n), q_poly(n)) == plain_walk((3**n - 1) // 2, pair=True), n


def test_packing_width_bound_rises_with_the_index():
    # the packed walk to n takes its slot width from count_partitions(n), which
    # bounds every value the walk forms only while it does not decrease; the
    # reference is the digit walk over the ints, each M_d at w = x = y = z = 1
    pairs = [(1, 0)]   # (S(m), S(m - 1)) at 1, from the pair at m // 3
    for m in range(1, 3**9):
        s, b = pairs[m // 3]
        pairs.append(((s + 3 * b, 4 * b), (3 * s + b, s + 3 * b), (4 * s, 3 * s + b))[m % 3])
    counts = [count_partitions(m) for m in range(3**9)]
    assert counts == [s for s, _ in pairs]
    assert all(a <= b for a, b in zip(counts, counts[1:]))


def test_packed_walk_refuses_exponent_overflow(monkeypatch):
    # S2 * S2 * z^EXP_LIMIT reaches z^(EXP_LIMIT + 2): its slot would carry
    # into the field of y, so the unpack refuses it and stores nothing
    memo = fresh_memo(monkeypatch)
    m = sequences.PACK_FROM
    memo[m - 1], memo[m] = MultiPoly.zero(), VAR_Z ** EXP_LIMIT
    with pytest.raises(ValueError, match="exceeds the limit"):
        s_poly(9 * m + 8)
    assert 9 * m + 8 not in memo
    top = mp_pack_z(VAR_Z ** EXP_LIMIT * VAR_Y, 16) * 2**16
    with pytest.raises(ValueError, match="exceeds the limit"):
        mp_unpack_z(top, 16)


def test_w_pair_literals():
    # (W1, W2) = (tr M1, det M1) against the paper's printed term lists, and
    # W2 against a factored form
    w1_literal = MultiPoly([
        (1, 1, 1, 0, 1), (1, 0, 0, 1, 1), (0, 1, 0, 1, 1),
        (1, 0, 0, 0, 1), (0, 1, 0, 0, 1), (0, 0, 1, 0, 1),
    ])
    w2_literal = MultiPoly([
        (2, 1, 1, 0, 1), (2, 0, 0, 1, 1), (1, 2, 1, 0, 1), (1, 1, 2, 0, 1),
        (1, 1, 0, 1, 1), (1, 0, 1, 1, 1), (0, 2, 0, 1, 1), (0, 1, 1, 1, 1),
    ])
    assert W1 == w1_literal
    assert W2 == w2_literal
    assert W2 == (VAR_W * (VAR_W + VAR_X + VAR_Y) * (VAR_X * VAR_Y + VAR_Z)
                  + VAR_X * VAR_Z * (VAR_X + VAR_Y))


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
        assert sum(c for *_, c in q_poly(n).terms()) == q
        assert sum(c for *_, c in r_poly(n).terms()) == r


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


def test_digit_row_refuses_exponent_overflow():
    # S1 * s in row 1 and T * b in row 0 would push w past the exponent limit
    top = VAR_W ** EXP_LIMIT
    for d, s, b in ((1, top, MultiPoly.one()), (0, MultiPoly.one(), top)):
        with pytest.raises(ValueError, match="exceeds the limit"):
            sequences._digit_row(d, s, b, sequences.DIGIT_COEFFS)


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


# sha256 of json.dumps(p.to_records()): Q and R at two indices, and S at
# indices up to 10^9 whose base-3 digits mix 0, 1 and 2.
PINNED_DIGESTS = {
    ("q", 12): "864ab73bb43eb32f044c2367eb382c091a75b06210590eaa2dfd7998ffbe177c",
    ("r", 12): "d6c307087b0680f8371ddc905f4e279a83575f78ea8d6cff7281c14b8a87ebff",
    ("q", 16): "913884e6c8c69216a24bf87abb7806c4c47d51c9cd373afd542bb663da6974a3",
    ("r", 16): "a21d5b13f5836da4428953d2865dc98775ca0891b3e934ea8b6232dfc1e203db",
    ("s", 10**3): "6d4bb756abd0e6ae20d38aa47ececefd0d8cbbbc4062162d5b587bef6d3d4289",
    ("s", 10**5): "48918e5e56455156f8017780c09467892d922e84c71f8e7115ec42bc82f6ed07",
    ("s", 10**7): "638e67caa285aa4948be49783e6bbfa3129dd6c824adb59a172ffdb5dbc0f711",
    ("s", 10**9): "cc54db9524eb968105ace1ec097037ab6c7599ee7dbaf1420f1aea2cc0c30907",
    ("s", 3**19 - 2): "e761caa9c308955037d3a52aa9ec6a2054c134ecd948706ec6a1e9600f5e2a21",
}


def test_values_pinned_by_digest():
    member = {"q": q_poly, "r": r_poly, "s": s_poly}
    for (name, n), digest in PINNED_DIGESTS.items():
        records = json.dumps(member[name](n).to_records())
        assert hashlib.sha256(records.encode()).hexdigest() == digest, (name, n)


# sha256 of json.dumps(q.to_records()) for each exact quotient Q_n / Q_m
# that a long-lived algebra session divides (m a proper divisor of n).
QUOTIENT_DIGESTS = {
    (4, 2): "5e02e1093cfb1ae7daafaa632abc93dc4dbce928f53cbfcc9a9ccf9ee669e417",
    (6, 2): "da9baa59148cd985cad8d41dbb5e069e1ccb6dc87b6cf129518596eb97ff8087",
    (6, 3): "09ffd98ed762a26d1622d2232d80164e9919cf5f29fe2f13b825e6999a08d620",
    (8, 2): "2d779ab0d254303dcc8df6bf3a5aafd16721218fc470ce583e50a35840b95350",
    (8, 4): "b389467c987256048e2c4aee4dd60b9011cbbd275a9bbc51d7903e06c8bb73fe",
    (9, 3): "3ae21e2d439522ef1ab172a5e7de5e12ef5e6fb88c7c4d2335836c93a82549e8",
    (10, 2): "52e9009d44f2ec6726dbed2f27535db99fc61b2b892e14f341a1dc98cd42b000",
    (10, 5): "d61abfa5eedc725085d8c7625ad4075c93dc7412d4a95065153259feddd35742",
    (12, 2): "911e9822317cfb213becf34a1589597f04c19ba6e680ec3dadf50a50f5386eac",
    (12, 3): "aaf88997e4fbef01779438d6da26b7287c3d34f2deeb1a7cf013aa9a6a275333",
    (12, 4): "407896b1a001763328ad6a69efce8f6189b68080a6074487bca8280e609bf203",
    (12, 6): "d9b22b423ed8d79e59e06b9691cb062dbbc2b07b564a7cc33aac1db13333df68",
    (14, 7): "9438b507cc306e165c393394d140dc176c5427866c40460269308cd4a7aaaf7d",
}


def test_quotients_pinned_by_digest():
    for (n, m), digest in QUOTIENT_DIGESTS.items():
        records = json.dumps(mp_divide_exact(q_poly(n), q_poly(m)).to_records())
        assert hashlib.sha256(records.encode()).hexdigest() == digest, (n, m)


def test_remainder_degree_pinned():
    # the degree NotDivisible reports is that of the remainder's leading
    # term when the cancellation stops
    cases = (((q_poly(12) + VAR_W, q_poly(6)), 1), ((q_poly(9), q_poly(4)), 14),
             ((r_poly(8), q_poly(4)), 14), ((2 * q_poly(10) + 1, q_poly(5)), 0))
    for (num, den), degree in cases:
        with pytest.raises(NotDivisible) as err:
            mp_divide_exact(num, den)
        assert err.value.remainder_degree == degree
