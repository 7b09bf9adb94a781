"""Fast exact computation of the partition polynomials and their subsequences.

``s_poly(n)`` is the 4-variable polynomial whose coefficient of
``w^i x^j y^k z^l`` counts restricted colored base-3 partitions of ``n``
with the corresponding statistics.  It satisfies the base-3 recurrence

    S(3n)   = S(n) + (wxy + wz + xz) * S(n-1)
    S(3n+1) = (w + x + y) * S(n) + wxz * S(n-1)
    S(3n+2) = (wx + wy + xy + z) * S(n)

with S(0) = 1 and S(-1) = 0: base-3 digit d is a 2x2 matrix M_d taking
(S(m), S(m-1)) to (S(3m+d), S(3m+d-1)).  ``digit_walk`` carries that pair
over any ring the matrix entries map into; it is the one memoized
recurrence of the package, serving S, Q and R here and every
single-variable specialization in ``specialize``.  Its memo keeps S(n-1)
beside S(n) only for a caller that reads the pair.  ``s_poly_sweep``
walks 0..N dropping each value no later index reads, and ``repunit_sweep``
walks the pairs at (3^n - 1)/2 with M1 alone, holding one.

``s_poly``, ``q_poly`` and ``r_poly`` walk with z packed into the
coefficients: over the images of the matrix entries under z -> 2^B, B the
bit length of S(n)(1, 1, 1, 1), each key holds w, x and y only and its
coefficient the z-polynomial in B-bit slots, so a walk merges several
times fewer terms (``_packed_walk`` shows that no slot carries).
``s_poly_product`` expands the defining generating product instead, only
over the coefficients that can still reach q^n, in O(log n) kernel calls;
it serves as a redundant second path, and the enumeration oracle is a third.

``q_poly(n)`` and ``r_poly(n)`` are S at the indices (3^n - 3)/2 and
(3^n - 1)/2: the pair at the index of n base-3 ones.  The paper's
three-term recurrence in (W1, W2) = (tr M1, det M1) is a claim about
them, which ``gf_check`` and the Chebyshev bridge verify against S.
"""

from __future__ import annotations

from typing import Iterator

from .oracle import count_partitions
from .polyring import MultiPoly, mp_pack_z, mp_unpack_z, natural
from .report import Report

PRODUCT_CAP = 500
PACK_FROM = 3**6   # below it, S has too few terms for the packed walk to pay

VAR_W = MultiPoly.variable("w")
VAR_X = MultiPoly.variable("x")
VAR_Y = MultiPoly.variable("y")
VAR_Z = MultiPoly.variable("z")

S1 = VAR_W + VAR_X + VAR_Y
S2 = VAR_W * VAR_X + VAR_W * VAR_Y + VAR_X * VAR_Y + VAR_Z

# Companion coefficients of the base-3 recurrence.
TRIPLE_COEFF = VAR_W * VAR_X * VAR_Y + VAR_W * VAR_Z + VAR_X * VAR_Z   # multiplies S(n-1) in S(3n)
WXZ = VAR_W * VAR_X * VAR_Z                                            # multiplies S(n-1) in S(3n+1)

# The entries of the digit matrices M0 = [[1, T], [0, S2]],
# M1 = [[S1, WXZ], [1, T]] and M2 = [[S2, 0], [S1, WXZ]], T = TRIPLE_COEFF.
DIGIT_COEFFS = (S1, S2, TRIPLE_COEFF, WXZ)

# M1 takes (R_n, Q_n) to (R_{n+1}, Q_{n+1}); by Cayley-Hamilton both
# sequences obey u_n = W1 u_{n-1} - W2 u_{n-2} with (W1, W2) = (tr M1, det M1).
W1 = S1 + TRIPLE_COEFF
W2 = S1 * TRIPLE_COEFF - WXZ
# The r correction of the Chebyshev bridge: 2 R_n = D_n(W1, W2) + R_CORRECTION * Q_n.
R_CORRECTION = S1 - TRIPLE_COEFF

# S(n) for each index a caller asked for, and S(n - 1) beside it where the
# caller reads the pair; no intermediate prefix.  S(-1) = 0 and S(0) = 1 seed it.
_VALUES: dict[int, MultiPoly] = {-1: MultiPoly.zero(), 0: MultiPoly.one()}


def _digit_row(d: int, s, b, coeffs):
    """S(3m + d) from (S(m), S(m-1)), for d in -1..2: M_d is rows d and d - 1."""
    s1, s2, t, wxz = coeffs
    if d == 2:
        return s2 * s
    if d == 1:
        return type(s).sum_of_products(((s1, s), (wxz, b)))
    if d == 0:
        return type(s).sum_of_products(((s.one(), s), (t, b)))
    return s2 * b


def digit_walk(n: int, coeffs, memo: dict, pair: bool = False):
    """S(n) in the ring of ``coeffs``, the image of ``DIGIT_COEFFS``, or with
    ``pair`` (S(n), S(n-1)), for an int ``n >= 0`` (each caller ensures it).

    Carried digit by digit up the base-3 prefixes of ``n`` from the longest
    prefix m with S(m) and S(m-1) in ``memo``, which maps an index to its
    value and holds indices -1 and 0; S(n) is stored there, and S(n-1) too
    with ``pair``.  Writes are idempotent: no lock.
    """
    if n in memo and (not pair or n - 1 in memo):
        return (memo[n], memo[n - 1]) if pair else memo[n]
    digits = []
    m = n
    while m and (m not in memo or m - 1 not in memo):   # the seeds end it at 0
        m, d = divmod(m, 3)
        digits.append(d)
    s, b = memo[m], memo[m - 1]
    for i in reversed(range(len(digits))):
        d = digits[i]
        # S(3m + d) first: its products are the larger, and form before the
        # other entry is alive.  The last step forms S(n - 1) only for a
        # pair without a memoized one.
        s, b = _digit_row(d, s, b, coeffs), (
            memo.get(n - 1) if i == 0 and (not pair or n - 1 in memo)
            else _digit_row(d - 1, s, b, coeffs))
    memo[n] = s
    if not pair:
        return s
    memo[n - 1] = b
    return s, b


def _repunit(n: int) -> int:
    """(3^n - 1)/2, whose n base-3 digits are all 1."""
    return (3 ** natural(n) - 1) // 2


def repunit_sweep(upto: int, coeffs=DIGIT_COEFFS) -> Iterator[tuple]:
    """(R_n, Q_n) for n = 0, ..., upto in the ring of ``coeffs``, each pair from
    the one before by the rows of M1, since (3^(n+1) - 1)/2 = 3 (3^n - 1)/2 + 1:
    no memo, one pair held; a bad ``upto`` is refused at the first ``next``."""
    upto = natural(upto, name="upto")
    r, q = coeffs[0].one(), coeffs[0].zero()
    yield r, q
    for _ in range(upto):
        r, q = _digit_row(1, r, q, coeffs), _digit_row(0, r, q, coeffs)
        yield r, q


def _packed_walk(n: int, pair: bool = False):
    """``digit_walk(n, DIGIT_COEFFS, _VALUES, pair)``, over the images under
    z -> 2^B where the walk is long enough to pay for packing.

    B is the bit length of S(n)(1, 1, 1, 1), the partition count of n that
    the oracle reads off the digits in as many int steps, and no B-bit slot
    carries: every matrix entry has nonnegative coefficients, and
    S(m)(1, 1, 1, 1) does not decrease in m, since by the rows of M_d at 1,
    S(3m+1) - S(3m) = 2 (S(m) - S(m-1)), S(3m+2) - S(3m+1) = S(m) - S(m-1)
    and S(3m+3) - S(3m+2) = S(m+1) - S(m).  So every coefficient of each
    value the walk forms, S at a prefix of n or one below it, and of each
    partial sum of their products, is below 2^B.  A hit, an n below
    PACK_FROM or one step from a memoized pair walks unpacked; otherwise the
    starting pair is packed, and S(n), with S(n-1) for a pair that lacks
    it, unpacked once.
    """
    memo = _VALUES
    if n < PACK_FROM or n in memo and (not pair or n - 1 in memo):
        return digit_walk(n, DIGIT_COEFFS, memo, pair)
    m = n // 3
    while m and (m not in memo or m - 1 not in memo):   # the seeds end it at 0
        m //= 3
    if m == n // 3:   # packing the pair would cost more than the step
        return digit_walk(n, DIGIT_COEFFS, memo, pair)
    width = count_partitions(n).bit_length()
    images = tuple(mp_pack_z(c, width) for c in DIGIT_COEFFS)
    start = {m - 1: mp_pack_z(memo[m - 1], width), m: mp_pack_z(memo[m], width)}
    before = pair and n - 1 not in memo
    walked = digit_walk(n, images, start, before)
    s = memo[n] = mp_unpack_z(walked[0] if before else walked, width)
    if before:
        memo[n - 1] = mp_unpack_z(walked[1], width)
    return (s, memo[n - 1]) if pair else s


def s_poly(n: int) -> MultiPoly:
    """The counting polynomial of ``n`` via the base-3 digit walk."""
    return _packed_walk(natural(n))


def s_poly_sweep(upto: int) -> Iterator[MultiPoly]:
    """S(0), ..., S(upto), over a memo of its own that drops what no later index reads
    (below n//3 - 1, each above upto//3); a bad ``upto`` is refused at the first ``next``."""
    upto = natural(upto, name="upto")
    memo = {-1: MultiPoly.zero(), 0: MultiPoly.one()}
    for n in range(upto + 1):
        memo.pop(n // 3 - 2, None)   # n//3 - 1 rises by at most one per index
        yield digit_walk(n, DIGIT_COEFFS, memo)
        if n > upto // 3:
            del memo[n]


def q_poly(n: int) -> MultiPoly:
    """The subsequence at indices (3^n - 3)/2: S(m - 1) at m = (3^n - 1)/2."""
    return _packed_walk(_repunit(n), pair=True)[1]


def r_poly(n: int) -> MultiPoly:
    """The subsequence at indices (3^n - 1)/2."""
    return _packed_walk(_repunit(n), pair=True)[0]


def s_poly_product(n: int) -> MultiPoly:
    """The coefficient of ``q**n`` in the truncated generating product.

    Expands prod_j (1 + w q^(3^j)) (1 + x q^(3^j)) (1 + y q^(3^j) + z q^(2*3^j))
    over the powers 3^j <= n, highest first, keeping only the coefficients
    that can still reach q^n: after the factors of power p those lie in
    [n - 2(p - 1), n], and every index there is a multiple of p, so each
    level forms a bounded number of coefficients and the route costs
    O(log n) kernel calls.  Independent of the recurrence path.  Capped at
    degree ``PRODUCT_CAP`` so that the library's refusals stay as they are;
    lifting the cap is ROADMAP item 7's call.
    """
    n = natural(n)
    if n > PRODUCT_CAP:
        raise ValueError(f"product expansion capped at degree {PRODUCT_CAP}")
    one = MultiPoly.one()
    power = 1
    while power <= n:
        power *= 3
    # the q-degree the factors still to come can add: 4 (1 + 3 + ... + power/3)
    reach = 2 * (power - 1)
    # coeffs maps i to the coefficient of q**i, for each i in [n - reach, n]
    coeffs = {0: one}
    while power > 1:
        power //= 3
        for factor in ([(power, VAR_W)], [(power, VAR_X)], [(power, VAR_Y), (2 * power, VAR_Z)]):
            # times 1 + sum(c * q**e), over the support of the product; a
            # coefficient that only the factor's 1 reaches is kept as it is
            reach -= factor[-1][0]
            factor = [(0, one)] + factor
            terms = {i: [(c, coeffs[i - e]) for e, c in factor if i - e in coeffs]
                     for i in {k + e for k in coeffs for e, _ in factor} if n - reach <= i <= n}
            coeffs = {i: t[0][1] if len(t) == 1 and t[0][0] is one else MultiPoly.sum_of_products(t)
                      for i, t in terms.items()}
    return coeffs[n]


def scalar_qr(n: int) -> tuple[int, int]:
    """Closed forms of the all-ones specializations: (2^(n-1)(2^n - 1), 2^(n-1)(2^n + 1))."""
    n = natural(n)
    if n == 0:
        return (0, 1)
    return (2 ** (n - 1) * (2**n - 1), 2 ** (n - 1) * (2**n + 1))


def gf_check(truncation: int) -> Report:
    """Verify the paper's recurrence and generating functions against S.

    Multiplies the truncated series of q_poly / r_poly, both read off the
    base-3 digit walk of S, by the shared denominator 1 - W1 q + W2 q^2 and
    compares against the claimed numerators q and 1 - (wxy + wz + xz) q,
    degree by degree.  Degrees >= 2 are the three-term recurrence itself.
    """
    truncation = natural(truncation, 1, "truncation")
    report = Report(f"degree <= {truncation}")
    zero, one = MultiPoly.zero(), MultiPoly.one()
    # each claimed numerator by degree; every higher degree is 0
    for label, member, numerator in (("q", q_poly, (zero, one)),
                                     ("r", r_poly, (one, -TRIPLE_COEFF))):
        # u_{i-2}, u_{i-1}, u_i at series[i], series[i + 1], series[i + 2]
        series = [zero, zero] + [member(i) for i in range(truncation + 1)]
        for i in range(truncation + 1):
            acc = series[i + 2] - W1 * series[i + 1] + W2 * series[i]
            expected = numerator[i] if i < 2 else zero
            report.record(f"{label}-series degree {i}", acc == expected, acc, expected)
    return report
