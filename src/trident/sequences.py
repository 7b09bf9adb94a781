"""Fast exact computation of the partition polynomials and their subsequences.

``s_poly(n)`` is the 4-variable polynomial whose coefficient of
``w^i x^j y^k z^l`` counts restricted colored base-3 partitions of ``n``
with the corresponding statistics.  It satisfies the base-3 recurrence

    S(3n)   = S(n) + (wxy + wz + xz) * S(n-1)
    S(3n+1) = (w + x + y) * S(n) + wxz * S(n-1)
    S(3n+2) = (wx + wy + xy + z) * S(n)

with S(0) = 1 and S(-1) = 0: base-3 digit d is a 2x2 matrix M_d taking
(S(m), S(m-1)) to (S(3m+d), S(3m+d-1)).  ``s_poly_product`` expands the
defining generating product instead and serves as a redundant second
path; the enumeration oracle is a third.

``q_poly(n)`` and ``r_poly(n)`` are S at the indices (3^n - 3)/2 and
(3^n - 1)/2: the pair at the index of n base-3 ones.  The paper's
three-term recurrence in (W1, W2) = (tr M1, det M1) is a claim about
them, which ``gf_check`` and the Chebyshev bridge verify against S.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from .polyring import MultiPoly
from .report import Report

PRODUCT_CAP = 500

VAR_W = MultiPoly.variable("w")
VAR_X = MultiPoly.variable("x")
VAR_Y = MultiPoly.variable("y")
VAR_Z = MultiPoly.variable("z")

S1 = VAR_W + VAR_X + VAR_Y
S2 = VAR_W * VAR_X + VAR_W * VAR_Y + VAR_X * VAR_Y + VAR_Z

# Companion coefficients of the base-3 recurrence.
TRIPLE_COEFF = VAR_W * VAR_X * VAR_Y + VAR_W * VAR_Z + VAR_X * VAR_Z   # multiplies S(n-1) in S(3n)
WXZ = VAR_W * VAR_X * VAR_Z                                            # multiplies S(n-1) in S(3n+1)


def _literal(records) -> MultiPoly:
    return MultiPoly([(i, j, k, l, c) for (i, j, k, l, c) in records])


@dataclass(frozen=True)
class WPair:
    """The coefficient pair of the shared three-term recurrence.

    Built by ring arithmetic and asserted at construction time against the
    literal term lists, so a typo in either path cannot survive import.
    """

    w1: MultiPoly
    w2: MultiPoly

    def __post_init__(self):
        w1_literal = _literal([
            (1, 1, 1, 0, 1), (1, 0, 0, 1, 1), (0, 1, 0, 1, 1),
            (1, 0, 0, 0, 1), (0, 1, 0, 0, 1), (0, 0, 1, 0, 1),
        ])
        w2_literal = _literal([
            (2, 1, 1, 0, 1), (2, 0, 0, 1, 1), (1, 2, 1, 0, 1), (1, 1, 2, 0, 1),
            (1, 1, 0, 1, 1), (1, 0, 1, 1, 1), (0, 2, 0, 1, 1), (0, 1, 1, 1, 1),
        ])
        if self.w1 != w1_literal or self.w2 != w2_literal:
            raise AssertionError("W1/W2 disagree with their literal term lists")


W_PAIR = WPair(
    w1=TRIPLE_COEFF + S1,
    w2=(VAR_W * (VAR_W + VAR_X + VAR_Y) * (VAR_X * VAR_Y + VAR_Z)
        + VAR_X * VAR_Z * (VAR_X + VAR_Y)),
)
W1 = W_PAIR.w1
W2 = W_PAIR.w2

# (S(n), S(n-1)) for each index a caller asked for, and no intermediate
# prefix.  S(-1) = 0 makes index 0 the one seed.
_PAIRS: dict[int, tuple[MultiPoly, MultiPoly]] = {0: (MultiPoly.one(), MultiPoly.zero())}


def _pair(n: int) -> tuple[MultiPoly, MultiPoly]:
    """(S(n), S(n-1)), carried digit by digit up the base-3 prefixes of
    ``n`` from the longest one memoized.  Writes are idempotent: no lock."""
    if n < 0:
        raise ValueError("n must be non-negative")
    digits = []
    m = n
    while m not in _PAIRS:
        m, d = divmod(m, 3)
        digits.append(d)
    s, b = _PAIRS[m]
    for d in reversed(digits):
        if d == 0:
            s, b = s + TRIPLE_COEFF * b, S2 * b
        elif d == 1:
            s, b = S1 * s + WXZ * b, s + TRIPLE_COEFF * b
        else:
            s, b = S2 * s, S1 * s + WXZ * b
    _PAIRS[n] = (s, b)
    return s, b


def _repunit_pair(n: int) -> tuple[MultiPoly, MultiPoly]:
    """(R_n, Q_n): the pair at (3^n - 1)/2, whose n base-3 digits are all 1."""
    if n < 0:   # before 3**n, which is a float at negative n
        raise ValueError("n must be non-negative")
    return _pair((3**n - 1) // 2)


def s_poly(n: int) -> MultiPoly:
    """The counting polynomial of ``n`` via the base-3 digit walk."""
    return _pair(n)[0]


def q_poly(n: int) -> MultiPoly:
    """The subsequence at indices (3^n - 3)/2: S(m - 1) at m = (3^n - 1)/2."""
    return _repunit_pair(n)[1]


def r_poly(n: int) -> MultiPoly:
    """The subsequence at indices (3^n - 1)/2."""
    return _repunit_pair(n)[0]


@dataclass
class TruncatedSeries:
    """Power series in a formal variable q, truncated at a fixed degree.

    ``coeffs[i]`` is the 4-variable polynomial coefficient of ``q**i``.
    """

    truncation: int
    coeffs: list[MultiPoly] = field(default_factory=list)

    def __post_init__(self):
        if not self.coeffs:
            self.coeffs = [MultiPoly.one()] + [MultiPoly.zero()] * self.truncation
        if len(self.coeffs) != self.truncation + 1:
            raise ValueError("coefficient list must have length truncation + 1")

    def mul_sparse_factor(self, factor: list[tuple[int, MultiPoly]]) -> None:
        """Multiply in place by ``sum(c * q**e for e, c in factor)``; e = 0 term must be 1."""
        coeffs = self.coeffs
        for i in range(self.truncation, -1, -1):
            acc = coeffs[i]
            for e, c in factor:
                if e and e <= i:
                    acc = acc + c * coeffs[i - e]
            coeffs[i] = acc


def s_poly_product(n: int) -> MultiPoly:
    """The coefficient of ``q**n`` in the truncated generating product.

    Expands prod_j (1 + w q^(3^j)) (1 + x q^(3^j)) (1 + y q^(3^j) + z q^(2*3^j))
    over the powers 3^j <= n.  Independent of the recurrence path; capped
    at degree ``PRODUCT_CAP`` because it costs O(n * terms) rather than
    O(log n).
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if n > PRODUCT_CAP:
        raise ValueError(f"product expansion capped at degree {PRODUCT_CAP}")
    series = TruncatedSeries(n)
    power = 1
    while power <= n:
        series.mul_sparse_factor([(power, VAR_W)])
        series.mul_sparse_factor([(power, VAR_X)])
        series.mul_sparse_factor([(power, VAR_Y), (2 * power, VAR_Z)])
        power *= 3
    return series.coeffs[n]


def closed_form_k3n(k: int, n: int) -> MultiPoly:
    """S(k-1) times the n-th power of S(2): the closed form at index k*3^n - 1."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if n < 0:
        raise ValueError("n must be non-negative")
    return s_poly(k - 1) * S2**n


class TwoTerm:
    """The memoized sequence u_0, u_1, u_n = a*u_{n-1} - b*u_{n-2}; ``seq[n]`` is u_n.

    Works over any ring whose elements support ``*`` and ``-`` (ints,
    ``UniPoly``, ``MultiPoly``).  The specialized Q and R families run one
    with the image of (W1, W2), Chebyshev T/U with (2v, 1) and the Dickson
    companions with (a, b); Q and R themselves come from the digit walk.
    """

    def __init__(self, a, b, u0, u1):
        self.a = a
        self.b = b
        self._memo = [u0, u1]
        self._lock = threading.Lock()

    def __getitem__(self, n: int):
        if n < 0:
            raise ValueError("n must be non-negative")
        memo = self._memo
        # Appends are not idempotent, so extension is serialized; reads of
        # already-present immutable entries need no lock.
        if n >= len(memo):
            with self._lock:
                while len(memo) <= n:
                    memo.append(self.a * memo[-1] - self.b * memo[-2])
        return memo[n]


def scalar_qr(n: int) -> tuple[int, int]:
    """Closed forms of the all-ones specializations: (2^(n-1)(2^n - 1), 2^(n-1)(2^n + 1))."""
    if n < 0:
        raise ValueError("n must be non-negative")
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
    if truncation < 1:
        raise ValueError("truncation must be at least 1")
    report = Report(f"degree <= {truncation}")
    qs = [q_poly(i) for i in range(truncation + 1)]
    rs = [r_poly(i) for i in range(truncation + 1)]
    q_expect = [MultiPoly.zero()] * (truncation + 1)
    q_expect[1] = MultiPoly.one()
    r_expect = [MultiPoly.zero()] * (truncation + 1)
    r_expect[0] = MultiPoly.one()
    r_expect[1] = -TRIPLE_COEFF
    for label, series, expected in (("q", qs, q_expect), ("r", rs, r_expect)):
        for i in range(truncation + 1):
            acc = series[i]
            if i >= 1:
                acc = acc - W1 * series[i - 1]
            if i >= 2:
                acc = acc + W2 * series[i - 2]
            report.record(f"{label}-series degree {i}", acc == expected[i], acc, expected[i])
    return report
