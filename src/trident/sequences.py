"""Fast exact computation of the partition polynomials and their subsequences.

``s_poly(n)`` is the 4-variable polynomial whose coefficient of
``w^i x^j y^k z^l`` counts restricted colored base-3 partitions of ``n``
with the corresponding statistics.  It is computed by the base-3 recurrence

    S(3n)   = S(n) + (wxy + wz + xz) * S(n-1)
    S(3n+1) = (w + x + y) * S(n) + wxz * S(n-1)
    S(3n+2) = (wx + wy + xy + z) * S(n)

with S(0) = 1, S(1) = w+x+y, S(2) = wx+wy+xy+z.  ``s_poly_product`` expands
the defining generating product instead and serves as a redundant second
path; the enumeration oracle is a third.

``q_poly(n)`` and ``r_poly(n)`` are S at the indices (3^n - 3)/2 and
(3^n - 1)/2.  Both satisfy the same three-term recurrence with coefficient
pair (W1, W2), which drives everything downstream.
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

S0 = MultiPoly.one()
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

_S_MEMO: dict[int, MultiPoly] = {0: S0, 1: S1, 2: S2}


def s_poly(n: int) -> MultiPoly:
    """The counting polynomial of ``n`` via the memoized base-3 recurrence."""
    if n < 0:
        raise ValueError("n must be non-negative")
    cached = _S_MEMO.get(n)
    if cached is not None:
        return cached
    # The recursion only ever touches O(log n) index pairs {m, m-1}.
    stack = [n]
    while stack:
        m = stack[-1]
        if m in _S_MEMO:
            stack.pop()
            continue
        q, r = divmod(m, 3)
        need = [i for i in (q, q - 1) if i not in _S_MEMO]
        if need:
            stack.extend(need)
            continue
        if r == 0:
            value = _S_MEMO[q] + TRIPLE_COEFF * _S_MEMO[q - 1]
        elif r == 1:
            value = S1 * _S_MEMO[q] + WXZ * _S_MEMO[q - 1]
        else:
            value = S2 * _S_MEMO[q]
        _S_MEMO[m] = value
        stack.pop()
    return _S_MEMO[n]


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
    ``UniPoly``, ``MultiPoly``).  Every polynomial sequence of the package
    is one of these: Q and R with the pair (W1, W2), their specializations
    with its image, Chebyshev T/U with (2v, 1) and the Dickson companions
    with (a, b).
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


_Q = TwoTerm(W1, W2, MultiPoly.zero(), MultiPoly.one())
_R = TwoTerm(W1, W2, MultiPoly.one(), S1)


def q_poly(n: int) -> MultiPoly:
    """The subsequence at indices (3^n - 3)/2, via the three-term recurrence."""
    return _Q[n]


def r_poly(n: int) -> MultiPoly:
    """The subsequence at indices (3^n - 1)/2, via the three-term recurrence."""
    return _R[n]


def scalar_qr(n: int) -> tuple[int, int]:
    """Closed forms of the all-ones specializations: (2^(n-1)(2^n - 1), 2^(n-1)(2^n + 1))."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return (0, 1)
    return (2 ** (n - 1) * (2**n - 1), 2 ** (n - 1) * (2**n + 1))


def gf_check(truncation: int) -> Report:
    """Verify the rational generating functions of both subsequences.

    Multiplies the truncated series of q_poly / r_poly by the shared
    denominator 1 - W1 q + W2 q^2 and compares against the claimed
    numerators q and 1 - (wxy + wz + xz) q, degree by degree.
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
