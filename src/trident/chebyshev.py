"""Chebyshev polynomials and their radical-free bivariate companions.

The subsequences computed in ``sequences`` are Chebyshev polynomials in
disguise: up to a half-integer power of W2 they are U_n and T_n evaluated
at W1 / (2 sqrt(W2)).  Rather than ever touching square roots, the
bivariate families

    E_0 = 1, E_1 = a, E_n = a E_{n-1} - b E_{n-2}
    D_0 = 2, D_1 = a, D_n = a D_{n-1} - b D_{n-2}

carry the scaling exactly: E_n(a, b) encodes b^(n/2) U_n(a / (2 sqrt b))
and D_n(a, b) / 2 encodes b^(n/2) T_n(a / (2 sqrt b)).  ``verify_prop35``
decides every part of that claim exactly: the identities for the
4-variable sequences, the Chebyshev values at b = 1 and the weight of
each term, which together give the analytic form wherever b > 0.
"""

from __future__ import annotations

import enum
import math

from .polyring import UniPoly, natural
from .report import Report
from .sequences import R_CORRECTION, VAR_W, VAR_X, W1, W2, q_poly, r_poly


class ChebKind(enum.Enum):
    """First kind (T) or second kind (U)."""

    FIRST = "T"
    SECOND = "U"


_TWO_V = UniPoly((0, 2))


def two_term(a, b, u0, u1, n: int):
    """u_n of the sequence u_0, u_1, u_k = a*u_{k-1} - b*u_{k-2}.

    Works over any ring whose elements support ``*`` and ``-`` (ints,
    ``UniPoly``, ``MultiPoly``), and keeps nothing once it returns.
    """
    n = natural(n)
    if n == 0:
        return u0
    for _ in range(n - 1):   # n - 1 steps: u_{n+1}, the costliest, is never formed
        u0, u1 = u1, a * u1 - b * u0
    return u1


def chebyshev(kind: ChebKind, n: int) -> UniPoly:
    """T_n or U_n as an exact integer polynomial, from its coefficient formula.

    U_n(v) = sum_k (-1)^k C(n-k, k) (2v)^(n-2k); for T_n = (U_n - U_{n-2}) / 2
    the binomial becomes C(n-k, k) + C(n-k-1, k-1), halved, and T_0 = 1.
    No recurrence: ``verify_prop35`` checks ``dickson_E``/``dickson_D`` at
    (2v, 1) against it.
    """
    n = natural(n)
    if n == 0:
        return UniPoly.one()
    first = kind is ChebKind.FIRST
    coeffs = [0] * (n + 1)
    for k in range(n // 2 + 1):
        c = math.comb(n - k, k) + (math.comb(n - k - 1, k - 1) if first and k else 0)
        c = c << (n - 2 * k) >> first
        coeffs[n - 2 * k] = -c if k % 2 else c
    return UniPoly(coeffs)


def dickson_E(n: int, a, b):
    """Second-kind companion E_n(a, b); works for any ring elements a, b."""
    return two_term(a, b, 1 * a**0, a, n)   # E_0 is the one of a's ring


def dickson_D(n: int, a, b):
    """First-kind companion D_n(a, b); D_0 = 2."""
    return two_term(a, b, 2 * a**0, a, n)


def verify_prop35(n: int) -> Report:
    """Check the Chebyshev bridge at index ``n``, exactly.

    In the 4-variable ring:
      * the q-sequence at n+1 equals E_n(W1, W2);
      * twice the r-sequence at n equals D_n(W1, W2) plus
        ``R_CORRECTION`` (w + x + y - wxy - wz - xz) times the q-sequence at n.

    In Z[v]: E_n(2v, 1) = U_n(v) and D_n(2v, 1) = 2 T_n(v).  And every term
    a^i b^j of E_n(a, b) and D_n(a, b) has weight i + 2j = n, so
    E_n(a, b) = b^(n/2) E_n(a / sqrt b, 1) for b > 0.  Together these give
    the analytic forms in U_n and T_n at W1 / (2 sqrt W2) at every point
    where W2 > 0.  Each failure is recorded under its message.
    """
    n = natural(n)
    report = Report(f"n={n}")
    if q_poly(n + 1) != dickson_E(n, W1, W2):
        report.record(f"E_{n}(W1, W2) != q-sequence at {n + 1}", False)
    if 2 * r_poly(n) != dickson_D(n, W1, W2) + R_CORRECTION * q_poly(n):
        report.record(f"D_{n}(W1, W2) correction identity fails at {n}", False)
    if dickson_E(n, _TWO_V, 1) != chebyshev(ChebKind.SECOND, n):
        report.record(f"E_{n}(2v, 1) != U_{n}(v)", False)
    if dickson_D(n, _TWO_V, 1) != 2 * chebyshev(ChebKind.FIRST, n):
        report.record(f"D_{n}(2v, 1) != 2 T_{n}(v)", False)
    for name, companion in (("E", dickson_E), ("D", dickson_D)):
        # w and x stand in for a and b
        if any(i + 2 * j != n for i, j, *_ in companion(n, VAR_W, VAR_X).terms()):
            report.record(f"{name}_{n}(a, b) has a term of weight other than {n}", False)
    return report
