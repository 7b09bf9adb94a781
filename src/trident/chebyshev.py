"""Chebyshev polynomials and their radical-free bivariate companions.

The subsequences computed in ``sequences`` are Chebyshev polynomials in
disguise: up to a half-integer power of W2 they are U_n and T_n evaluated
at W1 / (2 sqrt(W2)).  Rather than ever touching square roots, the
bivariate families

    E_0 = 1, E_1 = a, E_n = a E_{n-1} - b E_{n-2}
    D_0 = 2, D_1 = a, D_n = a D_{n-1} - b D_{n-2}

carry the scaling exactly: E_n(a, b) encodes b^(n/2) U_n(a / (2 sqrt b))
and D_n(a, b) / 2 encodes b^(n/2) T_n(a / (2 sqrt b)).  ``verify_prop35``
checks the resulting exact identities for the 4-variable sequences and
spot-checks the analytic form in floating point.
"""

from __future__ import annotations

import enum
import math
import random

from .polyring import UniPoly
from .report import Report
from .sequences import S1, TRIPLE_COEFF, W1, W2, TwoTerm, q_poly, r_poly


class ChebKind(enum.Enum):
    """First kind (T) or second kind (U)."""

    FIRST = "T"
    SECOND = "U"


_TWO_V = UniPoly((0, 2))
_DEGREE_ONE = {ChebKind.FIRST: UniPoly.x(), ChebKind.SECOND: _TWO_V}


def chebyshev(kind: ChebKind, n: int) -> UniPoly:
    """T_n or U_n as an exact integer polynomial, by the shared recurrence.

    Each call runs its own recurrence and keeps nothing once it returns.
    """
    return TwoTerm(_TWO_V, 1, UniPoly.one(), _DEGREE_ONE[kind])[n]


def dickson_E(n: int, a, b):
    """Second-kind companion E_n(a, b); works for any ring elements a, b."""
    return TwoTerm(a, b, 1 * a**0, a)[n]   # E_0 is the one of a's ring


def dickson_D(n: int, a, b):
    """First-kind companion D_n(a, b); D_0 = 2."""
    return TwoTerm(a, b, 2 * a**0, a)[n]


# The analytic spot check: how many random points, from which seed, and the
# relative tolerance of each comparison.
SPOT_POINTS = 20
SPOT_SEED = 42
SPOT_REL_TOL = 1e-9


def verify_prop35(n: int) -> Report:
    """Check the Chebyshev bridge at index ``n``.

    Exact checks in the 4-variable ring:
      * the q-sequence at n+1 equals E_n(W1, W2);
      * twice the r-sequence at n equals D_n(W1, W2) plus
        (w + x + y - wxy - wz - xz) times the q-sequence at n.

    Then the analytic forms with explicit square roots are sampled at
    ``SPOT_POINTS`` random points with all variables in (0.5, 2.0), where
    W2 is positive, and compared at relative tolerance ``SPOT_REL_TOL``.
    Each failure is recorded under its message.
    """
    report = Report(f"n={n}")
    if q_poly(n + 1) != dickson_E(n, W1, W2):
        report.record(f"E_{n}(W1, W2) != q-sequence at {n + 1}", False)
    correction = S1 - TRIPLE_COEFF
    if 2 * r_poly(n) != dickson_D(n, W1, W2) + correction * q_poly(n):
        report.record(f"D_{n}(W1, W2) correction identity fails at {n}", False)

    t_n, u_n = chebyshev(ChebKind.FIRST, n), chebyshev(ChebKind.SECOND, n)
    rng = random.Random(SPOT_SEED)
    for trial in range(SPOT_POINTS):
        point = tuple(rng.uniform(0.5, 2.0) for _ in range(4))
        w1 = float(W1.evaluate(*point))
        w2 = float(W2.evaluate(*point))
        if w2 <= 0:
            report.record(f"spot point {trial}: nonpositive W2", False)
            continue
        arg = w1 / (2.0 * math.sqrt(w2))
        q_exact = float(q_poly(n + 1).evaluate(*point))
        q_analytic = w2 ** (n / 2.0) * float(u_n.evaluate(arg))
        if abs(q_exact - q_analytic) > SPOT_REL_TOL * max(1.0, abs(q_exact), abs(q_analytic)):
            report.record(f"spot point {trial}: U-form mismatch {q_exact} vs {q_analytic}",
                          False)
        r_exact = float(r_poly(n).evaluate(*point))
        corr = float(correction.evaluate(*point))
        r_analytic = (w2 ** (n / 2.0) * float(t_n.evaluate(arg))
                      + 0.5 * corr * float(q_poly(n).evaluate(*point)))
        if abs(r_exact - r_analytic) > SPOT_REL_TOL * max(1.0, abs(r_exact), abs(r_analytic)):
            report.record(f"spot point {trial}: T-form mismatch {r_exact} vs {r_analytic}",
                          False)
    return report
