"""Exact verification of the cross-sequence identities and divisibility claims.

Every check here is an equality of polynomials with integer coefficients
and is decided exactly; nothing in this module touches floating point.
The verifiers read the sequences through this module's names ``q_poly``,
``r_poly`` and ``spec_family``, which the mutation tests patch: perturbing
a single coefficient of any input must surface as a failure with a
serialized witness.
"""

from __future__ import annotations

from .polyring import MultiPoly, NotDivisible, UniPoly, natural, up_divide_exact
from .report import Report
from .sequences import S1, TRIPLE_COEFF, WXZ, q_poly, r_poly
from .specialize import SpecId, q1_r1_closed, spec_family

# The substitutions whose q family is claimed to be a divisibility sequence.
DIVISIBILITY_SPECS = (SpecId.Z1, SpecId.Z2, SpecId.Z3)


def verify_prop61(n_max: int) -> Report:
    """The two first-order couplings between the q- and r-sequences.

    For 1 <= n <= n_max:  wxz * Q_n = R_{n+1} - (w+x+y) R_n  and
    R_n = Q_{n+1} - (wxy+wz+xz) Q_n, exactly in the 4-variable ring.
    """
    n_max = natural(n_max, 1, "n_max")
    report = Report(f"1..{n_max}")
    for n in range(1, n_max + 1):
        lhs = WXZ * q_poly(n)
        rhs = r_poly(n + 1) - S1 * r_poly(n)
        report.record(f"qr-coupling n={n}", lhs == rhs, lhs, rhs)
        lhs2 = r_poly(n)
        rhs2 = q_poly(n + 1) - TRIPLE_COEFF * q_poly(n)
        report.record(f"rq-coupling n={n}", lhs2 == rhs2, lhs2, rhs2)
    return report


def verify_telescoping(n_max: int) -> Report:
    """The telescoped closed forms of both sequences.

    For 1 <= N <= n_max:
      R_N = (w+x+y)^N + wxz * sum_{n=1..N} (w+x+y)^(N-n) Q_{n-1}
      Q_N = sum_{n=1..N} (wxy+wz+xz)^(N-n) R_{n-1}
    """
    n_max = natural(n_max, 1, "n_max")
    report = Report(f"1..{n_max}")
    # The sums over n as running sums: sum_N = (w+x+y) sum_{N-1} + Q_{N-1},
    # and likewise with wxy+wz+xz and R.
    s1_pow, r_sum, q_sum = MultiPoly.one(), MultiPoly.zero(), MultiPoly.zero()
    for N in range(1, n_max + 1):
        s1_pow = s1_pow * S1
        r_sum = S1 * r_sum + q_poly(N - 1)
        rhs = s1_pow + WXZ * r_sum
        lhs = r_poly(N)
        report.record(f"r-telescope N={N}", lhs == rhs, lhs, rhs)
        q_sum = TRIPLE_COEFF * q_sum + r_poly(N - 1)
        lhs2 = q_poly(N)
        report.record(f"q-telescope N={N}", lhs2 == q_sum, lhs2, q_sum)
    return report


def _divides(den: UniPoly, num: UniPoly) -> bool:
    """Whether ``num = den * q`` for some ``q`` with integer coefficients."""
    try:
        up_divide_exact(num, den)
    except NotDivisible:
        return False
    return True


def verify_divisibility(spec: SpecId, n_max: int) -> Report:
    """Divisibility of the specialized q-family along divisor pairs.

    Checks Q_m | Q_n (exact integer quotient) for every 1 <= m < n <= n_max
    with m | n.  For the (1, 1, z, 1) substitution the r-side is only a
    partial pattern, recorded as fixtures: index 2 divides index 6 while
    indices 1 and 3 do not.
    """
    n_max = natural(n_max, 2, "n_max")
    if spec not in DIVISIBILITY_SPECS:
        raise ValueError("divisibility is claimed for the "
                         + ", ".join(s.value for s in DIVISIBILITY_SPECS) + " substitutions")
    report = Report(f"m|n, n<=2..{n_max}")
    for n in range(2, n_max + 1):
        for m in range(1, n):
            if n % m == 0:
                qn, qm = spec_family(spec, "q", n), spec_family(spec, "q", m)
                report.record(f"q[{m}] | q[{n}]", _divides(qm, qn), qn, qm)
    if spec is SpecId.Z1:
        r6 = spec_family(spec, "r", 6)
        r2 = spec_family(spec, "r", 2)
        report.record("r[2] | r[6]", _divides(r2, r6), r6, r2)
        for m in (1, 3):
            rm = spec_family(spec, "r", m)
            report.record(f"r[{m}] does not divide r[6]", not _divides(rm, r6), r6, rm)
    return report


def verify_surprising(n_max: int) -> Report:
    """The binomial sum/difference relations of the (1, 1, z, 1) families.

    For 0 <= n <= n_max, exactly:  R - Q = (z+1)^n, R + Q = (z+3)^n,
    R^2 - Q^2 = ((z+1)(z+3))^n, and the product consistency of the three.
    """
    n_max = natural(n_max, name="n_max")
    report = Report(f"0..{n_max}")
    z_plus_1 = UniPoly((1, 1))
    z_plus_3 = UniPoly((3, 1))
    for n in range(n_max + 1):
        q, r = spec_family(SpecId.Z1, "q", n), spec_family(SpecId.Z1, "r", n)
        diff, total, plus_1, plus_3 = r - q, r + q, z_plus_1**n, z_plus_3**n
        report.record(f"difference n={n}", diff == plus_1, diff, plus_1)
        report.record(f"sum n={n}", total == plus_3, total, plus_3)
        square = r * r - q * q
        expected = (z_plus_1 * z_plus_3) ** n
        report.record(f"square-difference n={n}", square == expected, square, expected)
        report.record(f"product-consistency n={n}", square == diff * total)
        closed_q, closed_r = q1_r1_closed(n)
        report.record(f"closed-form n={n}", (q, r) == (closed_q, closed_r))
    return report
