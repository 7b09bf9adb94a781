"""Reference implementations over ``fractions.Fraction``.

The package evaluates and divides in plain integers (dyadic Newton
polishing, primitive pseudo-remainder sequences).  These are the earlier
rational-arithmetic versions, kept verbatim as oracles: the integer code
must reproduce their results exactly, bit for bit on the polished zeros.
"""

import math
from fractions import Fraction

from trident.polyring import UniPoly


def _exact_eval_pair(coeffs: list[int], z: complex) -> tuple[Fraction, Fraction]:
    # Exact complex Horner over the rationals; the float point is taken verbatim.
    re, im = Fraction(z.real), Fraction(z.imag)
    acc_re, acc_im = Fraction(0), Fraction(0)
    for c in reversed(coeffs):
        acc_re, acc_im = acc_re * re - acc_im * im + c, acc_re * im + acc_im * re
    return acc_re, acc_im


def _abs2(pair: tuple[Fraction, Fraction]) -> Fraction:
    return pair[0] * pair[0] + pair[1] * pair[1]


def newton_polish(poly: UniPoly, z: complex, steps: int = 3) -> complex:
    """Newton steps with exact rational evaluation, rounded to a double after each."""
    coeffs = list(poly.coeffs)
    dcoeffs = [k * c for k, c in enumerate(coeffs)][1:]
    best = z
    best_res = _abs2(_exact_eval_pair(coeffs, z))
    for _ in range(steps):
        pv_re, pv_im = _exact_eval_pair(coeffs, best)
        dv_re, dv_im = _exact_eval_pair(dcoeffs, best)
        denom = dv_re * dv_re + dv_im * dv_im
        if denom == 0:
            break
        step_re = (pv_re * dv_re + pv_im * dv_im) / denom
        step_im = (pv_im * dv_re - pv_re * dv_im) / denom
        candidate = complex(float(Fraction(best.real) - step_re),
                            float(Fraction(best.imag) - step_im))
        res = _abs2(_exact_eval_pair(coeffs, candidate))
        if res < best_res:
            best, best_res = candidate, res
        else:
            break
    return best


def _primitive_from_fractions(coeffs: list[Fraction]) -> UniPoly:
    # Clear denominators, strip the integer content, make the leading term positive.
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if not coeffs:
        return UniPoly.zero()
    denom = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * denom) for c in coeffs]
    g = math.gcd(*ints)
    if ints[-1] < 0:
        g = -g
    return UniPoly(tuple(c // g for c in ints))


def _trim_zeros(cs: list[Fraction]) -> list[Fraction]:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def up_gcd(p: UniPoly, q: UniPoly) -> UniPoly:
    """Euclid over the rationals, returned primitive over the integers."""
    a = _trim_zeros([Fraction(c) for c in p.coeffs])
    b = _trim_zeros([Fraction(c) for c in q.coeffs])
    while b:
        db = len(b) - 1
        lead = b[-1]
        while len(a) > db:
            factor = a[-1] / lead
            shift = len(a) - 1 - db
            for i in range(db):
                a[shift + i] -= factor * b[i]
            a.pop()
            _trim_zeros(a)
        a, b = b, a
    return _primitive_from_fractions(a)


def up_square_free(p: UniPoly) -> UniPoly:
    """p / gcd(p, p') by rational long division, made primitive."""
    if p.degree() < 1:
        raise ValueError("polynomial must have degree at least 1")
    g = up_gcd(p, p.derivative())
    if g.degree() < 1:
        return _primitive_from_fractions([Fraction(c) for c in p.coeffs])
    quotient = [Fraction(c) for c in p.coeffs]
    out: list[Fraction] = []
    gb = g.coeffs
    dg = len(gb) - 1
    while len(quotient) - 1 >= dg:
        factor = quotient[-1] / gb[-1]
        out.append(factor)
        shift = len(quotient) - 1 - dg
        for i in range(dg + 1):
            quotient[shift + i] -= factor * gb[i]
        quotient.pop()
    if any(quotient):
        raise AssertionError("gcd does not divide its polynomial")
    out.reverse()
    return _primitive_from_fractions(out)
