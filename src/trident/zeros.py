"""Zero computation and locus verification for the specialized families.

Every q family is a Lucas sequence, Q_n = E_{n-1}(a, b) over the images
(a, b) of (W1, W2): its member is the product of the factors
a^2 - 4 cos^2(k pi / n) b, 1 <= k < n / 2, times a at even n (Lucas 1878).
So is every r family with 2 R_n = D_n(a, b), with the angles
(2k - 1) pi / (2n) and a at odd n.  ``zeros_of`` takes the zeros of these
families from the factors, and those of every other member from the
Aberth-Ehrlich root finder, which ``zeros_general`` runs on any polynomial,
and returns those only once the Newton inclusion test certifies them (and
with them that every zero is simple).  ``LOCI`` is the one table of
zero facts, one row per (spec, family) that claims a locus: its JSON
parameters, distance, strict margin and real-zero parity.  The claimed
loci are its rows, and ``verify_locus`` checks them.
"""

from __future__ import annotations

import cmath
import functools
import math
import random
from contextlib import suppress
from itertools import zip_longest
from typing import Callable, NamedTuple, Optional

from .polyring import (NotDivisible, UniPoly, _primitive, horner, poly_substitute, split_origin,
                       up_divide_exact, up_gcd)
from .report import Report
from .sequences import R_CORRECTION
from .specialize import SpecId, spec_family, spec_images

# The root finder's iteration cap, relative stopping tolerance, start jitter seed
# and exact Newton polishing steps; the tolerance of the locus and residual checks.
DEFAULT_MAX_ITER = 500
ROOT_TOL = 1e-13
ROOT_SEED = 42
POLISH_STEPS = 3
LOCUS_TOL = 1e-9


class NoConvergence(Exception):
    """The simultaneous iteration failed to reach the requested tolerance."""

    def __init__(self, iterations: int, trace: list[float]):
        self.iterations = iterations
        self.trace = trace
        last = f"{trace[-1]:.3e}" if trace else "n/a"
        super().__init__(
            f"root finder did not converge in {iterations} iterations "
            f"(last correction {last})")


class NotCertified(Exception):
    """Computed zeros that the Newton inclusion test does not certify."""

    def __init__(self, label: str, radius: float):
        self.radius = radius
        super().__init__(f"{label}: zeros not certified (worst Newton inclusion radius "
                         f"{radius:.3e})")


class ZeroReport(NamedTuple):
    """Computed zeros of one polynomial plus per-point diagnostics.

    ``poly`` is the reduced polynomial P, the one with its exact zero at the
    origin divided out (that zero is carried in ``origin_multiplicity``), and
    ``points`` has exactly one entry per zero of P.  ``residuals[i]`` is
    |P(points[i])| and ``locus_distances[i]`` the distance to the claimed
    locus, when one exists for the family.  On a ``LOCI`` row
    ``origin_multiplicity`` is the member's own multiplicity at the origin;
    on every other row it is at most 1.
    """

    points: list[complex]
    residuals: list[float]
    locus_distances: Optional[list[float]]
    origin_multiplicity: int
    poly: UniPoly


class Locus(NamedTuple):
    """One claimed zero locus.

    ``params`` is the JSON description the CLI prints, ``name`` the phrase
    failure messages use and ``distance(z)`` the distance of a point to the
    locus.  ``margin``, when set, is a strict open condition on top of the
    locus: (key in ``Report.margins``, the claim as text, a function
    that is positive exactly where the claim holds).  ``real_zero_parity``,
    when set, claims a single real zero at the indices n with n % 2 equal
    to it and none at the others.
    """

    params: dict
    name: str
    distance: Callable[[complex], float]
    margin: Optional[tuple[str, str, Callable[[complex], float]]] = None
    real_zero_parity: Optional[int] = None


_LINE = Locus({"type": "line", "re": -2.0}, "the line Re = -2",
              lambda z: abs(z.real + 2.0))
_CIRCLE_OR_AXIS = Locus(
    {"type": "union", "components": [
        {"type": "circle", "center": [0.0, 0.0], "radius": 1.0},
        {"type": "segment", "axis": "negative-real"}]},
    "the unit circle and negative real axis",
    lambda z: min(abs(abs(z) - 1.0), abs(z.imag) if z.real <= 0 else abs(z)))

LOCI: dict[tuple[SpecId, str], Locus] = {
    (SpecId.Z1, "q"): _LINE._replace(real_zero_parity=0),
    (SpecId.Z1, "r"): _LINE._replace(real_zero_parity=1),
    (SpecId.Z2, "q"): Locus(
        {"type": "circle", "center": [0.0, 0.0], "radius": 1.0,
         "constraint": "|Im(z)| > 1/3"},
        "the unit circle", lambda z: abs(abs(z) - 1.0),
        ("im_above_third", "|Im| > 1/3", lambda z: abs(z.imag) - 1.0 / 3.0)),
    (SpecId.Z3, "q"): Locus(
        {"type": "circle", "center": [0.375, 0.0], "radius": 0.875,
         "constraint": "Re(z) < 1/2"},
        "the circle |z - 3/8| = 7/8", lambda z: abs(abs(z - complex(0.375, 0.0)) - 0.875),
        ("re_below_half", "Re < 1/2", lambda z: 0.5 - z.real)),
    (SpecId.P3, "q"): _CIRCLE_OR_AXIS,
    (SpecId.P5, "q"): _CIRCLE_OR_AXIS,
    (SpecId.P6, "q"): _CIRCLE_OR_AXIS,
}


def zeros_explicit(spec: str, n: int) -> ZeroReport:
    """``zeros_of`` of the row tagged ``spec`` (z1q, z1r, z2 or z3) at index ``n``."""
    tags = ("z1q", "z1r", "z2", "z3")
    if spec not in tags:
        raise ValueError(f"spec must be one of {tags}")
    return zeros_of(SpecId(spec[:2]), spec[2:] or "q", n)


_EPS = 2.0 ** -52


def _aberth(coeffs: list[complex]) -> list[complex]:
    d = len(coeffs) - 1
    if d <= 1:
        return [-coeffs[0] / coeffs[1]] if d else []
    deriv = [k * coeffs[k] for k in range(1, d + 1)]
    abs_coeffs = [abs(c) for c in coeffs]

    rng = random.Random(ROOT_SEED)
    radius = (1.0 + max(abs(c / coeffs[d]) for c in coeffs[:d])) ** (1.0 / d)
    zs = []
    for k in range(d):
        theta = 2.0 * math.pi * k / d + math.pi / (2.0 * d) + rng.uniform(-0.05, 0.05)
        zs.append(radius * cmath.exp(1j * theta))

    frozen = [False] * d
    trace: list[float] = []
    for _ in range(DEFAULT_MAX_ITER):
        worst = 0.0
        for k in range(d):
            if frozen[k]:
                continue
            zk = zs[k]
            pv = horner(coeffs, zk)
            # Roundoff bound for Horner at |z|; residuals below it are numerically zero.
            if abs(pv) <= 4.0 * d * _EPS * horner(abs_coeffs, abs(zk)):
                frozen[k] = True
                continue
            dv = horner(deriv, zk)
            if dv == 0:
                zs[k] = zk * (1.0 + 1e-8) + 1e-8
                worst = max(worst, 1e-8)
                continue
            newton = pv / dv
            others = sum(1.0 / (zk - zs[j]) for j in range(d) if j != k)
            denom = 1.0 - newton * others
            step = newton if denom == 0 else newton / denom
            zs[k] = zk - step
            worst = max(worst, abs(step) / (1.0 + abs(zs[k])))
        trace.append(worst)
        if all(frozen) or worst < ROOT_TOL:
            return zs
    raise NoConvergence(len(trace), trace)


def _exact(coeffs: tuple[int, ...], z: complex) -> tuple[int, ...]:
    # z = (a + ib) 2^-k exactly (NaN and infinity raise as float.as_integer_ratio
    # does), then one Gaussian-integer Horner pass for P and P' there: returns
    # (a, b, k) and 2^(kd) P(z), 2^(k(d-1)) P'(z) as (re, im, re, im), d = len(coeffs) - 1.
    (re_n, re_d), (im_n, im_d) = z.real.as_integer_ratio(), z.imag.as_integer_ratio()
    re_k, im_k = re_d.bit_length() - 1, im_d.bit_length() - 1
    k = max(re_k, im_k)
    a, b = re_n << (k - re_k), im_n << (k - im_k)
    p_re = p_im = d_re = d_im = 0
    shift = 0
    for c in reversed(coeffs):
        d_re, d_im = d_re * a - d_im * b + p_re, d_re * b + d_im * a + p_im
        p_re, p_im = p_re * a - p_im * b + (c << shift), p_re * b + p_im * a
        shift += k
    return a, b, k, p_re, p_im, d_re, d_im


def _newton_radius(coeffs: tuple[int, ...], z: complex) -> float:
    # An upper bound on d |P(z) / P'(z)| from the exact P(z) and P'(z) of
    # _exact, d = len(coeffs) - 1: the disk of that radius about z holds a
    # zero of P.  The quotient r^2 is rounded once, its root once.
    _, _, k, p_re, p_im, d_re, d_im = _exact(coeffs, z)
    d = len(coeffs) - 1
    den = (d_re * d_re + d_im * d_im) << 2 * k
    try:
        return math.sqrt(d * d * (p_re * p_re + p_im * p_im) / den) * (1 + 4 * _EPS) + 2.0 ** -500
    except (ZeroDivisionError, OverflowError):
        return math.inf


def _certified(label: str, report: ZeroReport) -> ZeroReport:
    """``report`` if the Newton inclusion test certifies its points, else NotCertified.

    Each point z gets the radius d |P(z) / P'(z)| on ``report.poly`` of
    degree d, bounded from above.  The points pass when every radius is at
    most ``LOCUS_TOL`` (1 + |z|) and the d disks are pairwise disjoint: then
    each disk holds exactly one zero and every zero is simple (Bini and
    Fiorentino, Numer. Algorithms 2000).
    """
    points, coeffs = report.points, report.poly.coeffs
    radii = [_newton_radius(coeffs, z) for z in points]
    if not (len(points) == len(coeffs) - 1
            and all(r <= LOCUS_TOL * (1.0 + abs(z)) for r, z in zip(radii, points))
            # the computed distance is within 4 eps of the true one
            and all(abs(points[i] - points[j]) * (1 - 4 * _EPS) > radii[i] + radii[j]
                    for i in range(len(points)) for j in range(i))):
        raise NotCertified(label, max(radii, default=math.inf))
    return report


def _newton_polish(poly: UniPoly, z: complex) -> complex:
    """Refine one simple root by ``POLISH_STEPS`` Newton steps, evaluated exactly.

    Every double is a dyadic rational (a + ib) 2^-k, so P and P' are
    evaluated exactly in integers and the Newton step is formed as one
    exact quotient per coordinate, rounded once to the nearest double by
    int/int division.  A step is kept only if it strictly reduces the exact
    residual |P|^2.  This removes the double-precision evaluation noise that
    limits the simultaneous iteration on clustered roots.
    """
    coeffs = poly.coeffs
    scale = 2 * poly.degree()   # |P|^2 carries 2^(2kd)
    best, (a, b, k, p_re, p_im, d_re, d_im) = z, _exact(coeffs, z)
    for _ in range(POLISH_STEPS):
        denom = d_re * d_re + d_im * d_im
        if denom == 0:
            break
        # z - P/P' = (z |P'|^2 - P conj(P')) / |P'|^2 with P/P' carrying 2^-k.
        den = denom << k
        candidate = complex((a * denom - (p_re * d_re + p_im * d_im)) / den,
                            (b * denom - (p_im * d_re - p_re * d_im)) / den)
        if candidate == best:   # the same point cannot have a smaller residual
            break
        values = _exact(coeffs, candidate)
        ck, c_re, c_im = values[2:5]
        top = scale * max(k, ck)
        if ((c_re * c_re + c_im * c_im) << (top - scale * ck)
                >= (p_re * p_re + p_im * p_im) << (top - scale * k)):
            break
        best, (a, b, k, p_re, p_im, d_re, d_im) = candidate, values
    return best


def _zero_report(poly: UniPoly, points: list[complex], origin: int,
                 locus: Optional[Locus]) -> ZeroReport:
    """The one builder of a ZeroReport: points sorted by (re, im), residuals on ``poly``
    by float Horner, each finite or OverflowError, and distances to ``locus``."""
    points = sorted(points, key=lambda z: (z.real, z.imag))
    coeffs = [float(c) for c in poly.coeffs]
    residuals = [abs(horner(coeffs, z)) for z in points]
    if not all(map(math.isfinite, residuals)):
        raise OverflowError("a residual overflows a double")
    distances = None if locus is None else [locus.distance(z) for z in points]
    return ZeroReport(points, residuals, distances, origin, poly)


def zeros_general(p: UniPoly) -> ZeroReport:
    """All complex zeros of ``p`` by Aberth-Ehrlich simultaneous iteration.

    Exact zeros at the origin (trailing zero coefficients) are split off
    first and reported via ``origin_multiplicity``.  Starting points sit on
    a circle of radius (1 + max |c_i / c_d|)^(1/d) with angular jitter
    seeded by ``ROOT_SEED``; iteration stops when every root either reaches
    the floating-point noise floor of the evaluation or moves less than
    ``ROOT_TOL`` relatively, and raises NoConvergence (with the correction
    trace) after ``DEFAULT_MAX_ITER`` iterations otherwise.  Simple roots
    are then polished by Newton steps with exact dyadic integer evaluation
    to remove evaluation noise.
    """
    if p.degree() < 1:
        raise ValueError("polynomial must have degree at least 1")
    origin, reduced = split_origin(p)
    points = _aberth([complex(c) for c in reduced.coeffs])
    return _zero_report(reduced, [_newton_polish(reduced, z) for z in points], origin, None)


@functools.cache
def _lucas(spec: SpecId) -> tuple[tuple[int, ...], tuple[int, ...], UniPoly, UniPoly, bool]:
    """The factor data of ``spec``, from (a, b) = ``spec_images(spec)`` and g = gcd(a, b).

    Returns the coefficients of N and D, with N / D = a^2 / b in lowest
    terms; a / g and g, each with its zero at the origin split off; and
    whether the r family is a Lucas sequence too.
    """
    a, b = spec_images(spec)
    g, h = up_gcd(a, b), up_gcd(a * a, b)
    return (up_divide_exact(a * a, h).coeffs, up_divide_exact(b, h).coeffs,
            split_origin(up_divide_exact(a, g))[1], split_origin(g)[1],
            not poly_substitute(R_CORRECTION, spec.weights))


def _roots(coeffs) -> list[complex]:
    # The zeros of one polynomial with no zero at the origin, in floats: by
    # the quadratic formula at degree 2, so that conjugates are exact (and
    # real roots free of cancellation); in z^2 where every odd coefficient
    # is 0; else by the simultaneous iteration.
    if len(coeffs) == 3:
        c, b, a = coeffs
        s = cmath.sqrt(b * b - 4.0 * a * c)
        if s.imag:
            return [(-b + s) / (2.0 * a), (-b - s) / (2.0 * a)]
        q = -0.5 * (b + math.copysign(s.real, b))
        return [complex(q / a), complex(c / q)]
    if len(coeffs) > 3 and not any(coeffs[1::2]):
        return [z for w in _roots(coeffs[::2]) for r in (cmath.sqrt(w),) for z in (r, -r)]
    return _aberth([complex(c) for c in coeffs])


def _lucas_points(spec: SpecId, family: str, n: int) -> list[complex]:
    # The zeros of the factors N - 4 cos^2(t) D at the angles t = j pi / (2n),
    # 0 < j < n, j even for q and odd for r; of a / g where j = n has that
    # parity (the factor at t = pi / 2 is a itself); and of g, once.
    num, den, a_rest, g_rest, _ = _lucas(spec)
    first = 2 if family == "q" else 1
    points = []
    for j in range(first, n, 2):
        x = 4.0 * math.cos(j * math.pi / (2 * n)) ** 2
        points += _roots([p - x * d for p, d in zip_longest(num, den, fillvalue=0)])
    if (n - first) % 2 == 0:
        points += _roots(a_rest.coeffs)
    return points + _roots(g_rest.coeffs)


def zeros_of(spec: SpecId, family: str, n: int) -> ZeroReport:
    """Zeros of one family member.

    Every polynomial is the member with its zero at the origin split off
    and each zero of g left simple.  The Lucas families take their points
    from the factors of ``_lucas``.  Every other member takes its integer
    content out too and its points from the root finder, returned only if
    ``_certified`` (which proves every zero simple), else NotCertified.  The
    ``LOCI`` rows report the member's multiplicity at the origin, every
    other row at most 1.  A constant member has no zeros and raises ValueError.
    """
    member = spec_family(spec, family, n)
    label = f"{spec.value}/{family} member {n}"
    if member.degree() < 1:
        raise ValueError(f"{label} has no zeros")
    *_, g_rest, pure_r = _lucas(spec)
    origin, poly = split_origin(member)
    if (spec, family) not in LOCI:
        origin = min(origin, 1)
    if family == "r" and not pure_r:
        quotient = poly
        with suppress(NotDivisible):
            while g_rest.degree() >= 1:   # g out while it still divides, but once
                poly, quotient = quotient, up_divide_exact(quotient, g_rest)
        poly = _primitive(poly)
        try:
            points = [_newton_polish(poly, z) for z in _aberth([complex(c) for c in poly.coeffs])]
        except ValueError:   # a NaN point, which _exact cannot convert
            raise NotCertified(label, math.nan) from None
        return _certified(label, _zero_report(poly, points, origin, None))
    points = _lucas_points(spec, family, n)
    if g_rest.degree() >= 1:
        # g divides every member and its zeros are among the points once:
        # one division by the power of g the points leave over
        extra = (poly.degree() - len(points)) // g_rest.degree()
        if extra > 0:
            poly = up_divide_exact(poly, g_rest ** extra)
    if len(points) != poly.degree():
        raise AssertionError("Lucas zero count disagrees with the polynomial degree")
    return _zero_report(poly, points, origin, LOCI.get((spec, family)))


def backward_scale(poly: UniPoly, points: list[complex]) -> list[float]:
    """Natural residual scale at each of ``points``: sum of |c_i| |z|^i.

    Coincides with the l1 coefficient norm on the unit circle and is the
    smallest scale against which a double-precision residual at a computed
    zero is meaningful; for zeros of modulus > 1 the plain l1 norm is
    unattainably small even for the exact residual of a correctly rounded
    zero.
    """
    magnitudes = [abs(c) for c in poly.coeffs]
    return [horner(magnitudes, abs(z)) for z in points]


def verify_locus(spec: SpecId, n: int) -> Report:
    """Assert the claimed zero locus of one family at index ``n``.

    Every ``LOCI`` row of ``spec`` is checked the same way: distance to the
    locus, the strict margin and the real-zero parity where the row has
    them, and a residual gate on the report's residuals, each within
    ``LOCUS_TOL``.  Strict open conditions (|Im| > 1/3,
    Re < 1/2) are checked with their actual margins recorded rather than
    widened by the tolerance; on the unit-circle-or-negative-axis locus the
    range of the real zeros off the circle is recorded as
    ``real_zero_min``/``real_zero_max``.  Each violation is recorded under
    its message.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    rows = [(family, locus) for (s, family), locus in LOCI.items() if s is spec]
    if not rows:
        raise ValueError(f"no locus claim for spec {spec.value}")
    report = Report(f"{spec.value} n={n}")
    for family, locus in rows:
        zr = zeros_of(spec, family, n)
        # Messages name the family where the spec claims a locus for both.
        tag = f"{spec.value}{family}: " if len(rows) > 1 else ""
        for z, dist in zip(zr.points, zr.locus_distances):
            if dist >= LOCUS_TOL:
                report.record(f"{tag}zero {z} off {locus.name}", False)
        if locus.margin is not None:
            key, claim, measure = locus.margin
            margin = min((measure(z) for z in zr.points), default=math.inf)
            if margin <= 0:
                report.record(f"{tag}{claim} violated (margin {margin:.3e})", False)
            report.margins[key] = margin
        if locus.real_zero_parity is not None:
            real_zeros = [z for z in zr.points if z.imag == 0.0]
            expected = 1 if n % 2 == locus.real_zero_parity else 0
            if len(real_zeros) != expected:
                report.record(f"{tag}expected {expected} real zero(s), found {len(real_zeros)}",
                              False)
        if locus is _CIRCLE_OR_AXIS:
            reals = [z.real for z in zr.points if abs(z.imag) < LOCUS_TOL and z.real < 0
                     and abs(abs(z) - 1.0) >= LOCUS_TOL]
            if reals:
                report.margins["real_zero_min"] = min(reals)
                report.margins["real_zero_max"] = max(reals)
        for z, res, scale in zip(zr.points, zr.residuals, backward_scale(zr.poly, zr.points)):
            if not res < LOCUS_TOL * scale < math.inf:
                report.record(f"{tag}residual {res:.3e} at {z} not shown below {LOCUS_TOL:.1e} "
                              f"* scale {scale:.3e}", False)
    return report
