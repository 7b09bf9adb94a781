"""Single-variable specializations of the 4-variable polynomial sequences.

Each ``SpecId`` fixes a substitution sending (w, x, y, z) to powers of one
fresh variable (or to 1), stored as its weight vector: the exponents of
the four images.  Each family member is read off the base-3 digit walk of
``sequences`` at (3^n - 1)/2, run in one variable over the images of the
digit-matrix entries: those are always recomputed by substitution, never
transcribed, and a ring homomorphism commutes with the walk.  The
coefficients of the specialized polynomials count partitions by the
statistic the weights induce: the weighted sum of a partition's
(overlined, tilde, singles, pairs) counts, which is the z-degree of its
monomial's image.

The ``(1, 1, z, 1)`` family additionally has closed binomial forms, which
double as an independent oracle for the recurrence path.
"""

from __future__ import annotations

import enum
import functools
import math
from typing import Callable, NamedTuple

from .oracle import PartitionStats, enumerate_partitions
from .polyring import NotDivisible, UniPoly, binomial_power, poly_substitute, split_origin
from .report import Report
from .sequences import DIGIT_COEFFS, W1, W2, repunit_pair


class SpecId(enum.Enum):
    """The ten built-in substitutions."""

    Z0 = "z0"
    Z1 = "z1"
    Z2 = "z2"
    Z3 = "z3"
    P1 = "p1"
    P2 = "p2"
    P3 = "p3"
    P4 = "p4"
    P5 = "p5"
    P6 = "p6"

    @property
    def weights(self) -> tuple[int, int, int, int]:
        """The exponents of the images of w, x, y and z."""
        return _WEIGHTS[self]

    @classmethod
    def from_string(cls, name: str) -> "SpecId":
        try:
            return cls(name.lower())
        except ValueError:
            raise ValueError(f"unknown spec {name!r}; expected one of "
                             + ", ".join(s.value for s in cls)) from None


# (w, x, y, z) -> (1, 1, z, z^2) is the weight vector (0, 0, 1, 2).
_WEIGHTS: dict[SpecId, tuple[int, int, int, int]] = {
    SpecId.Z0: (0, 0, 0, 0),
    SpecId.Z1: (0, 0, 1, 0),
    SpecId.Z2: (1, 1, 1, 2),
    SpecId.Z3: (0, 0, 1, 1),
    SpecId.P1: (1, 1, 0, 0),
    SpecId.P2: (1, 1, 1, 1),
    SpecId.P3: (0, 0, 1, 2),
    SpecId.P4: (1, 1, 1, 0),
    SpecId.P5: (0, 1, 1, 2),
    SpecId.P6: (1, 0, 1, 2),
}

# One (R, Q) pair memo per distinct image of the digit-matrix entries: P5
# and P6 share one, since every M_d is invariant under w <-> x.
_MEMOS: dict[tuple[UniPoly, ...], dict[int, tuple[UniPoly, UniPoly]]] = {}


def _validate_family(family: str) -> None:
    if family not in ("q", "r"):
        raise ValueError("family must be 'q' or 'r'")


def spec_images(spec: SpecId) -> tuple[UniPoly, UniPoly]:
    """The recurrence coefficient pair (W1, W2) under the substitution."""
    return poly_substitute(W1, spec.weights), poly_substitute(W2, spec.weights)


@functools.cache
def _walk(spec: SpecId) -> tuple[tuple[UniPoly, ...], dict]:
    """The images of the digit-matrix entries under ``spec``, and their pair memo."""
    coeffs = tuple(poly_substitute(c, spec.weights) for c in DIGIT_COEFFS)
    # setdefault is atomic: racing builders all get the first memo stored
    return coeffs, _MEMOS.setdefault(coeffs, {0: (UniPoly.one(), UniPoly.zero())})


def spec_family(spec: SpecId, family: str, n: int) -> UniPoly:
    """The specialized q- or r-family member at index ``n``, by the digit walk."""
    _validate_family(family)
    r, q = repunit_pair(n, *_walk(spec))
    return q if family == "q" else r


def _halved(p: UniPoly) -> UniPoly:
    if any(c % 2 for c in p.coeffs):
        raise AssertionError("expected all-even coefficients")
    return UniPoly(tuple(c // 2 for c in p.coeffs))


def q1_r1_closed(n: int) -> tuple[UniPoly, UniPoly]:
    """Closed binomial forms of the (1, 1, z, 1) families.

    Returns (((z+3)^n - (z+1)^n) / 2, ((z+3)^n + (z+1)^n) / 2); both halves
    are exact because the two expansions agree coefficient-wise mod 2.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    plus3 = binomial_power(3, n)
    plus1 = binomial_power(1, n)
    return _halved(plus3 - plus1), _halved(plus3 + plus1)


def q1_r1_shifted(n: int) -> tuple[UniPoly, UniPoly]:
    """The closed forms with the argument shifted by -2.

    The shift collapses the binomial expansions onto pure odd (q-side) and
    pure even (r-side) binomial coefficients; that structure is asserted
    before returning.
    """
    q_closed, r_closed = q1_r1_closed(n)
    q_shift = q_closed.shift_argument(-2)
    r_shift = r_closed.shift_argument(-2)
    q_expect = UniPoly.zero()
    for j in range((n + 1) // 2):
        q_expect = q_expect + UniPoly.monomial(n - 2 * j - 1, math.comb(n, 2 * j + 1))
    r_expect = UniPoly.zero()
    for j in range(n // 2 + 1):
        r_expect = r_expect + UniPoly.monomial(n - 2 * j, math.comb(n, 2 * j))
    if q_shift != q_expect or r_shift != r_expect:
        raise AssertionError("shifted closed forms lost their odd/even binomial structure")
    return q_shift, r_shift


def reduced_q2(n: int) -> UniPoly:
    """The (z, z, z, z^2) q-family member with its exact power-of-z factor stripped.

    The index-n member is divisible by z^(n-1); the quotient has a nonzero
    constant term and degree 2(n-1).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    low, reduced = split_origin(spec_family(SpecId.Z2, "q", n))
    if low < n - 1:
        raise NotDivisible(low)
    return reduced


def partition_statistic(spec: SpecId, stats: PartitionStats) -> int:
    """The statistic value of one partition under the given substitution."""
    return sum(v * e for v, e in zip(spec.weights, stats))


class CoefficientProfile(NamedTuple):
    """Nonzero coefficients of one specialized family member, keyed by degree."""

    family: str
    spec: SpecId
    n: int
    coeffs: dict[int, int]


def profile(spec: SpecId, family: str, n: int) -> CoefficientProfile:
    """Coefficient profile of the specialized polynomial (recurrence path)."""
    p = spec_family(spec, family, n)
    return CoefficientProfile(
        family=family, spec=spec, n=n,
        coeffs={d: c for d, c in enumerate(p.coeffs) if c},
    )


def profile_from_oracle(spec: SpecId, family: str, n: int) -> CoefficientProfile:
    """The same profile recomputed by filtering the brute-force enumeration.

    Counts partitions of (3^n - 3)/2 (q-side) or (3^n - 1)/2 (r-side) by the
    statistic induced by the substitution; shares nothing with the
    recurrence path but the spec's weights.
    """
    _validate_family(family)
    if n < 1:
        raise ValueError("n must be at least 1 for the oracle path")
    index = (3**n - 3) // 2 if family == "q" else (3**n - 1) // 2
    counts: dict[int, int] = {}
    for partition in enumerate_partitions(index):
        k = partition_statistic(spec, partition.stats())
        counts[k] = counts.get(k, 0) + 1
    return CoefficientProfile(family=family, spec=spec, n=n, coeffs=counts)


# The claimed structure of the family members, in the order verify runs it:
# per spec, one row per claim, (family, claim, f(member, n) -> (found, claimed)),
# with the rows of one family adjacent.
STRUCTURE: dict[SpecId, tuple[tuple[str, str, Callable[[UniPoly, int], tuple]], ...]] = {
    SpecId.Z1: (("q", "degree", lambda p, n: (p.degree(), n - 1)),
                ("q", "constant", lambda p, n: (p.coeff(0), (3**n - 1) // 2)),
                ("q", "leading", lambda p, n: (p.coeff(n - 1), n)),
                ("r", "degree", lambda p, n: (p.degree(), n)),
                ("r", "constant", lambda p, n: (p.coeff(0), (3**n + 1) // 2)),
                ("r", "leading", lambda p, n: (p.coeff(n), 1))),
    SpecId.Z2: (("q", "degree", lambda p, n: (p.degree(), 3 * (n - 1))),
                ("q", "lowest degree",
                 lambda p, n: (next(d for d, c in enumerate(p.coeffs) if c), n - 1)),
                ("q", "palindromic after reduction",
                 lambda p, n: (split_origin(p)[1].is_palindromic(), True)),
                ("q", "leading", lambda p, n: (p.coeff(3 * (n - 1)), 3 ** (n - 1))),
                ("q", "exponent parities",
                 lambda p, n: ({d for d in (0, 1) if any(p.coeffs[d::2])}, {(n - 1) % 2}))),
    SpecId.Z3: (("q", "degree", lambda p, n: (p.degree(), n - 1)),
                ("q", "leading", lambda p, n: (p.coeff(n - 1), (3**n - 1) // 2)),
                ("q", "constant", lambda p, n: (p.coeff(0), 2 ** (n - 1)))),
    **dict.fromkeys((SpecId.P1, SpecId.P3, SpecId.P5, SpecId.P6),
                    (("q", "palindromic", lambda p, n: (p.is_palindromic(), True)),)),
}


def structural_check(spec: SpecId, n: int) -> Report:
    """Record each ``STRUCTURE`` row of ``spec`` that fails at index ``n`` as
    "<family> <claim> <found> != <claimed>", reading each family's member once."""
    if n < 1:
        raise ValueError("n must be at least 1")
    rows = STRUCTURE.get(spec)
    if rows is None:
        raise ValueError(f"no structural claims for spec {spec.value}")
    report = Report(f"{spec.value} n={n}")
    member_family = None
    for family, claim, measure in rows:
        if family != member_family:
            member_family, member = family, spec_family(spec, family, n)
        found, claimed = measure(member, n)
        if found != claimed:
            report.record(f"{family} {claim} {found} != {claimed}", False)
    return report
