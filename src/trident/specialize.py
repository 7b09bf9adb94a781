"""Single-variable specializations of the 4-variable polynomial sequences.

Each ``SpecId`` member is declared with its weight vector: the exponents
of the images of (w, x, y, z), which go to powers of one fresh variable
(or to 1).  Each family member is read off the base-3 digit walk of
``sequences`` at (3^n - 1)/2, run in one variable over the images of the
digit-matrix entries: those are always recomputed by substitution, never
transcribed, and a ring homomorphism commutes with the walk.  The
coefficients of the specialized polynomials count partitions by the
statistic the weights induce: the weighted sum of a partition's
(overlined, tilde, singles, pairs) counts, which is the z-degree of its
monomial's image.

``profile`` returns these counts as a ``{degree: count}`` dict, and
``profile_from_oracle`` recounts them from the oracle polynomial.  The
``(1, 1, z, 1)`` family additionally has closed binomial forms, which
double as an independent oracle for the recurrence path.  ``STRUCTURE`` is
the one table of structural claims: degrees, extreme coefficients,
palindromes, the pure odd and even binomials that the z1 members become
when shifted by -2, and the z0 members' values 2^(n-1)(2^n -/+ 1), the q
side an even perfect number where 2^n - 1 is prime.
"""

from __future__ import annotations

import enum
import functools
import math
from typing import Callable, Iterator

from .oracle import PartitionStats, oracle_poly
from .polyring import UniPoly, natural, poly_substitute, split_origin
from .report import Report
from .sequences import DIGIT_COEFFS, W1, W2, _repunit, digit_walk, repunit_sweep, scalar_qr


class SpecId(enum.Enum):
    """The ten built-in substitutions; (1, 1, z, z^2) has the weights (0, 0, 1, 2)."""

    Z0 = "z0", (0, 0, 0, 0)
    Z1 = "z1", (0, 0, 1, 0)
    Z2 = "z2", (1, 1, 1, 2)
    Z3 = "z3", (0, 0, 1, 1)
    P1 = "p1", (1, 1, 0, 0)
    P2 = "p2", (1, 1, 1, 1)
    P3 = "p3", (0, 0, 1, 2)
    P4 = "p4", (1, 1, 1, 0)
    P5 = "p5", (0, 1, 1, 2)
    P6 = "p6", (1, 0, 1, 2)

    __hash__ = object.__hash__   # members are singletons, compared by identity

    def __new__(cls, value: str, weights: tuple[int, int, int, int]):
        member = object.__new__(cls)
        member._value_ = value
        member.weights = weights
        return member


# One value memo of the walk per distinct image of the digit-matrix entries:
# P5 and P6 share one, since every M_d is invariant under w <-> x.
_MEMOS: dict[tuple[UniPoly, ...], dict[int, UniPoly]] = {}


def _validate_family(family: str) -> None:
    if family not in ("q", "r"):
        raise ValueError("family must be 'q' or 'r'")


def spec_images(spec: SpecId) -> tuple[UniPoly, UniPoly]:
    """The recurrence coefficient pair (W1, W2) under the substitution."""
    return poly_substitute(W1, spec.weights), poly_substitute(W2, spec.weights)


@functools.cache
def _walk(spec: SpecId) -> tuple[tuple[UniPoly, ...], dict]:
    """The images of the digit-matrix entries under ``spec``, and their value memo."""
    coeffs = tuple(poly_substitute(c, spec.weights) for c in DIGIT_COEFFS)
    # setdefault is atomic: racing builders all get the first memo stored
    return coeffs, _MEMOS.setdefault(coeffs, {-1: UniPoly.zero(), 0: UniPoly.one()})


def spec_family(spec: SpecId, family: str, n: int) -> UniPoly:
    """The specialized q- or r-family member at index ``n``, by the digit walk."""
    _validate_family(family)
    r, q = digit_walk(_repunit(n), *_walk(spec), pair=True)
    return q if family == "q" else r


def spec_family_sweep(spec: SpecId, family: str, upto: int) -> Iterator[UniPoly]:
    """``spec_family(spec, family, n)`` for n = 0, ..., upto, by ``repunit_sweep``:
    the memo of ``spec`` gains nothing."""
    _validate_family(family)
    return (q if family == "q" else r for r, q in repunit_sweep(upto, _walk(spec)[0]))


def _binomial_halves(c: int, d: int, n: int) -> tuple[UniPoly, UniPoly]:
    """(((z+c)^n - (z+d)^n) / 2, ((z+c)^n + (z+d)^n) / 2), from ``math.comb``.

    Both halves are exact for c and d of one parity: then c^k and d^k agree
    mod 2, and so do the two expansions coefficient-wise.
    """
    n = natural(n)
    pairs = [(math.comb(n, j) * c ** (n - j), math.comb(n, j) * d ** (n - j))
             for j in range(n + 1)]
    return UniPoly((u - v) // 2 for u, v in pairs), UniPoly((u + v) // 2 for u, v in pairs)


def q1_r1_closed(n: int) -> tuple[UniPoly, UniPoly]:
    """Closed binomial forms of the (1, 1, z, 1) families:
    (((z+3)^n - (z+1)^n) / 2, ((z+3)^n + (z+1)^n) / 2)."""
    return _binomial_halves(3, 1, n)


def partition_statistic(spec: SpecId, stats: PartitionStats) -> int:
    """The statistic value of one partition under the given substitution."""
    return sum(v * e for v, e in zip(spec.weights, stats))


def profile(spec: SpecId, family: str, n: int) -> dict[int, int]:
    """The nonzero coefficients of the specialized member, as ``{degree: count}``
    (recurrence path)."""
    return {d: c for d, c in enumerate(spec_family(spec, family, n).coeffs) if c}


def profile_from_oracle(spec: SpecId, family: str, n: int) -> dict[int, int]:
    """The same profile recomputed from the brute-force oracle polynomial.

    Groups the terms of ``oracle_poly`` at (3^n - 3)/2 (q-side) or
    (3^n - 1)/2 (r-side) by the statistic induced by the substitution;
    shares nothing with the recurrence path but the spec's weights.
    """
    _validate_family(family)
    index = (3 ** natural(n, 1) - (3 if family == "q" else 1)) // 2
    counts: dict[int, int] = {}
    for *stats, count in oracle_poly(index).terms():
        k = partition_statistic(spec, PartitionStats(*stats))
        counts[k] = counts.get(k, 0) + count
    return counts


# The claimed structure of the family members, in the order verify runs it:
# per spec, one row per claim, (family, claim, f(member, n) -> (found, claimed)),
# with the rows of one family adjacent.  The z1 members shifted by -2 are
# their closed forms at z - 2: ((z+1)^n -/+ (z-1)^n) / 2.
STRUCTURE: dict[SpecId, tuple[tuple[str, str, Callable[[UniPoly, int], tuple]], ...]] = {
    SpecId.Z1: (("q", "degree", lambda p, n: (p.degree(), n - 1)),
                ("q", "constant", lambda p, n: (p.coeff(0), (3**n - 1) // 2)),
                ("q", "leading", lambda p, n: (p.coeff(n - 1), n)),
                ("q", "shifted by -2",
                 lambda p, n: (p.shift_argument(-2), _binomial_halves(1, -1, n)[0])),
                ("r", "degree", lambda p, n: (p.degree(), n)),
                ("r", "constant", lambda p, n: (p.coeff(0), (3**n + 1) // 2)),
                ("r", "leading", lambda p, n: (p.coeff(n), 1)),
                ("r", "shifted by -2",
                 lambda p, n: (p.shift_argument(-2), _binomial_halves(1, -1, n)[1]))),
    SpecId.Z2: (("q", "degree", lambda p, n: (p.degree(), 3 * (n - 1))),
                ("q", "lowest degree", lambda p, n: (split_origin(p)[0], n - 1)),
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
    SpecId.Z0: (("q", "all-ones value", lambda p, n: (p.coeffs, scalar_qr(n)[:1])),
                ("r", "all-ones value", lambda p, n: (p.coeffs, scalar_qr(n)[1:]))),
}


def structural_check(spec: SpecId, n: int) -> Report:
    """Record each ``STRUCTURE`` row of ``spec`` that fails at index ``n`` as
    "<family> <claim> <found> != <claimed>", reading each family's member once."""
    n = natural(n, 1)
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
