"""Exact polynomial arithmetic over arbitrary-precision integers.

Two representations, chosen for how the polynomials in this package behave:

* ``MultiPoly`` -- sparse polynomials in the four fixed variables
  ``w, x, y, z``.  Terms are stored in a dict keyed by the exponent
  quadruple ``(exp_w, exp_x, exp_y, exp_z)``; zero coefficients are never
  stored, so two polynomials are mathematically equal iff their dicts are
  equal.  The canonical term *order* (used for serialization and display)
  is graded lexicographic with priority ``w > x > y > z``.

* ``UniPoly`` -- dense single-variable polynomials, a coefficient tuple
  indexed by degree with a nonzero leading coefficient (the zero
  polynomial is the empty tuple).

All values are immutable after construction and every operation is a pure
function, so shared instances are safe to use concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, NamedTuple, Union

Exponents = tuple[int, int, int, int]

VARIABLE_NAMES = ("w", "x", "y", "z")


class NotDivisible(Exception):
    """Exact polynomial division failed; carries the offending remainder degree."""

    def __init__(self, remainder_degree: int):
        self.remainder_degree = remainder_degree
        super().__init__(f"not exactly divisible (remainder of degree {remainder_degree})")


class DivisionByZeroPolynomial(ZeroDivisionError):
    """Division by the zero polynomial."""


class Monomial4(NamedTuple):
    """One term of a ``MultiPoly``: exponents of ``w, x, y, z`` plus coefficient."""

    exp_w: int
    exp_x: int
    exp_y: int
    exp_z: int
    coeff: int

    @property
    def exponents(self) -> Exponents:
        return (self.exp_w, self.exp_x, self.exp_y, self.exp_z)


def _grlex_key(exps: Exponents) -> tuple[int, Exponents]:
    # Graded lexicographic: compare total degree first, then lex on (w, x, y, z).
    return (exps[0] + exps[1] + exps[2] + exps[3], exps)


class MultiPoly:
    """Sparse 4-variable polynomial with integer coefficients.

    Construct from a mapping ``{(i, j, k, l): coeff}`` or an iterable of
    ``(i, j, k, l, coeff)`` records; zero coefficients are dropped and
    exponents must be non-negative.  Supports ``+ - * **`` with other
    ``MultiPoly`` values and with plain ints.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Union[Mapping[Exponents, int], Iterable[tuple], None] = None):
        data: dict[Exponents, int] = {}
        if terms is not None:
            items: Iterable[tuple]
            if isinstance(terms, Mapping):
                items = ((e[0], e[1], e[2], e[3], c) for e, c in terms.items())
            else:
                items = terms
            for i, j, k, l, c in items:
                if i < 0 or j < 0 or k < 0 or l < 0:
                    raise ValueError("negative exponent in monomial")
                c = int(c)
                if c == 0:
                    continue
                key = (i, j, k, l)
                new = data.get(key, 0) + c
                if new:
                    data[key] = new
                elif key in data:
                    del data[key]
        self._terms = data

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "MultiPoly":
        return cls()

    @classmethod
    def one(cls) -> "MultiPoly":
        return cls.constant(1)

    @classmethod
    def constant(cls, c: int) -> "MultiPoly":
        p = cls.__new__(cls)
        p._terms = {(0, 0, 0, 0): int(c)} if c else {}
        return p

    @classmethod
    def variable(cls, name: str) -> "MultiPoly":
        """The polynomial consisting of the single variable ``w``, ``x``, ``y`` or ``z``."""
        idx = VARIABLE_NAMES.index(name)
        exps = [0, 0, 0, 0]
        exps[idx] = 1
        p = cls.__new__(cls)
        p._terms = {tuple(exps): 1}
        return p

    @classmethod
    def _from_dict(cls, data: dict[Exponents, int]) -> "MultiPoly":
        p = cls.__new__(cls)
        p._terms = data
        return p

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def total_degree(self) -> int:
        """Maximal total degree of a term; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(i + j + k + l for (i, j, k, l) in self._terms)

    def coefficient(self, exponents: Exponents) -> int:
        return self._terms.get(tuple(exponents), 0)

    def terms(self) -> tuple[Monomial4, ...]:
        """All terms in increasing graded-lex order."""
        return tuple(
            Monomial4(*exps, self._terms[exps])
            for exps in sorted(self._terms, key=_grlex_key)
        )

    def __iter__(self) -> Iterator[Monomial4]:
        return iter(self.terms())

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: Union["MultiPoly", int]) -> "MultiPoly":
        other = _coerce_mp(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._terms)
        for key, c in other._terms.items():
            new = out.get(key, 0) + c
            if new:
                out[key] = new
            elif key in out:
                del out[key]
        return MultiPoly._from_dict(out)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._from_dict({k: -c for k, c in self._terms.items()})

    def __sub__(self, other: Union["MultiPoly", int]) -> "MultiPoly":
        other = _coerce_mp(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: Union["MultiPoly", int]) -> "MultiPoly":
        return _coerce_mp(other) + (-self)

    def __mul__(self, other: Union["MultiPoly", int]) -> "MultiPoly":
        if isinstance(other, int):
            if other == 0:
                return MultiPoly.zero()
            return MultiPoly._from_dict({k: c * other for k, c in self._terms.items()})
        if not isinstance(other, MultiPoly):
            return NotImplemented
        out: dict[Exponents, int] = {}
        get = out.get
        for (a0, a1, a2, a3), ca in self._terms.items():
            for (b0, b1, b2, b3), cb in other._terms.items():
                key = (a0 + b0, a1 + b1, a2 + b2, a3 + b3)
                new = get(key, 0) + ca * cb
                if new:
                    out[key] = new
                elif key in out:
                    del out[key]
        return MultiPoly._from_dict(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MultiPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = MultiPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self._terms == MultiPoly.constant(other)._terms
        if isinstance(other, MultiPoly):
            return self._terms == other._terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    # -- maps out of the ring ----------------------------------------------

    def evaluate(self, w, x, y, z):
        """Evaluate at numeric arguments (int, float or complex)."""
        total = 0
        for (i, j, k, l), c in self._terms.items():
            total += c * w**i * x**j * y**k * z**l
        return total

    def substitute(self, spec: "SpecMap") -> "UniPoly":
        """Image under the ring homomorphism sending each variable to a ``UniPoly``."""
        return poly_substitute(self, spec)

    def divide_exact(self, den: "MultiPoly") -> "MultiPoly":
        """Exact quotient in the integer ring; raises NotDivisible otherwise."""
        return mp_divide_exact(self, den)

    # -- presentation ------------------------------------------------------

    def to_records(self) -> list[list]:
        """Canonical serialization: ``[i, j, k, l, coeff-as-decimal-string]`` per term."""
        return [[m.exp_w, m.exp_x, m.exp_y, m.exp_z, str(m.coeff)] for m in self.terms()]

    def pretty(self) -> str:
        """Readable rendering, highest graded-lex term first, e.g. ``wxy+wz+xz+w+x+y``."""
        if not self._terms:
            return "0"
        parts = []
        for mono in reversed(self.terms()):
            body = ""
            for name, e in zip(VARIABLE_NAMES, mono.exponents):
                if e == 1:
                    body += name
                elif e > 1:
                    body += f"{name}^{e}"
            c = mono.coeff
            if body:
                mag = "" if abs(c) == 1 else str(abs(c))
            else:
                mag = str(abs(c))
            head = "-" if c < 0 else ("+" if parts else "")
            parts.append(f"{head}{mag}{body}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"MultiPoly({self.pretty()})"


def _coerce_mp(value) -> MultiPoly:
    if isinstance(value, MultiPoly):
        return value
    if isinstance(value, int):
        return MultiPoly.constant(value)
    return NotImplemented


def mp_divide_exact(num: MultiPoly, den: MultiPoly) -> MultiPoly:
    """Exact multivariate quotient over the integers.

    Repeatedly cancels the graded-lex leading term of the remainder against
    the leading term of ``den``.  When ``num = den * q`` with integer ``q``
    this reproduces ``q`` exactly; any failure to cancel proves that no such
    ``q`` exists, and NotDivisible (with the remainder's total degree) is
    raised.
    """
    if den.is_zero():
        raise DivisionByZeroPolynomial("division by zero polynomial")
    den_terms = den.terms()
    lead = den_terms[-1]
    le = lead.exponents
    quot: dict[Exponents, int] = {}
    rem = dict(num._terms)
    while rem:
        re = max(rem, key=_grlex_key)
        rc = rem[re]
        diff = (re[0] - le[0], re[1] - le[1], re[2] - le[2], re[3] - le[3])
        if min(diff) < 0 or rc % lead.coeff != 0:
            raise NotDivisible(sum(re))
        qc = rc // lead.coeff
        quot[diff] = qc
        for mono in den_terms:
            key = (
                diff[0] + mono.exp_w,
                diff[1] + mono.exp_x,
                diff[2] + mono.exp_y,
                diff[3] + mono.exp_z,
            )
            new = rem.get(key, 0) - qc * mono.coeff
            if new:
                rem[key] = new
            elif key in rem:
                del rem[key]
    return MultiPoly._from_dict(quot)


def horner(coeffs, point):
    """Horner evaluation of ``sum coeffs[k] * point**k``, lowest degree first.

    Works in the arithmetic of its arguments: exact for int coefficients at
    an int point, floating point for float or complex ones.
    """
    acc = 0
    for c in reversed(coeffs):
        acc = acc * point + c
    return acc


class UniPoly:
    """Dense single-variable polynomial with integer coefficients.

    ``coeffs[k]`` is the coefficient of degree ``k``; the leading
    coefficient is nonzero unless the polynomial is zero (empty tuple).
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self._coeffs = tuple(cs)

    @classmethod
    def zero(cls) -> "UniPoly":
        return cls()

    @classmethod
    def one(cls) -> "UniPoly":
        return cls((1,))

    @classmethod
    def constant(cls, c: int) -> "UniPoly":
        return cls((c,))

    @classmethod
    def x(cls) -> "UniPoly":
        """The identity polynomial (the bare variable)."""
        return cls((0, 1))

    @classmethod
    def monomial(cls, degree: int, coeff: int = 1) -> "UniPoly":
        if degree < 0:
            raise ValueError("degree must be non-negative")
        return cls((0,) * degree + (coeff,))

    # -- inspection --------------------------------------------------------

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self._coeffs

    def coeff(self, degree: int) -> int:
        if 0 <= degree < len(self._coeffs):
            return self._coeffs[degree]
        return 0

    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self._coeffs) - 1

    def is_zero(self) -> bool:
        return not self._coeffs

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def is_palindromic(self) -> bool:
        """True iff the coefficient list equals its own reversal (and nonzero)."""
        return bool(self._coeffs) and self._coeffs == self._coeffs[::-1]

    def l1_norm(self) -> int:
        return sum(abs(c) for c in self._coeffs)

    def max_abs_coeff(self) -> int:
        return max((abs(c) for c in self._coeffs), default=0)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: Union["UniPoly", int]) -> "UniPoly":
        other = _coerce_up(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UniPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "UniPoly":
        return UniPoly(tuple(-c for c in self._coeffs))

    def __sub__(self, other: Union["UniPoly", int]) -> "UniPoly":
        other = _coerce_up(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: Union["UniPoly", int]) -> "UniPoly":
        return _coerce_up(other) + (-self)

    def __mul__(self, other: Union["UniPoly", int]) -> "UniPoly":
        if isinstance(other, int):
            return UniPoly(tuple(c * other for c in self._coeffs))
        if not isinstance(other, UniPoly):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if not a or not b:
            return UniPoly.zero()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return UniPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "UniPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = UniPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self._coeffs == UniPoly.constant(other)._coeffs
        if isinstance(other, UniPoly):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._coeffs)

    # -- division, evaluation, composition ----------------------------------

    def divide_exact(self, den: "UniPoly") -> "UniPoly":
        """Exact quotient with integer coefficients; see up_divide_exact."""
        return up_divide_exact(self, den)

    def evaluate(self, point):
        """Horner evaluation at an int, float or complex point."""
        return horner(self._coeffs, point)

    def compose(self, inner: "UniPoly") -> "UniPoly":
        """The composition self(inner(t)), exact."""
        acc = UniPoly.zero()
        for c in reversed(self._coeffs):
            acc = acc * inner + c
        return acc

    def shift_argument(self, offset: int) -> "UniPoly":
        """Replace the variable by (variable + offset)."""
        return self.compose(UniPoly((offset, 1)))

    def derivative(self) -> "UniPoly":
        return UniPoly(tuple(k * c for k, c in enumerate(self._coeffs) if k))

    # -- presentation ------------------------------------------------------

    def to_strings(self) -> list[str]:
        """Serialization: decimal coefficient strings ascending by degree."""
        return [str(c) for c in self._coeffs]

    def pretty(self, var: str = "z") -> str:
        """Readable rendering, highest degree first, e.g. ``3z^2+12z+13``."""
        if not self._coeffs:
            return "0"
        parts = []
        for k in range(len(self._coeffs) - 1, -1, -1):
            c = self._coeffs[k]
            if c == 0:
                continue
            if k == 0:
                body = ""
                mag = str(abs(c))
            else:
                body = var if k == 1 else f"{var}^{k}"
                mag = "" if abs(c) == 1 else str(abs(c))
            head = "-" if c < 0 else ("+" if parts else "")
            parts.append(f"{head}{mag}{body}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"UniPoly({self.pretty()})"


def _coerce_up(value) -> UniPoly:
    if isinstance(value, UniPoly):
        return value
    if isinstance(value, int):
        return UniPoly.constant(value)
    return NotImplemented


def up_divide_exact(num: UniPoly, den: UniPoly) -> UniPoly:
    """Exact quotient ``q`` with ``num = den * q`` over the integers.

    Succeeds iff the rational quotient exists and has integer coefficients;
    otherwise raises NotDivisible carrying the nonzero remainder's degree.
    """
    if den.is_zero():
        raise DivisionByZeroPolynomial("division by zero polynomial")
    if num.is_zero():
        return UniPoly.zero()
    dn, dd = num.degree(), den.degree()
    lead = den.coeff(dd)
    rem = list(num.coeffs)
    quot = [0] * (dn - dd + 1) if dn >= dd else []
    for k in range(dn - dd, -1, -1):
        c = rem[k + dd]
        if c == 0:
            continue
        if c % lead != 0:
            raise NotDivisible(k + dd)
        q = c // lead
        quot[k] = q
        for i in range(dd + 1):
            rem[k + i] -= q * den.coeff(i)
    for d in range(len(rem) - 1, -1, -1):
        if rem[d]:
            raise NotDivisible(d)
    return UniPoly(quot)


def _primitive(p: UniPoly) -> UniPoly:
    # Divide out the integer content and make the leading coefficient positive.
    cs = p.coeffs
    if not cs:
        return p
    g = math.gcd(*cs)
    if cs[-1] < 0:
        g = -g
    return p if g == 1 else UniPoly(c // g for c in cs)


def _pseudo_remainder(a: UniPoly, b: UniPoly) -> UniPoly:
    # The remainder of c*a by b for some nonzero integer c, all in the integers:
    # each step scales the remainder just enough to cancel its leading term.
    r, bs = list(a.coeffs), b.coeffs
    db, lead = len(bs) - 1, bs[-1]
    while len(r) > db:
        top = r.pop()
        g = math.gcd(top, lead)
        scale, factor = lead // g, top // g
        if scale != 1:
            r = [c * scale for c in r]
        shift = len(r) - db
        for i in range(db):
            r[shift + i] -= factor * bs[i]
        while r and not r[-1]:
            r.pop()
    return UniPoly(r)


def up_gcd(p: UniPoly, q: UniPoly) -> UniPoly:
    """Greatest common divisor over the rationals, returned primitive over the integers.

    Primitive polynomial remainder sequence (Collins 1967; Brown and Traub
    1971): every pseudo-remainder is divided by its integer content, so the
    whole computation stays in the integers with controlled coefficient
    growth.  The result has positive leading coefficient; it is the zero
    polynomial only when both inputs are zero, and 1 for coprime inputs.
    """
    a, b = _primitive(p), _primitive(q)
    while b:
        a, b = b, _primitive(_pseudo_remainder(a, b))
    return a


def up_square_free(p: UniPoly) -> UniPoly:
    """The square-free part of ``p``: same zero set, every zero simple.

    Divides ``p`` exactly by the primitive gcd(p, p'); by Gauss's lemma the
    quotient has integer coefficients.  The result is primitive with
    positive leading coefficient.
    """
    if p.degree() < 1:
        raise ValueError("polynomial must have degree at least 1")
    return _primitive(up_divide_exact(p, up_gcd(p, p.derivative())))


def binomial_power(constant: int, n: int) -> UniPoly:
    """The expansion of (variable + constant)**n via binomial coefficients."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return UniPoly(tuple(math.comb(n, j) * constant ** (n - j) for j in range(n + 1)))


@dataclass(frozen=True)
class SpecMap:
    """Assignment of each of w, x, y, z to a nonzero ``UniPoly`` in one fresh variable."""

    w: UniPoly
    x: UniPoly
    y: UniPoly
    z: UniPoly

    def __post_init__(self):
        for name, image in zip(VARIABLE_NAMES, self.images):
            if image.is_zero():
                raise ValueError(f"image of {name} must be a nonzero polynomial")

    @property
    def images(self) -> tuple[UniPoly, UniPoly, UniPoly, UniPoly]:
        return (self.w, self.x, self.y, self.z)

    @classmethod
    def from_shorthand(cls, spec: Iterable) -> "SpecMap":
        """Build from four entries that are each an int or a ``UniPoly``."""
        images = []
        for entry in spec:
            images.append(entry if isinstance(entry, UniPoly) else UniPoly.constant(entry))
        return cls(*images)


def poly_substitute(p: MultiPoly, s: SpecMap) -> UniPoly:
    """Image of ``p`` under the substitution homomorphism given by ``s``.

    Powers of the four images are cached across terms, so repeated exponents
    cost one multiplication each.
    """
    pows: list[list[UniPoly]] = [[UniPoly.one()] for _ in range(4)]

    def power(var: int, e: int) -> UniPoly:
        cache = pows[var]
        while len(cache) <= e:
            cache.append(cache[-1] * s.images[var])
        return cache[e]

    total = UniPoly.zero()
    for mono in p.terms():
        term = UniPoly.constant(mono.coeff)
        for var, e in enumerate(mono.exponents):
            if e:
                term = term * power(var, e)
        total = total + term
    return total
