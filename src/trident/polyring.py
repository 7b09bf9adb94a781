"""Exact polynomial arithmetic over arbitrary-precision integers.

Two representations, chosen for how the polynomials in this package behave:

* ``MultiPoly`` -- sparse polynomials in the four fixed variables
  ``w, x, y, z``.  Terms are stored in a dict keyed by a *packed exponent
  key*, one int per monomial ``w^i x^j y^k z^l``::

      (i + j + k + l) << 64 | i << 48 | j << 32 | k << 16 | l

  (the packed exponent vectors of Monagan and Pearce, 2007).  Each
  exponent has a 16-bit field, so no exponent may exceed ``EXP_LIMIT`` =
  65535; larger ones raise ValueError instead of wrapping into the
  neighbouring field.  The total degree sits in the top field, so integer
  order of the keys is exactly the canonical term order, graded
  lexicographic with priority ``w > x > y > z``, and the product of two
  monomials is the sum of their keys.  Zero coefficients are never stored,
  so two polynomials are mathematically equal iff their dicts are equal.

* ``UniPoly`` -- dense single-variable polynomials, a coefficient tuple
  indexed by degree with a nonzero leading coefficient (the zero
  polynomial is the empty tuple).

``MultiPoly.terms()`` and ``UniPoly.coeffs`` return what the constructors
take, int coefficients only (a float raises TypeError).  ``horner`` is the
one evaluator of a ``UniPoly``, and ``natural`` the one integer check.

All values are immutable after construction and every operation is a pure
function, so shared instances are safe to use concurrently.
"""

from __future__ import annotations

import math
import operator
from typing import Iterable, Union

VARIABLE_NAMES = ("w", "x", "y", "z")

EXP_LIMIT = 0xFFFF       # largest exponent of one variable; also the field mask
_DEGREE_SHIFT = 64       # the total degree sits above the four 16-bit fields
_FIELD_SHIFTS = (48, 32, 16, 0)
_Z_KEY = 1 << _DEGREE_SHIFT | 1   # adding it to a key multiplies the monomial by z


class NotDivisible(Exception):
    """Exact polynomial division failed; carries the offending remainder degree."""

    def __init__(self, remainder_degree: int):
        self.remainder_degree = remainder_degree
        super().__init__(f"not exactly divisible (remainder of degree {remainder_degree})")


class DivisionByZeroPolynomial(ZeroDivisionError):
    """Division by the zero polynomial."""


def _pack(i: int, j: int, k: int, l: int) -> int:
    # Callers guarantee 0 <= each exponent <= EXP_LIMIT.
    return (i + j + k + l) << _DEGREE_SHIFT | i << 48 | j << 32 | k << 16 | l


def _unpack(key: int) -> tuple[int, int, int, int]:
    return (key >> 48 & EXP_LIMIT, key >> 32 & EXP_LIMIT, key >> 16 & EXP_LIMIT,
            key & EXP_LIMIT)


def _too_large(exponent: int) -> ValueError:
    return ValueError(f"exponent {exponent} exceeds the limit {EXP_LIMIT}")


class _Poly:
    """The ring plumbing ``MultiPoly`` and ``UniPoly`` share.

    A subclass keeps its terms in its own canonical form, returned by
    ``_data()``: two polynomials of one class are equal iff their data are,
    and a polynomial is zero iff its data is empty.  It also supplies
    ``constant``, ``pretty``, ``_constant_term`` and ``_frozen`` (its data
    as a hashable value); the ring operations are its own.
    """

    __slots__ = ()

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls.constant(1)

    def _coerce(self, value):
        # An operand of the same class, or an int as a constant; else NotImplemented.
        if isinstance(value, type(self)):
            return value
        if isinstance(value, int):
            return self.constant(value)
        return NotImplemented

    def __bool__(self) -> bool:
        return bool(self._data())

    def __pow__(self, n: int):
        n = natural(n, name="exponent")
        result = self.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other: object) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._data() == other._data()

    def __hash__(self) -> int:
        # Equal values hash equal: a constant polynomial, zero included,
        # equals its int and so hashes as that int.
        c = self._constant_term()
        return hash(c) if self == c else hash(self._frozen())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.pretty()})"


def _power(name: str, e: int) -> str:
    # The body of name**e: empty at e = 0, the bare name at e = 1.
    return "" if e == 0 else name if e == 1 else f"{name}^{e}"


def _render(terms: Iterable[tuple[str, int]]) -> str:
    """Text of the terms given as (body, coefficient) pairs, highest first.

    A coefficient of magnitude 1 stays implicit except on the constant term
    (empty body), and no terms at all render as ``0``.
    """
    parts: list[str] = []
    for body, c in terms:
        mag = "" if body and abs(c) == 1 else str(abs(c))
        parts.append(("-" if c < 0 else "+" if parts else "") + mag + body)
    return "".join(parts) or "0"


class MultiPoly(_Poly):
    """Sparse 4-variable polynomial with integer coefficients.

    Construct from an iterable of ``(i, j, k, l, coeff)`` records; zero
    coefficients are dropped and exponents must lie in ``0..EXP_LIMIT``.
    Supports ``+ - * **`` with other ``MultiPoly`` values and with plain ints.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Iterable[tuple] = ()):
        data: dict[int, int] = {}
        for i, j, k, l, c in terms:
            i, j, k, l = (natural(e, name="exponent") for e in (i, j, k, l))
            top = max(i, j, k, l)
            if top > EXP_LIMIT:
                raise _too_large(top)
            c = operator.index(c)
            if c == 0:
                continue
            key = _pack(i, j, k, l)
            new = data.get(key, 0) + c
            if new:
                data[key] = new
            elif key in data:
                del data[key]
        self._terms = data

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, c: int) -> "MultiPoly":
        c = operator.index(c)
        return cls._from_dict({0: c} if c else {})

    @classmethod
    def variable(cls, name: str) -> "MultiPoly":
        """The polynomial consisting of the single variable ``w``, ``x``, ``y`` or ``z``."""
        if name not in VARIABLE_NAMES:
            raise ValueError(f"variable must be w, x, y or z, not {name!r}")
        return cls._from_dict({_pack(*(int(v == name) for v in VARIABLE_NAMES)): 1})

    @classmethod
    def _from_dict(cls, data: dict[int, int]) -> "MultiPoly":
        p = cls.__new__(cls)
        p._terms = data
        return p

    # -- inspection --------------------------------------------------------

    def _data(self) -> dict[int, int]:
        return self._terms

    def _constant_term(self) -> int:
        return self._terms.get(0, 0)

    def _frozen(self) -> frozenset:
        return frozenset(self._terms.items())

    def __len__(self) -> int:
        return len(self._terms)

    def terms(self) -> tuple[tuple[int, int, int, int, int], ...]:
        """The constructor's ``(i, j, k, l, coeff)`` records, in increasing graded-lex order."""
        terms = self._terms
        return tuple((*_unpack(key), terms[key]) for key in sorted(terms))

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: Union["MultiPoly", int]) -> "MultiPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        big, small = self._terms, other._terms
        if len(big) < len(small):
            big, small = small, big
        out = dict(big)
        for key, c in small.items():
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
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._terms)
        for key, c in other._terms.items():
            new = out.get(key, 0) - c
            if new:
                out[key] = new
            elif key in out:
                del out[key]
        return MultiPoly._from_dict(out)

    def __rsub__(self, other: Union["MultiPoly", int]) -> "MultiPoly":
        return -self + other

    def __mul__(self, other: Union["MultiPoly", int]) -> "MultiPoly":
        if isinstance(other, int):
            if other == 0:
                return MultiPoly.zero()
            return MultiPoly._from_dict({k: c * other for k, c in self._terms.items()})
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return MultiPoly.sum_of_products(((self, other),))

    __rmul__ = __mul__

    @classmethod
    def sum_of_products(cls, pairs: Iterable[tuple["MultiPoly", "MultiPoly"]]) -> "MultiPoly":
        """The sum of ``a * b`` over the ``(a, b)`` pairs, accumulated in one term dict.

        The smaller operand of each pair is the outer loop.  A coefficient
        that cancels stays until one sweep at the end, run only if one did.
        """
        out: dict[int, int] = {}
        for a, b in pairs:
            small, big = a._terms, b._terms
            if len(small) > len(big):
                small, big = big, small
            if not small:
                continue
            _check_product_range(small, big)
            rows, big_items = iter(small.items()), big.items()
            if not out:
                # the first row: its keys ka + kb are distinct
                ka, ca = next(rows)
                out = ({ka + kb: cb for kb, cb in big_items} if ca == 1
                       else {ka + kb: ca * cb for kb, cb in big_items})
            get = out.get
            for ka, ca in rows:
                if ca == 1:
                    for kb, cb in big_items:
                        key = ka + kb
                        out[key] = get(key, 0) + cb
                else:
                    for kb, cb in big_items:
                        key = ka + kb
                        out[key] = get(key, 0) + ca * cb
        if 0 in out.values():
            out = {key: c for key, c in out.items() if c}
        return cls._from_dict(out)

    # -- presentation ------------------------------------------------------

    def to_records(self) -> list[list]:
        """Canonical serialization: ``[i, j, k, l, coeff-as-decimal-string]`` per term."""
        return [[i, j, k, l, str(c)] for i, j, k, l, c in self.terms()]

    def pretty(self) -> str:
        """Readable rendering, highest graded-lex term first, e.g. ``wxy+wz+xz+w+x+y``."""
        return _render(("".join(map(_power, VARIABLE_NAMES, exps)), c)
                       for *exps, c in reversed(self.terms()))


def _check_product_range(a: dict[int, int], b: dict[int, int]) -> None:
    # Adding two keys is a monomial product only while no field overflows.
    # Total degrees bound every exponent, so one comparison clears almost
    # every product; only past it are the four fields checked one by one.
    if (max(a) >> _DEGREE_SHIFT) + (max(b) >> _DEGREE_SHIFT) <= EXP_LIMIT:
        return
    for shift in _FIELD_SHIFTS:
        top = (max(k >> shift & EXP_LIMIT for k in a)
               + max(k >> shift & EXP_LIMIT for k in b))
        if top > EXP_LIMIT:
            raise _too_large(top)


def mp_divide_exact(num: MultiPoly, den: MultiPoly) -> MultiPoly:
    """Exact multivariate quotient over the integers.

    Repeatedly cancels the graded-lex leading term of the remainder against
    the leading term of ``den``.  When ``num = den * q`` with integer ``q``
    this reproduces ``q`` exactly; any failure to cancel proves that no such
    ``q`` exists, and NotDivisible (with the remainder's total degree) is
    raised.
    """
    if not den:
        raise DivisionByZeroPolynomial("division by zero polynomial")
    den_terms = den._terms
    lead = max(den_terms)
    lead_coeff = den_terms[lead]
    low = _unpack(lead)
    # A quotient monomial with an exponent above ``high`` would push some
    # term of its product with den past EXP_LIMIT.
    high = tuple(EXP_LIMIT + l - max(k >> s & EXP_LIMIT for k in den_terms)
                 for s, l in zip(_FIELD_SHIFTS, low))
    from heapq import heapify, heappop, heappush
    quot: dict[int, int] = {}
    rem = dict(num._terms)
    # A max-heap of the remainder's keys, negated.  Each step adds keys below
    # the one it cancels, so a key gone from the remainder is just skipped.
    heap = [-key for key in rem]
    heapify(heap)
    while rem:
        re = -heappop(heap)
        rc = rem.get(re)
        if rc is None:
            continue
        exps = _unpack(re)
        # Field by field: the sign of the whole difference re - lead cannot
        # tell whether the leading monomial divides re.
        if any(map(int.__lt__, exps, low)) or rc % lead_coeff:
            raise NotDivisible(re >> _DEGREE_SHIFT)
        if any(map(int.__gt__, exps, high)):
            raise _too_large(max(e - h for e, h in zip(exps, high)) + EXP_LIMIT)
        qc = rc // lead_coeff
        shift = re - lead
        quot[shift] = qc
        for key, c in den_terms.items():
            key += shift
            if key in rem:
                new = rem[key] - qc * c
                if new:
                    rem[key] = new
                else:
                    del rem[key]
            else:
                rem[key] = -qc * c
                heappush(heap, -key)
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


class UniPoly(_Poly):
    """Dense single-variable polynomial with integer coefficients.

    ``coeffs[k]`` is the coefficient of degree ``k``; the leading
    coefficient is nonzero unless the polynomial is zero (empty tuple).
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = [operator.index(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self._coeffs = tuple(cs)

    @classmethod
    def constant(cls, c: int) -> "UniPoly":
        return cls((c,))

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

    def _data(self) -> tuple[int, ...]:
        return self._coeffs

    def _constant_term(self) -> int:
        return self.coeff(0)

    _frozen = _data

    def is_palindromic(self) -> bool:
        """True iff the coefficient list equals its own reversal (and nonzero)."""
        return bool(self._coeffs) and self._coeffs == self._coeffs[::-1]

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: Union["UniPoly", int]) -> "UniPoly":
        other = self._coerce(other)
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
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: Union["UniPoly", int]) -> "UniPoly":
        return -self + other

    def __mul__(self, other: Union["UniPoly", int]) -> "UniPoly":
        if isinstance(other, int):
            return UniPoly(tuple(c * other for c in self._coeffs))
        if not isinstance(other, UniPoly):
            return NotImplemented
        return UniPoly.sum_of_products(((self, other),))

    __rmul__ = __mul__

    @classmethod
    def sum_of_products(cls, pairs: Iterable[tuple["UniPoly", "UniPoly"]]) -> "UniPoly":
        """The sum of ``a * b`` over the ``(a, b)`` pairs, accumulated in one coefficient list.

        Each coefficient of the shorter operand adds its multiple of the
        longer one to a slice of the list.
        """
        out: list[int] = []
        for a, b in pairs:
            short, long = a._coeffs, b._coeffs
            if len(short) > len(long):
                short, long = long, short
            width = len(long)
            out += [0] * (len(short) + width - 1 - len(out))
            for i, c in enumerate(short):
                if c == 1:
                    out[i:i + width] = [x + y for x, y in zip(out[i:i + width], long)]
                elif c:
                    out[i:i + width] = [x + c * y for x, y in zip(out[i:i + width], long)]
        return cls(out)

    def shift_argument(self, offset: int) -> "UniPoly":
        """Replace the variable by (variable + offset), by Horner over ``UniPoly``."""
        # horner starts from the int 0, which it would return for the zero polynomial
        return horner(self._coeffs, UniPoly((offset, 1))) if self else self

    def derivative(self) -> "UniPoly":
        return UniPoly(tuple(k * c for k, c in enumerate(self._coeffs) if k))

    # -- presentation ------------------------------------------------------

    def to_strings(self) -> list[str]:
        """Serialization: decimal coefficient strings ascending by degree."""
        return [str(c) for c in self._coeffs]

    def pretty(self) -> str:
        """Readable rendering in ``z``, highest degree first, e.g. ``3z^2+12z+13``."""
        cs = self._coeffs
        return _render((_power("z", k), cs[k]) for k in reversed(range(len(cs))) if cs[k])


def up_divide_exact(num: UniPoly, den: UniPoly) -> UniPoly:
    """Exact quotient ``q`` with ``num = den * q`` over the integers.

    Succeeds iff the rational quotient exists and has integer coefficients;
    otherwise raises NotDivisible carrying the nonzero remainder's degree.
    """
    if not den:
        raise DivisionByZeroPolynomial("division by zero polynomial")
    if not num:
        return UniPoly.zero()
    dn, dd = num.degree(), den.degree()
    ds = den.coeffs
    lead = ds[dd]
    rem = list(num.coeffs)
    quot = [0] * (dn - dd + 1)
    for k in range(dn - dd, -1, -1):
        c = rem[k + dd]
        if c == 0:
            continue
        if c % lead != 0:
            raise NotDivisible(k + dd)
        q = c // lead
        quot[k] = q
        for i, d in enumerate(ds):
            rem[k + i] -= q * d
    if any(rem):
        raise NotDivisible(UniPoly(rem).degree())
    return UniPoly(quot)


def split_origin(p: UniPoly) -> tuple[int, UniPoly]:
    """``(k, q)`` with ``p = z^k * q`` and ``q(0) != 0`` for the nonzero ``p``: ``k``
    is the multiplicity of the zero of ``p`` at the origin."""
    if not p:
        raise ValueError("the zero polynomial has no multiplicity at the origin")
    k = next(d for d, c in enumerate(p.coeffs) if c)
    return k, UniPoly(p.coeffs[k:])


def natural(n, low: int = 0, name: str = "n") -> int:
    """``n`` as an int, the one integer check: a non-integer raises TypeError
    (an int-like is taken as its int) and a value below ``low`` ValueError."""
    n = operator.index(n)
    if n < low:
        raise ValueError(f"{name} must be " + (f"at least {low}" if low else "non-negative"))
    return n


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


def poly_substitute(p: MultiPoly, weights: tuple[int, int, int, int]) -> UniPoly:
    """Image of ``p`` under w, x, y, z -> t^a, t^b, t^c, t^d, for ``weights`` (a, b, c, d).

    One pass over the packed keys: the coefficient of ``w^i x^j y^k z^l``
    is added at degree ``a*i + b*j + c*k + d*l``.
    """
    if len(weights) != 4:
        raise ValueError("substitution weights must be four non-negative integers")
    weights = [natural(w, name="weight") for w in weights]
    out: dict[int, int] = {}
    for key, coeff in p._terms.items():
        deg = sum(map(int.__mul__, weights, _unpack(key)))
        out[deg] = out.get(deg, 0) + coeff
    return UniPoly(out.get(d, 0) for d in range(max(out, default=-1) + 1))


def mp_pack_z(p: MultiPoly, width: int) -> MultiPoly:
    """Image of ``p`` under z -> 2^width, the Kronecker substitution of z: each
    z^l moves into its term's coefficient as 2^(width*l), and the keys keep w,
    x and y.  While every coefficient is nonnegative and below 2^width, no
    slot of a product of images carries, and ``mp_unpack_z`` inverts it."""
    out: dict[int, int] = {}
    get = out.get
    for key, c in p._terms.items():
        l = key & EXP_LIMIT
        key -= l * _Z_KEY
        out[key] = get(key, 0) + (c << width * l)
    return MultiPoly._from_dict(out)


def mp_unpack_z(p: MultiPoly, width: int) -> MultiPoly:
    """The inverse of ``mp_pack_z`` on nonnegative coefficients: slot l of each
    coefficient becomes the term at z^l."""
    terms = p._terms
    top = (max(map(int.bit_length, terms.values()), default=0) - 1) // width
    if top > EXP_LIMIT:   # before its slot would carry into the field of y
        raise _too_large(top)
    mask = (1 << width) - 1
    out: dict[int, int] = {}
    for key, c in terms.items():
        while c:
            slot = c & mask
            if slot:
                out[key] = slot
            c >>= width
            key += _Z_KEY
    return MultiPoly._from_dict(out)
