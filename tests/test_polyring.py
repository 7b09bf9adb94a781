"""Ring arithmetic, substitution, division and evaluation checks.

Products are verified against a naive double-loop convolution oracle that
shares no code with the package, and the ring axioms are property-tested
on random small polynomials.
"""

import cmath

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_reference as ref
from trident.polyring import (EXP_LIMIT, DivisionByZeroPolynomial, MultiPoly,
                              NotDivisible, UniPoly, horner, mp_divide_exact,
                              poly_substitute, up_divide_exact, up_gcd, up_square_free)


# ---------------------------------------------------------------- oracles

def naive_mul(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """O(mn) convolution over term pairs, accumulated independently."""
    acc: dict = {}
    for *ea, ca in a.terms():
        for *eb, cb in b.terms():
            key = tuple(x + y for x, y in zip(ea, eb))
            acc[key] = acc.get(key, 0) + ca * cb
    return MultiPoly((*key, c) for key, c in acc.items())


def naive_up_mul(a: UniPoly, b: UniPoly) -> UniPoly:
    """O(mn) convolution of the coefficient tuples, accumulated by degree."""
    acc: dict = {}
    for i, ca in enumerate(a.coeffs):
        for j, cb in enumerate(b.coeffs):
            acc[i + j] = acc.get(i + j, 0) + ca * cb
    return UniPoly(acc.get(d, 0) for d in range(max(acc, default=-1) + 1))


def naive_substitute(p: MultiPoly, weights) -> UniPoly:
    """Term-wise substitution by repeated multiplication with the images t^weight."""
    images = [UniPoly((0,) * a + (1,)) for a in weights]
    total = UniPoly.zero()
    for *exps, c in p.terms():
        term = UniPoly.constant(c)
        for image, e in zip(images, exps):
            for _ in range(e):
                term = term * image
        total = total + term
    return total


# ------------------------------------------------------------- strategies

exponents = st.integers(min_value=0, max_value=4)
coeffs = st.integers(min_value=-9, max_value=9)

multi_polys = st.lists(
    st.tuples(exponents, exponents, exponents, exponents, coeffs),
    min_size=0, max_size=6,
).map(MultiPoly)

# small exponents and exponents at the top of the representable range
wide_exponents = st.one_of(exponents, st.integers(min_value=EXP_LIMIT - 4, max_value=EXP_LIMIT))

uni_polys = st.lists(coeffs, min_size=0, max_size=7).map(UniPoly)

weight_vectors = st.tuples(*[st.integers(min_value=0, max_value=3)] * 4)

V = {name: MultiPoly.variable(name) for name in "wxyz"}


# ------------------------------------------------------------- MultiPoly

class TestMultiPolyBasics:
    def test_mul_identity(self):
        p = V["w"] + V["x"] + V["y"]
        assert p * MultiPoly.one() == p

    def test_square_expansion_by_hand(self):
        p = V["w"] + V["x"] + V["y"]
        expected = MultiPoly([
            (2, 0, 0, 0, 1), (1, 1, 0, 0, 2), (1, 0, 1, 0, 2),
            (0, 2, 0, 0, 1), (0, 1, 1, 0, 2), (0, 0, 2, 0, 1),
        ])
        assert p * p == expected

    def test_product_against_naive_convolution(self):
        s1 = V["w"] + V["x"] + V["y"]
        s2 = V["w"] * V["x"] + V["w"] * V["y"] + V["x"] * V["y"] + V["z"]
        assert s1 * s2 == naive_mul(s1, s2)
        # the product contains the wxy term with coefficient 1 + 1 + 1 = 3
        assert (1, 1, 1, 0, 3) in (s1 * s2).terms()

    def test_terms_strictly_increasing_graded_lex(self):
        p = MultiPoly([(0, 0, 0, 1, 7), (2, 0, 0, 0, 1), (1, 1, 0, 0, -2)])
        keys = [(sum(t[:4]), t[:4]) for t in p.terms()]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    def test_zero_coefficients_never_stored(self):
        p = MultiPoly([(1, 0, 0, 0, 5), (1, 0, 0, 0, -5)])
        assert not p and len(p) == 0

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            MultiPoly([(-1, 0, 0, 0, 1)])

    def test_serialization_records(self):
        p = MultiPoly([(1, 1, 0, 1, 3), (0, 0, 0, 0, -2)])
        assert p.to_records() == [[0, 0, 0, 0, "-2"], [1, 1, 0, 1, "3"]]

    def test_power(self):
        p = V["w"] + 1
        assert p**0 == MultiPoly.one()
        assert p**3 == p * p * p


class TestExponentRange:
    def test_constructor_limit(self):
        top = MultiPoly([(0, EXP_LIMIT, 0, 0, 3)])
        assert top.terms()[0][:4] == (0, 65535, 0, 0)
        assert max(sum(t[:4]) for t in top.terms()) == 65535
        for exps in ((65536, 0, 0, 0), (0, 0, 0, 65536)):
            with pytest.raises(ValueError, match="65535"):
                MultiPoly([(*exps, 1)])
        with pytest.raises(ValueError, match="65535"):
            MultiPoly([(0, 0, 70000, 0, 1)])

    def test_power_and_product_limit(self):
        assert (V["w"] ** 65535).terms()[0][:4] == (65535, 0, 0, 0)
        for name in "wxyz":
            with pytest.raises(ValueError, match="65535"):
                V[name] ** 65536
        with pytest.raises(ValueError, match="65535"):
            V["w"] ** 70000
        with pytest.raises(ValueError, match="65535"):
            V["z"] ** 40000 * (V["z"] ** 30000 + 1)
        # total degree past the limit is fine while every exponent stays in range
        big = V["w"] ** 40000 * (V["x"] ** 40000 + V["y"])
        assert big.terms()[-1][:4] == (40000, 40000, 0, 0)
        assert max(sum(t[:4]) for t in big.terms()) == 80000

    def test_out_of_range_coefficient_is_zero(self):
        p = (1 + V["w"] + V["x"] + V["y"] + V["z"]) ** 3 + V["y"] ** EXP_LIMIT
        coefficient = {tuple(exps): c for *exps, c in p.terms()}
        assert coefficient[0, 0, EXP_LIMIT, 0] == 1
        # (1, -65536, 0, 65536) has the total degree and the weighted field
        # sum of y: packed by addition instead of by fields it would alias y
        for exps in ((0, 0, 0, -1), (-1, 0, 0, 0), (0, 0, EXP_LIMIT + 1, 0),
                     (1, -65536, 0, 65536), (0, 0, 0, 65536)):
            assert coefficient.get(exps, 0) == 0, exps

    def test_division_never_wraps(self):
        # x^3 leads x^3 + w^2, so the first quotient step multiplies w^2 by
        # w^65535: a w exponent past the limit, refused rather than wrapped
        num = V["w"] ** EXP_LIMIT * V["x"] ** 3
        with pytest.raises(ValueError, match="65537"):
            mp_divide_exact(num, V["x"] ** 3 + V["w"] ** 2)
        assert mp_divide_exact(num * (V["x"] + 1), V["x"] + 1) == num


@settings(max_examples=100)
@given(st.lists(st.tuples(wide_exponents, wide_exponents, wide_exponents, wide_exponents,
                          coeffs), min_size=0, max_size=8))
def test_terms_graded_lex_round_trip(records):
    p = MultiPoly(records)
    keys = [(sum(t[:4]), t[:4]) for t in p.terms()]
    assert keys == sorted(set(keys))
    assert MultiPoly([(*r[:4], int(r[4])) for r in p.to_records()]) == p
    assert MultiPoly(p.terms()) == p
    assert all(type(t) is tuple and len(t) == 5 and all(type(v) is int for v in t)
               for t in p.terms())


@settings(max_examples=150)
@given(multi_polys, multi_polys)
def test_mul_matches_naive_oracle(a, b):
    assert a * b == naive_mul(a, b)


@settings(max_examples=150)
@given(st.lists(st.tuples(multi_polys, multi_polys), min_size=1, max_size=3))
def test_sum_of_products_matches_naive(pairs):
    total = MultiPoly.sum_of_products(pairs)
    expected = MultiPoly.zero()
    for a, b in pairs:
        expected = expected + naive_mul(a, b)
    assert total == expected
    assert all(t[4] for t in total.terms())


@settings(max_examples=150)
@given(st.lists(st.tuples(uni_polys, uni_polys), min_size=1, max_size=3))
def test_uni_sum_of_products_matches_naive(pairs):
    total = UniPoly.sum_of_products(pairs)
    expected = UniPoly.zero()
    for a, b in pairs:
        expected = expected + naive_up_mul(a, b)
    assert total == expected
    assert not total.coeffs or total.coeffs[-1]


def test_sum_of_products_cancels_to_zero():
    # (x + y)(x - y) + y*y - x*x: every coefficient cancels, none is kept
    x, y = V["x"], V["y"]
    total = MultiPoly.sum_of_products([(x + y, x - y), (y, y), (-x, x)])
    assert total == MultiPoly.zero() and len(total) == 0
    z = UniPoly((0, 1))
    total = UniPoly.sum_of_products([(z + 1, z - 1), (UniPoly.one(), UniPoly.one()), (-z, z)])
    assert total == UniPoly.zero() and total.coeffs == ()


@settings(max_examples=100)
@given(multi_polys, multi_polys, multi_polys)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=100)
@given(multi_polys)
def test_additive_cancellation_is_canonical(p):
    assert (p + (-p)).terms() == ()


@settings(max_examples=60)
@given(multi_polys, multi_polys, weight_vectors)
def test_substitution_is_ring_homomorphism(a, b, s):
    assert poly_substitute(a * b, s) == poly_substitute(a, s) * poly_substitute(b, s)
    assert poly_substitute(a + b, s) == poly_substitute(a, s) + poly_substitute(b, s)


@settings(max_examples=60)
@given(multi_polys, weight_vectors)
def test_substitution_matches_naive(p, weights):
    assert poly_substitute(p, weights) == naive_substitute(p, weights)


def test_substitute_all_ones_is_evaluation():
    p = MultiPoly([(1, 1, 0, 0, 2), (0, 0, 1, 2, 5)])
    image = poly_substitute(p, (0, 0, 0, 0))
    assert image == UniPoly.constant(sum(c for *_, c in p.terms()))


def test_substitute_zero_and_cancelling_images():
    assert poly_substitute(MultiPoly.zero(), (1, 2, 3, 0)) == UniPoly.zero()
    assert poly_substitute(V["w"] - V["x"], (0, 0, 0, 0)) == UniPoly.zero()
    assert poly_substitute(V["w"] - V["x"], (1, 1, 2, 2)) == UniPoly.zero()
    # cancellation at one degree leaves the terms at the others
    assert poly_substitute(V["w"] - V["x"] + V["z"] ** 2, (1, 1, 0, 1)) == UniPoly((0, 0, 1))


def test_substitute_refuses_negative_weights():
    for weights in ((-1, 0, 0, 0), (0, 0, 0, -2)):
        with pytest.raises(ValueError):
            poly_substitute(V["z"], weights)
    # a negative weight is refused even where its variable does not occur
    with pytest.raises(ValueError):
        poly_substitute(MultiPoly.constant(5), (0, -1, 0, 0))
    # one weight per variable
    with pytest.raises(ValueError):
        poly_substitute(V["z"], (1, 1, 1))


def test_mp_divide_exact_round_trip():
    a = V["w"] * V["x"] + 2 * V["z"] + 3
    b = V["w"] ** 2 - V["y"] * V["z"] + 1
    assert mp_divide_exact(a * b, b) == a
    with pytest.raises(NotDivisible):
        mp_divide_exact(a * b + V["w"], b)
    with pytest.raises(DivisionByZeroPolynomial):
        mp_divide_exact(a, MultiPoly.zero())


def test_mp_divide_exact_compares_fields():
    # the packed key of y^5 exceeds that of x (higher total degree), yet x
    # does not divide y^5
    with pytest.raises(NotDivisible) as err:
        mp_divide_exact(V["y"] ** 5, V["x"])
    assert err.value.remainder_degree == 5
    with pytest.raises(NotDivisible):
        mp_divide_exact(V["w"] * V["z"] ** 3, V["x"] * V["z"])


def test_mp_divide_exact_leads_with_a_new_key():
    # x^2 - y^2 over x - y: the first step leaves xy - y^2, whose leading
    # term xy is a key the dividend never had
    x, y = V["x"], V["y"]
    assert mp_divide_exact(x * x - y * y, x - y) == x + y
    assert mp_divide_exact((x - y) ** 5, x - y) == (x - y) ** 4


@settings(max_examples=150)
@given(multi_polys, multi_polys, st.tuples(*[exponents] * 4), st.integers(0, 3))
def test_mp_divide_exact_property(a, b, extra, field):
    if not b:
        return
    assert mp_divide_exact(a * b, b) == a
    *lead, lead_coeff = b.terms()[-1]
    if lead[field] > 0:
        # a monomial the leading monomial of b does not divide
        exps = list(extra)
        exps[field] = lead[field] - 1
        with pytest.raises(NotDivisible):
            mp_divide_exact(a * b + MultiPoly([(*exps, 1)]), b)
    if abs(lead_coeff) > 1:
        # the leading monomial itself, with a coefficient lead_coeff does not divide
        with pytest.raises(NotDivisible):
            mp_divide_exact(a * b + MultiPoly([(*lead, 1)]), b)


# -------------------------------------------------------------- UniPoly

class TestUniPolyDivision:
    def test_constant_quotient(self):
        assert up_divide_exact(UniPoly((4, 2)), UniPoly((2, 1))) == UniPoly.constant(2)

    def test_not_divisible_carries_degree(self):
        with pytest.raises(NotDivisible) as err:
            up_divide_exact(UniPoly((1, 0, 1)), UniPoly((1, 1)))
        assert err.value.remainder_degree == 0

    def test_zero_denominator(self):
        with pytest.raises(DivisionByZeroPolynomial):
            up_divide_exact(UniPoly((1,)), UniPoly.zero())

    def test_zero_numerator(self):
        assert up_divide_exact(UniPoly.zero(), UniPoly((1, 2))) == UniPoly.zero()

    def test_non_integer_quotient_rejected(self):
        # (2z)(z) = 2z^2 but 2z^2 / 4z has no integer quotient
        with pytest.raises(NotDivisible):
            up_divide_exact(UniPoly((0, 0, 2)), UniPoly((0, 4)))


@settings(max_examples=150)
@given(uni_polys, uni_polys)
def test_divide_round_trip(den, q):
    assert UniPoly(q.coeffs) == q
    if not den:
        return
    assert up_divide_exact(den * q, den) == q


def test_eval_complex_fixtures():
    assert horner(UniPoly((2, 1)).coeffs, -2 + 0j) == 0
    # z^2 + 4z + 5 has zeros -2 +/- i (quadratic formula)
    root = complex(-2, 1)
    assert abs(horner(UniPoly((5, 4, 1)).coeffs, root)) < 1e-12
    # 13z^2 + 11z + 4 has zeros (-11 +/- i sqrt(87)) / 26
    root = (-11 + cmath.sqrt(-87)) / 26
    assert abs(horner(UniPoly((4, 11, 13)).coeffs, root)) < 1e-12


def test_palindrome_predicate():
    assert UniPoly((3, 10, 3)).is_palindromic()
    assert UniPoly((1,)).is_palindromic()
    assert not UniPoly((1, 2)).is_palindromic()
    assert not UniPoly.zero().is_palindromic()


@settings(max_examples=100)
@given(uni_polys)
def test_palindrome_matches_reversal(p):
    assert p.is_palindromic() == (bool(p.coeffs) and list(p.coeffs) == list(reversed(p.coeffs)))


def test_compose_and_shift():
    square = UniPoly((1, 2, 1))        # (z+1)^2
    assert square.shift_argument(-1) == UniPoly((0, 0, 1))
    assert UniPoly((7,)).shift_argument(3) == UniPoly((7,))
    assert UniPoly.zero().shift_argument(3) == UniPoly.zero()
    assert isinstance(UniPoly.zero().shift_argument(3), UniPoly)
    inner = UniPoly((1, 0, 1))         # z^2 + 1
    # composition is horner over UniPoly, the route shift_argument takes
    assert horner((0, 0, 1), inner) == inner * inner


def test_degree_and_normalization():
    assert UniPoly((0, 0, 0)).degree() == -1
    assert UniPoly((5, 0, 0)).degree() == 0
    assert UniPoly((0, 1)).degree() == 1


def test_serialization_strings():
    assert UniPoly((13, 12, 3)).to_strings() == ["13", "12", "3"]
    assert UniPoly.zero().to_strings() == []


# -------------------------------------------------- gcd and square-free

def test_gcd_of_shared_factor():
    z_plus_1 = UniPoly((1, 1))
    a = z_plus_1 * z_plus_1 * UniPoly((2, 1))
    b = z_plus_1 * UniPoly((3, 1))
    assert up_gcd(a, b) == z_plus_1


def test_gcd_coprime_is_constant():
    assert up_gcd(UniPoly((1, 1)), UniPoly((3, 1))).degree() == 0


def test_gcd_edge_cases_match_fraction_reference():
    # zero, constant and coprime inputs; none reaches math.gcd() with nothing to divide
    zero, one = UniPoly.zero(), UniPoly.one()
    q = UniPoly((-4, 0, -2))          # -2(z^2 + 2)
    cases = {
        (zero, q): UniPoly((2, 0, 1)),
        (q, zero): UniPoly((2, 0, 1)),
        (zero, zero): zero,
        (UniPoly((5,)), UniPoly((3,))): one,
        (UniPoly((-5,)), zero): one,
        (zero, UniPoly((-7,))): one,
        (UniPoly((6,)), q): one,
        (q, UniPoly((6,))): one,
        (UniPoly((1, 1)), UniPoly((3, 1))): one,
        (UniPoly((2, 3)), UniPoly((1, 0, -5)) * UniPoly((3, 1))): one,
        # the gcd over the rationals: content and a negative leading sign go
        (UniPoly((-6, -6)), UniPoly((4, 6, 2))): UniPoly((1, 1)),
        (UniPoly((4, 8)), UniPoly((-6, -12))): UniPoly((1, 2)),
    }
    for (a, b), expected in cases.items():
        assert up_gcd(a, b) == expected, (a, b)
        assert up_gcd(a, b) == ref.up_gcd(a, b), (a, b)


def test_square_free_strips_multiplicity():
    z_plus_1 = UniPoly((1, 1))
    p = z_plus_1 ** 3 * UniPoly((1, 0, 1))
    sf = up_square_free(p)
    assert sf == z_plus_1 * UniPoly((1, 0, 1))


def test_square_free_of_square_free_is_primitive_self():
    p = UniPoly((2, 0, 2))   # 2(z^2 + 1)
    assert up_square_free(p) == UniPoly((1, 0, 1))


def test_pretty_and_repr_strings():
    # sign, magnitude and body of each term: the zero polynomial, constants
    # +-1 and +-7, a negative leading coefficient, +-1 on non-constant terms
    w, x, y, z = (V[name] for name in "wxyz")
    multi = {
        MultiPoly.zero(): "0",
        MultiPoly.constant(1): "1",
        MultiPoly.constant(-1): "-1",
        MultiPoly.constant(7): "7",
        MultiPoly.constant(-7): "-7",
        -w * x**2 + 3 * z - y + 1: "-wx^2-y+3z+1",
        w**2 * z - 7 * x + y - 1: "w^2z-7x+y-1",
        -2 * w: "-2w",
    }
    for p, text in multi.items():
        assert p.pretty() == text
        assert repr(p) == f"MultiPoly({text})"
    uni = {
        (): "0",
        (1,): "1",
        (-1,): "-1",
        (7,): "7",
        (-7,): "-7",
        (1, -1, 0, -3): "-3z^3-z+1",
        (-1, 1, 7, 0, -1): "-z^4+7z^2+z-1",
        (0, -2, 1): "z^2-2z",
    }
    for coeffs, text in uni.items():
        p = UniPoly(coeffs)
        assert p.pretty() == text
        assert repr(p) == f"UniPoly({text})"


def test_constant_hashes_as_its_int():
    # a constant equals its int, zero included, so sets and int-keyed dicts
    # treat the two as one key
    for cls in (MultiPoly, UniPoly):
        for c in (5, -3, 0):
            p = cls.constant(c)
            assert p == c and hash(p) == hash(c), (cls, c)
            assert len({p, c}) == 1, (cls, c)
        assert len({cls.zero(), 0}) == 1
        assert {5: "five", 0: "zero"}[cls.constant(5)] == "five"
        assert {0: "zero"}[cls.zero()] == "zero"
    # a non-constant hashes as its data, as before
    w = MultiPoly.variable("w")
    assert hash(w) == hash(frozenset(w._data().items()))
    assert hash(UniPoly((0, 1))) == hash((0, 1))
