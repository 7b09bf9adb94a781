"""Argument guards, the zero-coefficient guard, float coefficients and
foreign operands of the ring classes and the package's export list, on
paths no other test runs."""

import json
import math
import operator
import types

import pytest

import trident
from trident.chebyshev import ChebKind, chebyshev, dickson_E, verify_prop35
from trident.identities import (verify_divisibility, verify_prop61, verify_surprising,
                                verify_telescoping)
from trident.oracle import count_partitions, enumerate_partitions
from trident.polyring import MultiPoly, UniPoly, poly_substitute, split_origin, up_square_free
from trident.report import Report
from trident.sequences import (gf_check, q_poly, r_poly, repunit_sweep, s_poly, s_poly_product,
                               s_poly_sweep, scalar_qr)
from trident.specialize import (SpecId, profile_from_oracle, q1_r1_closed, spec_family,
                                spec_family_sweep, structural_check)
from trident.zeros import _newton_radius, verify_locus, zeros_of

MULTI = MultiPoly([(1, 0, 0, 0, 2), (0, 0, 1, 1, -1)])
UNI = UniPoly((1, -2, 3))
Z = MultiPoly.variable("z")

# Each refusal with its own message: a call that fails further in, with
# another message, does not pass.
REFUSED = {
    "verify_prop61(0)": (lambda: verify_prop61(0), "n_max must be at least 1"),
    "verify_telescoping(0)": (lambda: verify_telescoping(0), "n_max must be at least 1"),
    "verify_surprising(-1)": (lambda: verify_surprising(-1), "n_max must be non-negative"),
    "s_poly_product(-1)": (lambda: s_poly_product(-1), "n must be non-negative"),
    "scalar_qr(-1)": (lambda: scalar_qr(-1), "n must be non-negative"),
    "gf_check(0)": (lambda: gf_check(0), "truncation must be at least 1"),
    "q1_r1_closed(-1)": (lambda: q1_r1_closed(-1), "n must be non-negative"),
    "profile_from_oracle(Z1, q, 0)": (lambda: profile_from_oracle(SpecId.Z1, "q", 0),
                                      "n must be at least 1"),
    "up_square_free(5)": (lambda: up_square_free(UniPoly((5,))), "degree at least 1"),
    "MultiPoly ** -1": (lambda: MULTI ** -1, "exponent must be non-negative"),
    "UniPoly ** -1": (lambda: UNI ** -1, "exponent must be non-negative"),
    "MultiPoly([(0, -1, 0, 0, 1)])": (lambda: MultiPoly([(0, -1, 0, 0, 1)]),
                                      "exponent must be non-negative"),
    "poly_substitute(z, (0, 0, 1, -2))": (lambda: poly_substitute(Z, (0, 0, 1, -2)),
                                          "weight must be non-negative"),
    # a bare StopIteration from next(), which a generator would turn into RuntimeError
    "split_origin(0)": (lambda: split_origin(UniPoly.zero()),
                        "the zero polynomial has no multiplicity at the origin"),
    # tuple.index's "x not in tuple", which names no variable
    'MultiPoly.variable("q")': (lambda: MultiPoly.variable("q"), "must be w, x, y or z, not 'q'"),
    # a sweep is a generator: it refuses its bound when first advanced
    "s_poly_sweep(-1)": (lambda: list(s_poly_sweep(-1)), "upto must be non-negative"),
    "repunit_sweep(-1)": (lambda: list(repunit_sweep(-1)), "upto must be non-negative"),
    "spec_family_sweep(Z1, q, -1)": (lambda: list(spec_family_sweep(SpecId.Z1, "q", -1)),
                                     "upto must be non-negative"),
}


@pytest.mark.parametrize("call, message", REFUSED.values(), ids=REFUSED.keys())
def test_refused_with_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()


# A coefficient must be an int: a float is refused, not truncated.
FLOAT_COEFFICIENTS = {
    "UniPoly((1.5, 2.9))": lambda: UniPoly((1.5, 2.9)),
    "UniPoly((0.5,))": lambda: UniPoly((0.5,)),
    "MultiPoly([(0, 0, 0, 1, 2.5)])": lambda: MultiPoly([(0, 0, 0, 1, 2.5)]),
    "UniPoly.constant(2.0)": lambda: UniPoly.constant(2.0),
    "MultiPoly.constant(2.5)": lambda: MultiPoly.constant(2.5),
    "MultiPoly.constant(0.0)": lambda: MultiPoly.constant(0.0),
}


@pytest.mark.parametrize("call", FLOAT_COEFFICIENTS.values(), ids=FLOAT_COEFFICIENTS.keys())
def test_float_coefficient_is_refused(call):
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        call()


# An index, range bound, exponent, weight or sweep bound must be an int
# too: a float is refused, not counted (s_poly(2.5) was the zero
# polynomial) or truncated.
FLOAT_INDICES = {
    "s_poly(2.5)": lambda: s_poly(2.5),
    "q_poly(2.0)": lambda: q_poly(2.0),
    "r_poly(2.0)": lambda: r_poly(2.0),
    "spec_family(Z1, q, 2.0)": lambda: spec_family(SpecId.Z1, "q", 2.0),
    "count_partitions(2.5)": lambda: count_partitions(2.5),
    "enumerate_partitions(2.0)": lambda: enumerate_partitions(2.0),
    "scalar_qr(2.5)": lambda: scalar_qr(2.5),
    "s_poly_product(2.0)": lambda: s_poly_product(2.0),
    "dickson_E(2.0, 1, 1)": lambda: dickson_E(2.0, 1, 1),
    "chebyshev(U, 2.0)": lambda: chebyshev(ChebKind.SECOND, 2.0),
    "q1_r1_closed(2.0)": lambda: q1_r1_closed(2.0),
    "gf_check(2.0)": lambda: gf_check(2.0),
    "verify_prop61(2.0)": lambda: verify_prop61(2.0),
    "verify_telescoping(2.0)": lambda: verify_telescoping(2.0),
    "verify_divisibility(Z1, 2.0)": lambda: verify_divisibility(SpecId.Z1, 2.0),
    "verify_surprising(2.0)": lambda: verify_surprising(2.0),
    "structural_check(Z1, 2.0)": lambda: structural_check(SpecId.Z1, 2.0),
    "verify_locus(Z1, 2.5)": lambda: verify_locus(SpecId.Z1, 2.5),
    "MultiPoly([(1.0, 0, 0, 0, 1)])": lambda: MultiPoly([(1.0, 0, 0, 0, 1)]),
    "MultiPoly ** 2.0": lambda: MULTI ** 2.0,
    "UniPoly ** 2.0": lambda: UNI ** 2.0,
    "poly_substitute(z, (0, 0, 1, 2.5))": lambda: poly_substitute(Z, (0, 0, 1, 2.5)),
    "s_poly_sweep(2.0)": lambda: list(s_poly_sweep(2.0)),
    "spec_family_sweep(Z1, q, 2.0)": lambda: list(spec_family_sweep(SpecId.Z1, "q", 2.0)),
}


@pytest.mark.parametrize("call", FLOAT_INDICES.values(), ids=FLOAT_INDICES.keys())
def test_float_index_is_refused(call):
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        call()


class IntLike:
    """An int-like with ``__index__`` alone, as numpy's integer scalars have."""

    def __init__(self, value: int):
        self.value = value

    def __index__(self):
        return self.value


def test_int_like_index_is_taken_as_its_int():
    # in the int-like's own arithmetic, as in numpy.int64's, 2^79 would wrap
    found = scalar_qr(IntLike(40))
    assert found == scalar_qr(40)
    assert [type(v) for v in found] == [int, int]
    assert s_poly(IntLike(40)) == s_poly(40)
    assert enumerate_partitions(IntLike(40)) == enumerate_partitions(40)
    assert zeros_of(SpecId.Z1, "q", IntLike(12)).points == zeros_of(SpecId.Z1, "q", 12).points
    assert verify_prop35(IntLike(3)).failures == []
    assert MultiPoly([(IntLike(1), 0, 0, 0, 1)]) == MultiPoly.variable("w")
    assert UNI ** IntLike(2) == UNI * UNI
    weights = SpecId.P3.weights
    assert poly_substitute(MULTI, tuple(map(IntLike, weights))) == poly_substitute(MULTI, weights)
    assert len(list(s_poly_sweep(IntLike(5)))) == 6


def test_multipoly_times_zero_has_no_terms():
    # a zero coefficient is never stored, so the product is the zero polynomial
    product = MULTI * 0
    assert not product
    assert product.terms() == ()
    assert product == MultiPoly.zero()


@pytest.mark.parametrize("p", [MULTI, UNI], ids=["MultiPoly", "UniPoly"])
def test_int_minus_poly(p):
    assert (3 - p) + p == 3


# Each ring class takes an int or a polynomial of its own class as an
# operand; anything else, the other ring's polynomials included, is refused.
FOREIGN = [(p, other) for p in (MULTI, UNI) for other in (1.5, "x", UNI if p is MULTI else MULTI)]


@pytest.mark.parametrize("p, other", FOREIGN,
                         ids=[f"{type(p).__name__}-{type(o).__name__}" for p, o in FOREIGN])
def test_foreign_operand_is_refused(p, other):
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(TypeError):
            op(p, other)
        with pytest.raises(TypeError):
            op(other, p)
    assert (p == other) is False
    assert (other == p) is False


def test_export_list_resolves():
    # a stale name passes "import trident" and fails only at a star-import;
    # the list is every name the import block binds, with no submodule, and
    # __version__ the one name with a leading underscore
    exported = trident.__all__
    assert len(set(exported)) == len(exported)
    assert [name for name in exported if not hasattr(trident, name)] == []
    assert [name for name in exported
            if isinstance(getattr(trident, name), types.ModuleType)] == []
    assert [name for name in exported if name.startswith("_")] == ["__version__"]
    namespace: dict = {}
    exec("from trident import *", namespace)
    assert namespace.keys() - {"__builtins__"} == set(exported)


def test_newton_radius_is_infinite_where_the_derivative_vanishes():
    # z^2 at 0 (P = P' = 0) and z^2 + 1 at 0 (P' = 0 only): no disk is certified
    assert _newton_radius((0, 0, 1), 0j) == math.inf
    assert _newton_radius((1, 0, 1), 0j) == math.inf


def test_report_witness_keeps_plain_operands():
    # operands that are not polynomials go into the witness as they are
    report = Report("n <= 1")
    report.record("sizes agree", False, 3, [1, 2])
    assert json.loads(report.witness) == {"check": "sizes agree", "lhs": 3, "rhs": [1, 2]}
