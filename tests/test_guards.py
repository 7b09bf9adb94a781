"""Argument guards and the zero-coefficient guard, on paths no other test runs."""

import pytest

from trident.identities import verify_prop61, verify_surprising, verify_telescoping
from trident.polyring import MultiPoly, UniPoly, binomial_power, up_square_free
from trident.sequences import closed_form_k3n, gf_check, s_poly_product, scalar_qr
from trident.specialize import SpecId, profile_from_oracle, q1_r1_closed

MULTI = MultiPoly([(1, 0, 0, 0, 2), (0, 0, 1, 1, -1)])
UNI = UniPoly((1, -2, 3))

# Each refusal with its own message: a call that fails further in, with
# another message, does not pass.
REFUSED = {
    "verify_prop61(0)": (lambda: verify_prop61(0), "n_max must be at least 1"),
    "verify_telescoping(0)": (lambda: verify_telescoping(0), "n_max must be at least 1"),
    "verify_surprising(-1)": (lambda: verify_surprising(-1), "n_max must be non-negative"),
    "s_poly_product(-1)": (lambda: s_poly_product(-1), "n must be non-negative"),
    "closed_form_k3n(0, 1)": (lambda: closed_form_k3n(0, 1), "k must be at least 1"),
    "closed_form_k3n(1, -1)": (lambda: closed_form_k3n(1, -1), "n must be non-negative"),
    "scalar_qr(-1)": (lambda: scalar_qr(-1), "n must be non-negative"),
    "gf_check(0)": (lambda: gf_check(0), "truncation must be at least 1"),
    "q1_r1_closed(-1)": (lambda: q1_r1_closed(-1), "n must be non-negative"),
    "profile_from_oracle(Z1, q, 0)": (lambda: profile_from_oracle(SpecId.Z1, "q", 0),
                                      "at least 1 for the oracle path"),
    "UniPoly.monomial(-1)": (lambda: UniPoly.monomial(-1), "degree must be non-negative"),
    "up_square_free(5)": (lambda: up_square_free(UniPoly((5,))), "degree at least 1"),
    "binomial_power(3, -1)": (lambda: binomial_power(3, -1), "n must be non-negative"),
    "MultiPoly ** -1": (lambda: MULTI ** -1, "exponent must be a non-negative integer"),
    "UniPoly ** -1": (lambda: UNI ** -1, "exponent must be a non-negative integer"),
}


@pytest.mark.parametrize("call, message", REFUSED.values(), ids=REFUSED.keys())
def test_refused_with_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_multipoly_times_zero_has_no_terms():
    # a zero coefficient is never stored, so the product is the zero polynomial
    product = MULTI * 0
    assert not product
    assert product.terms() == ()
    assert product == MultiPoly.zero()


@pytest.mark.parametrize("p", [MULTI, UNI], ids=["MultiPoly", "UniPoly"])
def test_int_minus_poly(p):
    assert (3 - p) + p == 3
