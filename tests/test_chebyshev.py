"""Chebyshev recurrences, the bivariate companions, and the bridge identities."""

import math

import pytest

import trident.chebyshev
from trident.chebyshev import ChebKind, chebyshev, dickson_D, dickson_E, verify_prop35
from trident.polyring import MultiPoly, UniPoly, horner, mp_divide_exact
from trident.sequences import W1, W2


def chebyshev_from_generating_function(kind: ChebKind, upto: int) -> list[UniPoly]:
    """Independent re-derivation: expand 1/(1-u) with u = 2vt - t^2 geometrically.

    The coefficient of t^n in sum_m (2vt - t^2)^m is
    sum_{m+i=n} C(m, i) (2v)^(m-i) (-1)^i; the first kind multiplies the
    series by (1 - vt).
    """
    twov = UniPoly((0, 2))
    series = [UniPoly.zero() for _ in range(upto + 1)]
    for n in range(upto + 1):
        acc = UniPoly.zero()
        for i in range(n + 1):
            m = n - i
            if i > m:
                continue
            acc = acc + twov ** (m - i) * ((-1) ** i * math.comb(m, i))
        series[n] = acc
    if kind is ChebKind.SECOND:
        return series
    v = UniPoly((0, 1))
    out = [series[0]]
    for n in range(1, upto + 1):
        out.append(series[n] - v * series[n - 1])
    return out


def test_base_cases_by_hand():
    assert chebyshev(ChebKind.FIRST, 0) == UniPoly.one()
    assert chebyshev(ChebKind.FIRST, 1) == UniPoly((0, 1))
    assert chebyshev(ChebKind.FIRST, 2) == UniPoly((-1, 0, 2))
    assert chebyshev(ChebKind.SECOND, 0) == UniPoly.one()
    assert chebyshev(ChebKind.SECOND, 1) == UniPoly((0, 2))
    assert chebyshev(ChebKind.SECOND, 2) == UniPoly((-1, 0, 4))


def test_chebyshev_keeps_no_memo():
    # T_n and U_n are built afresh on each call: no container the module
    # holds grows across calls
    def sizes():
        return {name: len(value) for name, value in vars(trident.chebyshev).items()
                if isinstance(value, (dict, list, set)) and not name.startswith("__")}
    before = sizes()
    for kind in ChebKind:
        chebyshev(kind, 50)
        chebyshev(kind, 51)
    assert sizes() == before


def test_recurrence_matches_generating_function():
    for kind in ChebKind:
        expected = chebyshev_from_generating_function(kind, 10)
        for n in range(11):
            assert chebyshev(kind, n) == expected[n], (kind, n)
        with pytest.raises(ValueError):
            chebyshev(kind, -1)
    # a cold index far past the interpreter's recursion limit: degree n,
    # leading 2^(n-1) for T and 2^n for U, T_n(1) = 1 and U_n(1) = n + 1
    n = 1500
    t = chebyshev(ChebKind.FIRST, n)
    u = chebyshev(ChebKind.SECOND, n)
    assert t.degree() == n and u.degree() == n
    assert t.coeff(n) == 2 ** (n - 1)
    assert u.coeff(n) == 2**n
    assert horner(t.coeffs, 1) == 1
    assert horner(u.coeffs, 1) == n + 1


def test_dickson_small_values_symbolic():
    a = MultiPoly.variable("w")
    b = MultiPoly.variable("x")
    assert dickson_E(0, a, b) == MultiPoly.one()
    assert dickson_E(1, a, b) == a
    assert dickson_E(2, a, b) == a * a - b
    assert dickson_D(0, a, b) == MultiPoly.constant(2)
    assert dickson_D(2, a, b) == a * a - 2 * b
    # plain integers form a ring too: E_n(5, 3) = 1, 5, 22, 95; D_n(5, 3) = 2, 5, 19
    assert [dickson_E(n, 5, 3) for n in range(4)] == [1, 5, 22, 95]
    assert [dickson_D(n, 5, 3) for n in range(3)] == [2, 5, 19]
    for companion in (dickson_E, dickson_D):
        with pytest.raises(ValueError):
            companion(-1, a, b)


def test_dickson_chebyshev_link():
    twov = UniPoly((0, 2))
    one = UniPoly.one()
    for n in range(13):
        assert dickson_E(n, twov, one) == chebyshev(ChebKind.SECOND, n)
        assert dickson_D(n, twov, one) == 2 * chebyshev(ChebKind.FIRST, n)


def test_pell_identity_univariate():
    v = UniPoly((0, 1))
    v2_minus_1 = v * v - 1
    for n in range(1, 13):
        t = chebyshev(ChebKind.FIRST, n)
        u = chebyshev(ChebKind.SECOND, n - 1)
        assert t * t - v2_minus_1 * u * u == UniPoly.one()


def test_pell_identity_radical_free():
    gap = W1 * W1 - 4 * W2
    for n in range(1, 11):
        d = dickson_D(n, W1, W2)
        e = dickson_E(n - 1, W1, W2)
        assert d * d - gap * e * e == 4 * W2**n


def test_second_kind_divisibility_symbolic():
    a = MultiPoly.variable("w")
    b = MultiPoly.variable("x")
    values = [dickson_E(k, a, b) for k in range(16)]
    for n in range(2, 17):
        for m in range(2, n + 1):
            if n % m:
                continue
            # exact quotient exists whenever the indices divide
            mp_divide_exact(values[n - 1], values[m - 1])


def test_bridge_identities():
    for n in range(13):
        report = verify_prop35(n)
        assert report.ok, (n, report.failures)


def test_package_attribute_is_the_module(monkeypatch):
    # verify_prop35 reads chebyshev through the module the package exposes
    import trident.chebyshev as module
    assert module.verify_prop35 is verify_prop35
    assert verify_prop35(2).ok
    # U_n + 1 in place of U_n, T_n unchanged
    monkeypatch.setattr(module, "chebyshev",
                        lambda kind, n: chebyshev(kind, n) + (kind is ChebKind.SECOND))
    assert verify_prop35(0).failures == ["E_0(2v, 1) != U_0(v)"]


def test_bridge_compares_two_computations(monkeypatch):
    # T_n and U_n come from their coefficient formula, not from two_term, so
    # a two_term that is off by one reaches only the Dickson side
    import trident.chebyshev as module
    two_term = module.two_term
    monkeypatch.setattr(module, "two_term", lambda *args: two_term(*args) + 1)
    failures = verify_prop35(3).failures
    assert "E_3(2v, 1) != U_3(v)" in failures
    assert "D_3(2v, 1) != 2 T_3(v)" in failures


def test_bridge_weight_check_names_companion(monkeypatch):
    import trident.chebyshev as module
    monkeypatch.setattr(module, "dickson_D", lambda n, a, b: dickson_D(n, a, b) * a)
    failures = verify_prop35(3).failures
    assert "D_3(a, b) has a term of weight other than 3" in failures


def test_bridge_base_cases():
    from trident.sequences import q_poly, r_poly
    assert q_poly(1) == dickson_E(0, W1, W2)
    assert 2 * r_poly(1) == dickson_D(1, W1, W2) + (
        MultiPoly.variable("w") + MultiPoly.variable("x") + MultiPoly.variable("y")
        - MultiPoly.variable("w") * MultiPoly.variable("x") * MultiPoly.variable("y")
        - MultiPoly.variable("w") * MultiPoly.variable("z")
        - MultiPoly.variable("x") * MultiPoly.variable("z")) * q_poly(1)
