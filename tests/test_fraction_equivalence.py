"""The integer zero pipeline against the earlier rational-arithmetic code.

Dyadic Newton polishing and the primitive remainder sequence must give
exactly what ``fraction_reference`` gives: the same doubles bit for bit,
the same primitive polynomials.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_reference as ref
from trident.polyring import UniPoly, up_gcd, up_square_free
from trident.specialize import SpecId, spec_family
from trident.zeros import DEFAULT_MAX_ITER, EXPLICIT_SPECS, _aberth, _newton_polish

GENERAL_ROUTE = [(spec, family) for spec in SpecId for family in ("q", "r")
                 if (spec, family) not in EXPLICIT_SPECS.values()]


def test_polish_matches_fraction_reference():
    # Every general-route family at n <= 20.  The rational reference is slow
    # (~1.3 s for the square-free parts at n = 20, ~40 ms a polished point at
    # degree 39), so it checks the square-free part up to n = 14, polishes
    # every Aberth point up to n = 6 and one point (rotating with n) at
    # n = 8, 12, 16, 20.  All 5173 points of all these members up to n = 20
    # were also compared once outside the suite, with no difference.
    checked = 0
    for spec, family in GENERAL_ROUTE:
        for n in range(1, 21):
            member = spec_family(spec, family, n)
            if member.degree() < 1:
                continue
            sf = up_square_free(member)
            if n <= 14:
                assert sf == ref.up_square_free(member), (spec, family, n)
            if n > 6 and n % 4:
                continue
            origin = next(d for d, c in enumerate(sf.coeffs) if c)
            reduced = UniPoly(sf.coeffs[origin:])
            if reduced.degree() < 1:
                continue
            zs = _aberth([complex(c) for c in reduced.coeffs], DEFAULT_MAX_ITER)
            if n > 6:
                zs = [zs[n % len(zs)]]
            for z in zs:
                got = _newton_polish(reduced, z)
                want = ref.newton_polish(reduced, z)
                assert repr(got) == repr(want), (spec, family, n, z)
                checked += 1
    assert checked > 300


def test_polish_of_exact_and_degenerate_points():
    # an exact zero stays put; a point where P' vanishes is returned as given
    for poly, z in ((UniPoly((2, 1)), -2 + 0j), (UniPoly((1, 0, 1)), 1j),
                    (UniPoly((-1, 0, 1)), 0j), (UniPoly((5, 4, 1)), -2 + 0j),
                    (UniPoly((3, -7, 0, 2)), 0.1 - 2.5e-300j)):
        assert repr(_newton_polish(poly, z)) == repr(ref.newton_polish(poly, z))


small_factor = st.lists(st.integers(-6, 6), min_size=2, max_size=4).filter(
    lambda cs: cs[-1] != 0).map(UniPoly)


@st.composite
def related_pair(draw):
    # two products over one pool of factors, with repeated factors, an
    # integer content (possibly zero or negative) and either sign in front
    pool = draw(st.lists(small_factor, min_size=1, max_size=4))

    def product() -> UniPoly:
        out = UniPoly.constant(draw(st.integers(-30, 30)))
        for factor in pool:
            out = out * factor ** draw(st.integers(0, 3))
        return out

    return product(), product()


@settings(max_examples=150, deadline=None)
@given(related_pair())
def test_gcd_and_square_free_match_fraction_reference(pair):
    p, q = pair
    assert up_gcd(p, q) == ref.up_gcd(p, q)
    assert up_gcd(q, p) == ref.up_gcd(q, p)
    if p.degree() >= 1:
        assert up_square_free(p) == ref.up_square_free(p)
