"""Single-variable families: reference tables, closed forms, statistics, structure."""

import math

import pytest

from fixtures import TABLE2_Q, TABLE2_R, TABLE3, TABLE4
from trident.polyring import UniPoly, poly_substitute
from trident.sequences import q_poly, r_poly
from trident.specialize import (PALINDROMIC_PRESETS, SpecId, partition_statistic,
                                profile, profile_from_oracle, q1_r1_closed,
                                q1_r1_shifted, reduced_q2, spec_family,
                                spec_images, structural_check)
from trident.zeros import zeros_of

ALL_SPECS = list(SpecId)


def test_reference_tables():
    for n, coeffs in TABLE2_Q.items():
        assert spec_family(SpecId.Z1, "q", n) == UniPoly(coeffs), f"z1 q n={n}"
    for n, coeffs in TABLE2_R.items():
        assert spec_family(SpecId.Z1, "r", n) == UniPoly(coeffs), f"z1 r n={n}"
    for n, coeffs in TABLE3.items():
        assert spec_family(SpecId.Z2, "q", n) == UniPoly(coeffs), f"z2 n={n}"
    for n, coeffs in TABLE4.items():
        assert spec_family(SpecId.Z3, "q", n) == UniPoly(coeffs), f"z3 n={n}"


def test_substitution_of_small_rows():
    from trident.sequences import s_poly
    assert poly_substitute(s_poly(1), SpecId.Z0.weights) == UniPoly.constant(3)
    assert poly_substitute(s_poly(2), SpecId.Z1.weights) == UniPoly((2, 2))


def test_recurrence_coefficients_derived_by_substitution():
    # the z1 second coefficient is (z+1)(z+3), not (z+1)(z+2)
    w1, w2 = spec_images(SpecId.Z1)
    assert w1 == UniPoly((4, 2))
    assert w2 == UniPoly((1, 1)) * UniPoly((3, 1))
    w1, w2 = spec_images(SpecId.Z2)
    assert w1 == UniPoly((0, 3, 0, 3))
    assert w2 == UniPoly((0, 0, 0, 0, 8))
    w1, w2 = spec_images(SpecId.Z3)
    assert w1 == UniPoly((2, 4))
    assert w2 == UniPoly((0, 5, 3))


def test_spec_family_equals_substitution_path():
    for spec in ALL_SPECS:
        s = spec.weights
        for n in range(11):
            assert spec_family(spec, "q", n) == poly_substitute(q_poly(n), s), (spec, n)
            assert spec_family(spec, "r", n) == poly_substitute(r_poly(n), s), (spec, n)


def test_family_validation():
    with pytest.raises(ValueError):
        spec_family(SpecId.Z1, "x", 3)
    with pytest.raises(ValueError):
        spec_family(SpecId.Z1, "q", -1)


def test_family_names_are_lower_case():
    # "Q" is not "q": every entry point refuses it rather than answering
    # under the wrong label (zeros_of once took the general route for it)
    for call in (spec_family, profile, profile_from_oracle, zeros_of):
        for family in ("Q", "R"):
            with pytest.raises(ValueError, match="family must be 'q' or 'r'"):
                call(SpecId.Z1, family, 5)


def test_closed_forms_match_recurrence():
    for n in range(41):
        q, r = q1_r1_closed(n)
        assert q == spec_family(SpecId.Z1, "q", n), n
        assert r == spec_family(SpecId.Z1, "r", n), n


def test_closed_form_coefficients():
    # coefficient of z^j: C(n,j)(3^(n-j)-1)/2 for q, C(n,j)(3^(n-j)+1)/2 for r
    for n in (1, 4, 5, 9):
        q, r = q1_r1_closed(n)
        for j in range(n + 1):
            assert q.coeff(j) == math.comb(n, j) * (3 ** (n - j) - 1) // 2
            assert r.coeff(j) == math.comb(n, j) * (3 ** (n - j) + 1) // 2
    assert q1_r1_closed(5)[0].coeff(0) == 121


def test_shifted_forms_are_pure_binomials():
    for n in range(41):
        q_shift, r_shift = q1_r1_shifted(n)
        for j, c in enumerate(q_shift.coeffs):
            assert c == (math.comb(n, n - j) if (n - j) % 2 else 0)
        for j, c in enumerate(r_shift.coeffs):
            assert c == (0 if (n - j) % 2 else math.comb(n, n - j))


def test_reduced_q2_values():
    assert reduced_q2(1) == UniPoly.one()
    assert reduced_q2(2) == UniPoly((3, 0, 3))
    assert reduced_q2(3) == UniPoly((9, 0, 10, 0, 9))
    with pytest.raises(ValueError):
        reduced_q2(0)


def test_reduced_q2_palindromic_symmetry():
    # coefficient symmetry: counts at n-1+j and 3n-3-j agree
    for n in range(1, 13):
        reduced = reduced_q2(n)
        assert reduced.is_palindromic()
        assert reduced.coeff(0) != 0
        assert reduced.degree() == 2 * (n - 1)
        full = spec_family(SpecId.Z2, "q", n)
        for j in range((n - 1) // 2 + 1):
            assert full.coeff(n - 1 + j) == full.coeff(3 * n - 3 - j)


def test_spec_weights():
    assert SpecId.Z1.weights == (0, 0, 1, 0)
    assert SpecId.Z2.weights == (1, 1, 1, 2)
    assert SpecId.Z3.weights == (0, 0, 1, 1)
    assert SpecId.P1.weights == (1, 1, 0, 0)
    assert SpecId.P2.weights == (1, 1, 1, 1)
    assert SpecId.P3.weights == (0, 0, 1, 2)
    assert SpecId.P4.weights == (1, 1, 1, 0)
    assert SpecId.P5.weights == (0, 1, 1, 2)
    assert SpecId.P6.weights == (1, 0, 1, 2)


def test_partition_statistic_worked_example():
    from trident.oracle import enumerate_partitions
    part = next(p for p in enumerate_partitions(12) if p.render() == "3+3+3-+1+1-+1~")
    # stats (2, 1, 1, 1): marked parts 3, total parts 6, unmarked parts 3
    assert partition_statistic(SpecId.P1, part.stats()) == 3
    assert partition_statistic(SpecId.Z2, part.stats()) == 6
    assert partition_statistic(SpecId.P3, part.stats()) == 3


def test_profile_worked_examples():
    # four partitions of 3 with no single unmarked part, two with one
    assert profile(SpecId.Z1, "q", 2).coeffs == {0: 4, 1: 2}
    # partitions of 4 by single unmarked parts: 5, 4, 1
    assert profile(SpecId.Z1, "r", 2).coeffs == {0: 5, 1: 4, 2: 1}
    # partitions of 3 by unmarked parts plus pairs: two with none, four with one
    assert profile(SpecId.Z3, "q", 2).coeffs == {0: 2, 1: 4}


def test_profiles_match_oracle_all_specs():
    for spec in ALL_SPECS:
        for n in range(1, 5):
            assert (profile(spec, "q", n).coeffs
                    == profile_from_oracle(spec, "q", n).coeffs), (spec, n)
    for n in range(1, 5):
        assert (profile(SpecId.Z1, "r", n).coeffs
                == profile_from_oracle(SpecId.Z1, "r", n).coeffs), n


def test_structural_checks_hold():
    for n in range(1, 17):
        for spec in (SpecId.Z1, SpecId.Z2, SpecId.Z3, *PALINDROMIC_PRESETS):
            report = structural_check(spec, n)
            assert report.ok, (spec, n, report.failures)


def test_structural_check_rejects_unclaimed_spec():
    with pytest.raises(ValueError):
        structural_check(SpecId.P2, 3)
    with pytest.raises(ValueError):
        structural_check(SpecId.Z1, 0)


def test_overline_tilde_symmetry():
    # swapping the overline and tilde variables fixes every member, so the
    # p5 and p6 families coincide as polynomials
    for n in range(9):
        assert spec_family(SpecId.P5, "q", n) == spec_family(SpecId.P6, "q", n)
