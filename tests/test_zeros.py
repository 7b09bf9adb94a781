"""The Lucas factor route, the simultaneous root finder, and locus verification."""

import cmath
import math

import pytest

from fixtures import match_multisets
from trident.polyring import UniPoly, split_origin, up_divide_exact, up_square_free
from trident.specialize import SpecId, reduced_q2, spec_family, spec_images
from trident.zeros import (EXPLICIT_SPECS, LOCI, NoConvergence, _lucas, _lucas_points,
                           backward_scale, verify_locus, zeros_explicit, zeros_general,
                           zeros_of)


def quadratic_roots(c0: int, c1: int, c2: int) -> list[complex]:
    """Quadratic-formula oracle for degree-2 fixtures."""
    disc = cmath.sqrt(complex(c1 * c1 - 4 * c2 * c0))
    return [(-c1 + disc) / (2 * c2), (-c1 - disc) / (2 * c2)]


def family_poly(tag: str, n: int) -> UniPoly:
    if tag == "z1q":
        return spec_family(SpecId.Z1, "q", n)
    if tag == "z1r":
        return spec_family(SpecId.Z1, "r", n)
    if tag == "z2":
        return reduced_q2(n)
    return spec_family(SpecId.Z3, "q", n)


# ------------------------------------------------------ explicit rows

def test_explicit_z1q_quadratic_fixture():
    report = zeros_explicit("z1q", 3)
    expected = quadratic_roots(13, 12, 3)
    assert match_multisets(report.points, expected) < 1e-12
    assert all(abs(z.real + 2) < 1e-15 for z in report.points)


def test_explicit_z2_cubic_fixture():
    report = zeros_explicit("z2", 2)
    assert report.origin_multiplicity == 1
    assert match_multisets(report.points, [1j, -1j]) < 1e-15


def test_explicit_z3_circle_fixture():
    report = zeros_explicit("z3", 3)
    expected = quadratic_roots(4, 11, 13)
    assert match_multisets(report.points, expected) < 1e-12
    for z in report.points:
        assert abs(abs(z - 0.375) - 0.875) < 1e-12
        assert z.real < 0.5


def test_explicit_point_counts_match_degree():
    for n in range(2, 31):
        assert len(zeros_explicit("z1q", n).points) == n - 1
        assert len(zeros_explicit("z1r", n).points) == n
        z2 = zeros_explicit("z2", n)
        assert len(z2.points) == 2 * (n - 1)
        assert z2.origin_multiplicity == n - 1
        assert len(zeros_explicit("z3", n).points) == n - 1


def test_explicit_degenerate_and_bounds():
    # the z1 q member at n = 1 is the constant 1, refused as the CLI refuses it
    with pytest.raises(ValueError, match="has no zeros"):
        zeros_explicit("z1q", 1)
    # z + 2: at odd r-indices the factor a / g = 2z + 4 gives -2
    assert zeros_explicit("z1r", 1).points == [-2 + 0j]
    with pytest.raises(ValueError):
        zeros_explicit("z1r", 0)
    with pytest.raises(ValueError):
        zeros_explicit("z2", 1)
    with pytest.raises(ValueError):
        zeros_explicit("bogus", 5)


def test_explicit_tags_are_the_map_rows():
    # each tag names a LOCI row of a z-spec, and each such row has one tag;
    # a tagged row counts the member's whole degree, zero at the origin
    # included, while every other Lucas row counts its square-free part's
    z_rows = [key for key in LOCI if key[0] in (SpecId.Z1, SpecId.Z2, SpecId.Z3)]
    assert sorted(EXPLICIT_SPECS.values(), key=str) == sorted(z_rows, key=str)
    for spec, family in (*EXPLICIT_SPECS.values(), (SpecId.P2, "q"), (SpecId.P4, "q")):
        report, _ = zeros_of(spec, family, 9)
        member = spec_family(spec, family, 9)
        origin = split_origin(member)[0]
        if (spec, family) in EXPLICIT_SPECS.values():
            assert report.origin_multiplicity == origin
            assert len(report.points) + origin == member.degree()
        else:
            assert origin > 1 and report.origin_multiplicity == 1


def test_zeros_explicit_is_zeros_of():
    for tag, (spec, family) in EXPLICIT_SPECS.items():
        for n in range(2, 31):
            report = zeros_explicit(tag, n)
            assert report == zeros_of(spec, family, n)[0], (tag, n)
            assert (report.spec, report.family, report.n) == (spec.value, family, n)


def test_conjugate_closure_exact():
    for tag in ("z1q", "z1r", "z2", "z3"):
        for n in range(2, 31):
            points = zeros_explicit(tag, n).points
            conjugates = [z.conjugate() for z in points]
            assert match_multisets(points, conjugates) == 0.0, (tag, n)


def test_explicit_residuals_small():
    # scale-relative residuals stay far below 1e-7 everywhere
    for tag in ("z1q", "z1r", "z2", "z3"):
        for n in range(2, 31):
            report = zeros_explicit(tag, n)
            poly = family_poly(tag, n)
            for z, res in zip(report.points, report.residuals):
                assert res < 1e-7 * backward_scale(poly, z), (tag, n, z)


def test_explicit_residuals_max_coeff_scale_where_attainable():
    # the plain max-coefficient scale additionally holds for the bounded
    # families everywhere; for the vertical-line family the zeros grow like
    # n, and beyond these indices even the exact residual of the correctly
    # rounded zero exceeds it, so the scale-relative gate above is the one
    # that extends
    for tag, top in (("z2", 30), ("z3", 30), ("z1q", 20), ("z1r", 14)):
        for n in range(2, top + 1):
            report = zeros_explicit(tag, n)
            scale = max(abs(c) for c in family_poly(tag, n).coeffs)
            for res in report.residuals:
                assert res < 1e-7 * scale, (tag, n)


# ----------------------------------------------------- general root finder

def test_general_linear_and_quadratic():
    assert zeros_general(UniPoly((2, 1))).points == [-2.0 + 0j]
    report = zeros_general(UniPoly((5, 4, 1)))
    assert match_multisets(report.points, [-2 + 1j, -2 - 1j]) < 1e-12


def test_general_strips_origin_zeros():
    report = zeros_general(UniPoly((0, 0, 0, 2, 1)))   # z^3 (z + 2)
    assert report.origin_multiplicity == 3
    assert match_multisets(report.points, [-2.0 + 0j]) < 1e-12


def test_general_agrees_with_explicit_fixture():
    report = zeros_general(UniPoly((4, 11, 13)))
    explicit = zeros_explicit("z3", 3)
    assert match_multisets(report.points, explicit.points) < 1e-10


def test_general_rejects_constants():
    with pytest.raises(ValueError):
        zeros_general(UniPoly((7,)))
    with pytest.raises(ValueError):
        zeros_general(UniPoly.zero())


def test_general_no_convergence_reports_trace():
    with pytest.raises(NoConvergence) as err:
        zeros_general(UniPoly((1, 3, -2, 5, 1, 1, 4)), max_iter=1)
    assert err.value.iterations == 1
    assert len(err.value.trace) == 1


def test_general_deterministic():
    poly = spec_family(SpecId.P1, "q", 7)
    a = zeros_general(poly).points
    b = zeros_general(poly).points
    assert a == b


def test_path_agreement_all_families():
    worst = 0.0
    for tag in ("z1q", "z1r", "z2", "z3"):
        for n in range(2, 21):
            explicit = zeros_explicit(tag, n)
            general = zeros_general(family_poly(tag, n))
            worst = max(worst, match_multisets(explicit.points, general.points))
    assert worst < 1e-8


def test_general_finder_recovers_z2_origin_multiplicity():
    for n in (3, 7, 12):
        full = spec_family(SpecId.Z2, "q", n)
        general = zeros_general(full)
        explicit = zeros_explicit("z2", n)
        assert general.origin_multiplicity == explicit.origin_multiplicity == n - 1
        assert match_multisets(general.points, explicit.points) < 1e-8


def test_zero_map_count_guard(monkeypatch):
    # a Lucas point list one short of the polynomial's degree is refused
    monkeypatch.setattr("trident.zeros._lucas_points",
                        lambda *args: _lucas_points(*args)[:-1])
    with pytest.raises(AssertionError, match="Lucas zero count"):
        zeros_of(SpecId.Z2, "q", 5)


@pytest.fixture
def fresh_lucas():
    _lucas.cache_clear()
    yield
    _lucas.cache_clear()


def test_lucas_corrupted_factor_trips_count_guard(monkeypatch, fresh_lucas):
    # a b off by a factor z^2 raises the degree of every factor N - 4c D
    # from 2 to 4, so the points outnumber the member's zeros
    monkeypatch.setattr("trident.zeros.spec_images", lambda spec: (
        spec_images(spec)[0], spec_images(spec)[1] * UniPoly.monomial(2)))
    with pytest.raises(AssertionError, match="Lucas zero count"):
        zeros_of(SpecId.Z3, "q", 5)


def test_zeros_of_routes():
    # both routes label the report the same way and return the polynomial
    # whose zeros the points are, with the zero at the origin split off;
    # a Lucas row's polynomial is the member itself, with each zero of
    # g = gcd(a, b) left simple (g = 1 + z for p5), and a finder row's the
    # square-free part (which for p2 r keeps one factor z); the residuals
    # are taken on that polynomial
    p2_r = up_square_free(spec_family(SpecId.P2, "r", 9))
    for spec, family, poly, origin in (
            (SpecId.Z1, "r", spec_family(SpecId.Z1, "r", 9), 0),
            (SpecId.Z2, "q", reduced_q2(9), 8),
            (SpecId.P2, "q", split_origin(spec_family(SpecId.P2, "q", 9))[1], 1),
            (SpecId.P3, "q", spec_family(SpecId.P3, "q", 9), 0),
            (SpecId.P1, "q", spec_family(SpecId.P1, "q", 9), 0),
            (SpecId.P2, "r", UniPoly(p2_r.coeffs[1:]), 1),
            (SpecId.P1, "r", up_square_free(spec_family(SpecId.P1, "r", 9)), 0)):
        report, got = zeros_of(spec, family, 9)
        assert (report.spec, report.family, report.n) == (spec.value, family, 9)
        assert got == poly and poly.coeff(0) != 0, (spec, family)
        assert report.origin_multiplicity == origin
        assert report.residuals == [abs(poly.evaluate(z)) for z in report.points]
        for z in report.points:
            assert abs(poly.evaluate(z)) < 1e-7 * backward_scale(poly, z), (spec, z)
        assert (report.locus_distances is None) == ((spec, family) not in LOCI)
    # p5 q carries g = 1 + z to a high power; its polynomial divides the
    # member and keeps -1 as a simple zero
    member = spec_family(SpecId.P5, "q", 9)
    report, got = zeros_of(SpecId.P5, "q", 9)
    assert got.degree() == up_square_free(member).degree() == len(report.points)
    up_divide_exact(member, got)
    assert got.evaluate(-1) == 0 != up_divide_exact(got, UniPoly((1, 1))).evaluate(-1)
    # the general route is the root finder at its default tolerance and seed
    general = zeros_general(up_square_free(spec_family(SpecId.P1, "r", 9)))
    assert zeros_of(SpecId.P1, "r", 9)[0].points == general.points
    for spec, family, n in ((SpecId.Z1, "q", 1), (SpecId.P1, "q", 1), (SpecId.Z0, "r", 5)):
        with pytest.raises(ValueError, match="has no zeros"):
            zeros_of(spec, family, n)


def test_lucas_route_agrees_with_square_free_finder():
    # every q family and z1 r, against the root finder on the square-free part
    worst = 0.0
    for spec in SpecId:
        for family in ("q", "r") if spec is SpecId.Z1 else ("q",):
            for n in range(2, 17):
                member = spec_family(spec, family, n)
                if member.degree() < 1:
                    continue
                lucas = zeros_of(spec, family, n)[0]
                general = zeros_general(up_square_free(member))
                assert lucas.origin_multiplicity >= general.origin_multiplicity
                worst = max(worst, match_multisets(lucas.points, general.points))
    assert worst < 1e-8


# ------------------------------------------------------------------ loci

def test_locus_z1():
    for n in range(2, 21):
        report = verify_locus(SpecId.Z1, n)
        assert report.ok, (n, report.failures)


def test_locus_z2_margins():
    for n in range(2, 21):
        report = verify_locus(SpecId.Z2, n)
        assert report.ok, (n, report.failures)
        assert report.margins["im_above_third"] > 0


def test_locus_z3_margins():
    for n in range(2, 21):
        report = verify_locus(SpecId.Z3, n)
        assert report.ok, (n, report.failures)
        assert report.margins["re_below_half"] > 0


def test_locus_presets():
    for spec in (SpecId.P3, SpecId.P5, SpecId.P6):
        for n in range(2, 11):
            report = verify_locus(spec, n)
            assert report.ok, (spec, n, report.failures)
    # the negative-real segment is recorded, not asserted against endpoints
    margins = verify_locus(SpecId.P5, 5).margins
    assert margins["real_zero_min"] <= margins["real_zero_max"] < 0


def test_locus_p3_high_indices():
    # the square-free finder left these zeros off the circle: 0.0064 at
    # n = 22 and 0.87 at n = 60
    for n in (22, 26, 60):
        report = verify_locus(SpecId.P3, n)
        assert report.ok, (n, report.failures[:3])


def test_locus_p5_p6_high_indices():
    # the square-free finder left these zeros 5.4e-4 off at n = 30
    for spec in (SpecId.P5, SpecId.P6):
        for n in (30, 40):
            report = verify_locus(spec, n)
            assert report.ok, (spec, n, report.failures[:3])


def test_locus_rejects_unclaimed():
    with pytest.raises(ValueError):
        verify_locus(SpecId.P1, 5)
    with pytest.raises(ValueError):
        verify_locus(SpecId.Z1, 1)


def test_locus_real_zero_parity_is_a_row_fact(monkeypatch):
    row = LOCI[SpecId.Z1, "q"]
    monkeypatch.setitem(LOCI, (SpecId.Z1, "q"), row._replace(real_zero_parity=1))
    assert verify_locus(SpecId.Z1, 4).failures == ["z1q: expected 0 real zero(s), found 1"]


def test_locus_off_locus_zero_is_recorded(monkeypatch):
    # a distance that puts every point off the line fails at each point,
    # under the family's tag: z1 claims a locus for both families
    row = LOCI[SpecId.Z1, "q"]
    monkeypatch.setitem(LOCI, (SpecId.Z1, "q"), row._replace(distance=lambda z: 1.0))
    points = zeros_of(SpecId.Z1, "q", 4)[0].points
    assert verify_locus(SpecId.Z1, 4).failures == [f"z1q: zero {z} off the line Re = -2"
                                                   for z in points]


def test_locus_margin_violation_is_recorded(monkeypatch):
    # a margin negative everywhere fails once, and its value is kept
    row = LOCI[SpecId.Z3, "q"]
    key, claim, _ = row.margin
    monkeypatch.setitem(LOCI, (SpecId.Z3, "q"), row._replace(margin=(key, claim, lambda z: -0.5)))
    report = verify_locus(SpecId.Z3, 5)
    assert report.failures == ["Re < 1/2 violated (margin -5.000e-01)"]
    assert report.margins["re_below_half"] == -0.5


def test_locus_residual_gate_reads_the_report(monkeypatch):
    real_zeros_of = zeros_of

    def inflated(spec, family, n):
        report, poly = real_zeros_of(spec, family, n)
        report.residuals[0] = 1e6 * backward_scale(poly, report.points[0])
        return report, poly

    monkeypatch.setattr("trident.zeros.zeros_of", inflated)
    failures = verify_locus(SpecId.Z3, 5).failures
    assert len(failures) == 1 and failures[0].startswith("residual "), failures


def test_real_zero_parity_pattern():
    # a single real zero at -2: q-family at even indices, r-family at odd
    for n in range(2, 16):
        q_reals = [z for z in zeros_explicit("z1q", n).points if z.imag == 0]
        r_reals = [z for z in zeros_explicit("z1r", n).points if z.imag == 0]
        assert len(q_reals) == (1 if n % 2 == 0 else 0), n
        assert len(r_reals) == (1 if n % 2 == 1 else 0), n
        for z in q_reals + r_reals:
            assert z.real == -2.0


def test_zero_report_residuals_finite():
    report = zeros_explicit("z1r", 14)
    assert all(math.isfinite(r) for r in report.residuals)
    assert all(math.isfinite(d) for d in report.locus_distances)
