"""The Lucas factor route, the simultaneous root finder, and locus verification."""

import cmath
import math
import os
import subprocess
import sys
from contextlib import suppress
from pathlib import Path

import pytest

from fixtures import match_multisets
from trident.polyring import (NotDivisible, UniPoly, horner, split_origin, up_divide_exact,
                              up_square_free)
from trident.specialize import SpecId, spec_family, spec_images
from trident.zeros import (LOCI, LOCUS_TOL, NoConvergence, NotCertified, _aberth, _certified,
                           _lucas, _lucas_points, backward_scale, verify_locus,
                           zeros_explicit, zeros_general, zeros_of)

# The rows ``zeros_explicit`` takes by tag.
EXPLICIT_TAGS = (("z1q", (SpecId.Z1, "q")), ("z1r", (SpecId.Z1, "r")),
                 ("z2", (SpecId.Z2, "q")), ("z3", (SpecId.Z3, "q")))


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
        return split_origin(spec_family(SpecId.Z2, "q", n))[1]
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
    tagged = [row for _, row in EXPLICIT_TAGS]
    z_rows = [key for key in LOCI if key[0] in (SpecId.Z1, SpecId.Z2, SpecId.Z3)]
    assert sorted(tagged, key=str) == sorted(z_rows, key=str)
    for spec, family in (*tagged, (SpecId.P2, "q"), (SpecId.P4, "q")):
        report = zeros_of(spec, family, 9)
        member = spec_family(spec, family, 9)
        origin = split_origin(member)[0]
        if (spec, family) in tagged:
            assert report.origin_multiplicity == origin
            assert len(report.points) + origin == member.degree()
        else:
            assert origin > 1 and report.origin_multiplicity == 1
    # the rule for every member with zeros: a LOCI row reports the whole
    # multiplicity at the origin, every other row at most 1; p3/p5/p6 q have
    # no zero there, since W2 vanishes at z = 0 and W1 does not.  The indices
    # stop at 20 to keep this test under 1 s (n = 30 adds 0.7 s, and there
    # z3 r's finder points are refused, which test_refusal_writes_nothing pins).
    for spec in SpecId:
        for family in ("q", "r"):
            for n in (2, 9, 20):
                member = spec_family(spec, family, n)
                if member.degree() < 1:
                    continue
                if (spec, family, n) == (SpecId.P3, "r", 20):
                    # the finder's points there fail the Newton inclusion test
                    with pytest.raises(NotCertified, match="p3/r member 20: "):
                        zeros_of(spec, family, n)
                    continue
                origin = split_origin(member)[0]
                report = zeros_of(spec, family, n)
                if (spec, family) in LOCI:
                    assert report.origin_multiplicity == origin, (spec, family, n)
                else:
                    assert report.origin_multiplicity == min(origin, 1), (spec, family, n)
                if spec in (SpecId.P3, SpecId.P5, SpecId.P6) and family == "q":
                    assert report.origin_multiplicity == 0, (spec, n)


def test_zeros_explicit_is_zeros_of():
    for tag, (spec, family) in EXPLICIT_TAGS:
        for n in range(2, 31):
            report = zeros_explicit(tag, n)
            assert report == zeros_of(spec, family, n), (tag, n)


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
            scales = backward_scale(poly, report.points)
            for z, res, scale in zip(report.points, report.residuals, scales):
                assert res < 1e-7 * scale, (tag, n, z)


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


def test_general_no_convergence_reports_trace(monkeypatch):
    monkeypatch.setattr("trident.zeros.DEFAULT_MAX_ITER", 1)
    with pytest.raises(NoConvergence) as err:
        zeros_general(UniPoly((1, 3, -2, 5, 1, 1, 4)))
    assert err.value.iterations == 1
    assert len(err.value.trace) == 1


def test_aberth_steps_off_a_zero_derivative(monkeypatch):
    # a point where P' evaluates to 0 is nudged off it rather than divided
    # by, and the iteration still finds the three cube roots of 2
    derivative_hits = []

    def first_derivative_zero(coeffs, z):
        if len(coeffs) == 3 and not derivative_hits:   # P' of the cubic
            derivative_hits.append(z)
            return 0j
        return horner(coeffs, z)
    monkeypatch.setattr("trident.zeros.horner", first_derivative_zero)
    roots = _aberth([-2 + 0j, 0j, 0j, 1 + 0j])
    assert len(derivative_hits) == 1
    cube_roots = [2 ** (1 / 3) * cmath.exp(2j * math.pi * k / 3) for k in range(3)]
    assert match_multisets(roots, cube_roots) < 1e-12
    assert max(abs(z**3 - 2) for z in roots) < 1e-12


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
        spec_images(spec)[0], spec_images(spec)[1] * UniPoly((0, 0, 1))))
    with pytest.raises(AssertionError, match="Lucas zero count"):
        zeros_of(SpecId.Z3, "q", 5)


def test_zeros_of_routes():
    # both routes carry the polynomial whose zeros the points are, with the
    # zero at the origin split off; a Lucas row's polynomial is the member
    # itself, with each zero of g = gcd(a, b) left simple (g = 1 + z for
    # p5), and a finder row's the square-free part (which for p2 r keeps one
    # factor z); the residuals are taken on that polynomial
    p2_r = up_square_free(spec_family(SpecId.P2, "r", 9))
    for spec, family, poly, origin in (
            (SpecId.Z1, "r", spec_family(SpecId.Z1, "r", 9), 0),
            (SpecId.Z2, "q", family_poly("z2", 9), 8),
            (SpecId.P2, "q", split_origin(spec_family(SpecId.P2, "q", 9))[1], 1),
            (SpecId.P3, "q", spec_family(SpecId.P3, "q", 9), 0),
            (SpecId.P1, "q", spec_family(SpecId.P1, "q", 9), 0),
            (SpecId.P2, "r", UniPoly(p2_r.coeffs[1:]), 1),
            (SpecId.P1, "r", up_square_free(spec_family(SpecId.P1, "r", 9)), 0)):
        report = zeros_of(spec, family, 9)
        assert report.poly == poly and poly.coeff(0) != 0, (spec, family)
        assert report.origin_multiplicity == origin
        assert report.residuals == [abs(horner(poly.coeffs, z)) for z in report.points]
        for z, scale in zip(report.points, backward_scale(poly, report.points)):
            assert abs(horner(poly.coeffs, z)) < 1e-7 * scale, (spec, z)
        assert (report.locus_distances is None) == ((spec, family) not in LOCI)
    # p5 q carries g = 1 + z to a high power; its polynomial divides the
    # member and keeps -1 as a simple zero
    member = spec_family(SpecId.P5, "q", 9)
    report = zeros_of(SpecId.P5, "q", 9)
    got = report.poly
    assert got.degree() == up_square_free(member).degree() == len(report.points)
    up_divide_exact(member, got)
    assert horner(got.coeffs, -1) == 0 != horner(up_divide_exact(got, UniPoly((1, 1))).coeffs, -1)
    # the finder route gives what zeros_general gives on the square-free
    # part, the root finder at its default tolerance and seed
    general = zeros_general(up_square_free(spec_family(SpecId.P1, "r", 9)))
    assert zeros_of(SpecId.P1, "r", 9) == general
    for spec, family, n in ((SpecId.Z1, "q", 1), (SpecId.P1, "q", 1), (SpecId.Z0, "r", 5)):
        with pytest.raises(ValueError, match="has no zeros"):
            zeros_of(spec, family, n)


def test_certificate_refuses_points_moved_off():
    # the finder's points of p1 r at n = 9 pass; moved off by 1e-3, each
    # Newton inclusion radius is far above LOCUS_TOL (1 + |z|)
    report = zeros_of(SpecId.P1, "r", 9)
    assert _certified("p1/r member 9", report) is report
    moved = report._replace(points=[z + 1e-3 for z in report.points])
    with pytest.raises(NotCertified, match="p1/r member 9: zeros not certified") as err:
        _certified("p1/r member 9", moved)
    assert 1e-4 < err.value.radius < 1.0
    # one zero reported twice and another left out: every radius is small,
    # but two disks overlap
    twice = report._replace(points=report.points[:1] + report.points[:-1])
    with pytest.raises(NotCertified) as err:
        _certified("p1/r member 9", twice)
    assert err.value.radius <= LOCUS_TOL


def test_finder_route_refuses_what_it_cannot_certify():
    # p1 r at n = 30 and 60 get points up to 0.75 and 3.9 away from every
    # zero; z3 r at n = 30 gets a NaN point
    for spec, n in ((SpecId.P1, 30), (SpecId.P1, 60), (SpecId.Z3, 30)):
        with pytest.raises(NotCertified, match=f"{spec.value}/r member {n}: ") as err:
            zeros_of(spec, "r", n)
        assert not err.value.radius <= LOCUS_TOL, (spec, n)   # above it, or NaN


# The first n at which the finder route refused each r family up to n = 30
# when it took the square-free part (z2 and p4 r answer for every n <= 30).
FIRST_REFUSED = {SpecId.Z3: 28, SpecId.P1: 27, SpecId.P2: 21, SpecId.P3: 20, SpecId.P5: 27,
                 SpecId.P6: 27}


def test_finder_route_polynomial_is_the_square_free_part():
    # the member with z^k split off, g kept once and the content divided out
    # is its square-free part with z split off, and the certificate refuses
    # where the square-free route did; z3 r at n = 27, whose residual at its
    # zero near -3^27 / 4 overflows a double, is refused too; z2, p2 and p4 r
    # at n = 1 and p4 r at n = 2 are z^k c, with no zero but the origin
    finder = [spec for spec in SpecId if not _lucas(spec)[4]]
    assert finder == [spec for spec in SpecId if spec not in (SpecId.Z0, SpecId.Z1)]
    for spec in finder:
        for n in range(1, 31):
            if n >= FIRST_REFUSED.get(spec, 31):
                with pytest.raises(NotCertified, match=f"{spec.value}/r member {n}: "):
                    zeros_of(spec, "r", n)
                continue
            if (spec, n) == (SpecId.Z3, 27):
                with pytest.raises(OverflowError, match="residual overflows"):
                    zeros_of(spec, "r", n)
                continue
            member = spec_family(spec, "r", n)
            report = zeros_of(spec, "r", n)
            assert report.poly == split_origin(up_square_free(member))[1], (spec, n)
            assert report.origin_multiplicity == min(split_origin(member)[0], 1), (spec, n)
            assert len(report.points) == report.poly.degree()
    for spec, n in ((SpecId.Z2, 1), (SpecId.P2, 1), (SpecId.P4, 1), (SpecId.P4, 2)):
        assert split_origin(spec_family(spec, "r", n))[1].degree() == 0
        assert zeros_of(spec, "r", n) == ([], [], None, 1, UniPoly((1,)))


def test_finder_route_runs_no_remainder_sequence(monkeypatch):
    # the certificate proves the zeros simple, so no gcd of P and P' is
    # formed; _lucas, cached per spec, takes the only gcds (of a and b)
    _lucas(SpecId.P2)

    def refused(*args):
        raise AssertionError("a pseudo-remainder sequence ran")

    monkeypatch.setattr("trident.polyring._pseudo_remainder", refused)
    report = zeros_of(SpecId.P2, "r", 20)
    assert len(report.points) == report.poly.degree() == 37


def test_finder_route_refuses_within_its_budget():
    # p2 r at n = 150 is refused in well under a second; the primitive
    # remainder sequence of the square-free part took more than 40 s
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-m", "trident.cli", "zeros", "--spec", "p2",
                           "--family", "r", "--n", "150"], capture_output=True, text=True,
                          env=env, timeout=5)
    assert (done.returncode, done.stdout) == (3, ""), done.stderr


def test_lucas_polynomial_takes_one_division():
    # the polynomial of a Lucas row, taken by one division by the power of g
    # the points leave over, is the one of dividing g out while it divides
    # and putting it back once (g = 1 + z for p5 and p6, 1 elsewhere)
    for spec, family in LOCI:
        g = _lucas(spec)[3]
        for n in range(61):
            member = spec_family(spec, family, n)
            if member.degree() < 1:
                continue
            expected = split_origin(member)[1]
            if g.degree() >= 1:
                with suppress(NotDivisible):
                    while True:
                        expected = up_divide_exact(expected, g)
                expected = expected * g
            assert zeros_of(spec, family, n).poly == expected, (spec, family, n)


def test_lucas_route_agrees_with_square_free_finder():
    # every q family and z1 r, against the root finder on the square-free part
    worst = 0.0
    for spec in SpecId:
        for family in ("q", "r") if spec is SpecId.Z1 else ("q",):
            for n in range(2, 17):
                member = spec_family(spec, family, n)
                if member.degree() < 1:
                    continue
                lucas = zeros_of(spec, family, n)
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
    points = zeros_of(SpecId.Z1, "q", 4).points
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
        report = real_zeros_of(spec, family, n)
        report.residuals[0] = 1e6 * backward_scale(report.poly, report.points[:1])[0]
        return report

    monkeypatch.setattr("trident.zeros.zeros_of", inflated)
    failures = verify_locus(SpecId.Z3, 5).failures
    assert len(failures) == 1 and failures[0].startswith("residual "), failures


def test_locus_residual_gate_fails_an_infinite_scale():
    # the scale overflows a double before the residual does (z1 at n = 156,
    # p5 at 260): a gate that cannot be evaluated fails
    for spec, n in ((SpecId.Z1, 156), (SpecId.P5, 260)):
        failures = verify_locus(spec, n).failures
        assert failures and all(label.endswith("* scale inf") for label in failures), failures


def test_locus_residual_labels_name_the_family(monkeypatch):
    # with a zero tolerance every residual fails; z1 claims a locus for both
    # families, so each residual label starts with its family's tag
    monkeypatch.setattr("trident.zeros.LOCUS_TOL", 0.0)
    residuals = [label for label in verify_locus(SpecId.Z1, 4).failures
                 if "residual " in label]
    assert residuals
    assert all(label.startswith(("z1q: residual ", "z1r: residual ")) for label in residuals)
    assert {label[:5] for label in residuals} == {"z1q: ", "z1r: "}


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
    # a residual that is not finite is refused: the float Horner overflows
    # far below a coefficient's own limit (n = 515), first at z1 r n = 160
    # and z1 q n = 182
    for family, n in (("r", 160), ("q", 182)):
        assert all(map(math.isfinite, zeros_of(SpecId.Z1, family, n - 1).residuals))
        with pytest.raises(OverflowError, match="residual overflows a double"):
            zeros_of(SpecId.Z1, family, n)


def locus_points(params):
    """(point, distance) pairs on the geometry ``params`` describe: each
    point on it, at distance 0, and moved off it by a known distance."""
    offsets = (0.0, -0.1, -0.01, 0.01, 0.1)
    kind = params["type"]
    if kind == "union":
        return [pair for part in params["components"] for pair in locus_points(part)]
    if kind == "line":
        return [(complex(params["re"] + d, t), abs(d)) for t in (-3.0, 0.0, 0.5, 7.0)
                for d in offsets]
    if kind == "circle":
        # angles at least pi/7 off the real axis, so that a point moved off
        # the unit circle stays farther from the negative real axis
        centre = complex(*params["center"])
        return [(centre + (params["radius"] + d) * cmath.exp(1j * k * math.pi / 7), abs(d))
                for k in (-6, -4, -1, 1, 3, 5) for d in offsets]
    if kind == "segment" and params["axis"] == "negative-real":
        return [(complex(-x, d), abs(d)) for x in (0.25, 2.0, 5.0) for d in offsets]
    raise AssertionError(f"no geometry for the locus {params}")


def test_locus_distance_matches_its_params():
    # the locus --locus prints (params) and the one verify checks (distance)
    # are stated apart in each LOCI row: each must describe the other
    for key, locus in LOCI.items():
        for z, offset in locus_points(locus.params):
            if offset:
                assert abs(locus.distance(z) - offset) <= 1e-12, (key, z)
            else:
                assert locus.distance(z) <= 1e-15, (key, z)
