"""Single-variable families: reference tables, closed forms, statistics, structure."""

import hashlib
import json
import math

import pytest

from fixtures import TABLE2_Q, TABLE2_R, TABLE3, TABLE4
from trident.polyring import UniPoly, poly_substitute, split_origin
from trident.sequences import q_poly, r_poly
from trident.specialize import (STRUCTURE, SpecId, _walk, partition_statistic, profile,
                                profile_from_oracle, q1_r1_closed, spec_family,
                                spec_family_sweep, spec_images, structural_check)
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
    for call in (spec_family, spec_family_sweep, profile, profile_from_oracle, zeros_of):
        for family in ("Q", "R"):
            with pytest.raises(ValueError, match="family must be 'q' or 'r'"):
                call(SpecId.Z1, family, 5)


def test_family_sweep_is_spec_family_and_writes_no_memo():
    # spec --upto walks this sweep; the spec's library memo gains no entry
    for spec in SpecId:
        for family in ("q", "r"):
            memo = _walk(spec)[1]
            before = set(memo)
            swept = list(spec_family_sweep(spec, family, 30))
            assert set(memo) == before, (spec, family)
            assert swept == [spec_family(spec, family, n) for n in range(31)], (spec, family)


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
    # the z1 rows "shifted by -2" of STRUCTURE, and the same claim checked
    # coefficient-wise on the closed forms
    for n in range(1, 41):
        report = structural_check(SpecId.Z1, n)
        assert report.ok, (n, report.failures)
    for n in range(41):
        q_shift, r_shift = (p.shift_argument(-2) for p in q1_r1_closed(n))
        for j, c in enumerate(q_shift.coeffs):
            assert c == (math.comb(n, n - j) if (n - j) % 2 else 0)
        for j, c in enumerate(r_shift.coeffs):
            assert c == (0 if (n - j) % 2 else math.comb(n, n - j))


def test_shifted_forms_pinned_by_digest():
    # sha256 of the json list of [q, r] serializations for n <= 40
    values = [[q.shift_argument(-2).to_strings(), r.shift_argument(-2).to_strings()]
              for q, r in map(q1_r1_closed, range(41))]
    digest = hashlib.sha256(json.dumps(values).encode()).hexdigest()
    assert digest == "f97d2715221d039369b4a3fe5b7d18e38be3ee429d15505b7aba0ee92043f179"


def test_reduced_q2_values():
    # the z2 q member is z^(n-1) times a polynomial with nonzero constant term
    for n, reduced in ((1, (1,)), (2, (3, 0, 3)), (3, (9, 0, 10, 0, 9))):
        assert split_origin(spec_family(SpecId.Z2, "q", n)) == (n - 1, UniPoly(reduced))


def test_reduced_q2_palindromic_symmetry():
    # coefficient symmetry: counts at n-1+j and 3n-3-j agree
    for n in range(1, 13):
        full = spec_family(SpecId.Z2, "q", n)
        reduced = split_origin(full)[1]
        assert reduced.is_palindromic()
        assert reduced.coeff(0) != 0
        assert reduced.degree() == 2 * (n - 1)
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
    assert profile(SpecId.Z1, "q", 2) == {0: 4, 1: 2}
    # partitions of 4 by single unmarked parts: 5, 4, 1
    assert profile(SpecId.Z1, "r", 2) == {0: 5, 1: 4, 2: 1}
    # partitions of 3 by unmarked parts plus pairs: two with none, four with one
    assert profile(SpecId.Z3, "q", 2) == {0: 2, 1: 4}


def test_profiles_match_oracle_all_specs():
    for spec in ALL_SPECS:
        for n in range(1, 5):
            assert profile(spec, "q", n) == profile_from_oracle(spec, "q", n), (spec, n)
    for n in range(1, 5):
        assert profile(SpecId.Z1, "r", n) == profile_from_oracle(SpecId.Z1, "r", n), n


def test_structural_checks_hold():
    for n in range(1, 17):
        for spec in STRUCTURE:
            report = structural_check(spec, n)
            assert report.ok, (spec, n, report.failures)


def test_every_structure_row_can_fail(monkeypatch):
    # for 2 <= n <= 8 each claim fails, under its own label, when the member
    # p is replaced by at least one of 2p, z p and p + 1
    real_family = spec_family
    caught = set()
    for corrupt in (lambda p: 2 * p, lambda p: UniPoly((0, 1)) * p, lambda p: p + 1):
        monkeypatch.setattr("trident.specialize.spec_family",
                            lambda spec, family, n, corrupt=corrupt:
                            corrupt(real_family(spec, family, n)))
        for spec, rows in STRUCTURE.items():
            for n in range(2, 9):
                failures = structural_check(spec, n).failures
                caught.update((spec, family, claim, n) for family, claim, _ in rows
                              if any(f.startswith(f"{family} {claim} ") for f in failures))
    claims = [(spec, family, claim, n) for spec, rows in STRUCTURE.items()
              for family, claim, _ in rows for n in range(2, 9)]
    assert [c for c in claims if c not in caught] == []


def test_shifted_rows_catch_an_added_linear_term(monkeypatch):
    # p + z keeps the degree and the constant and leading coefficients of
    # every z1 member with n >= 3: of the z1 rows only the two shifted ones
    # can see it, and both do
    real_family = spec_family
    monkeypatch.setattr("trident.specialize.spec_family",
                        lambda spec, family, n: real_family(spec, family, n) + UniPoly((0, 1)))
    for n in range(3, 17):
        failures = structural_check(SpecId.Z1, n).failures
        assert [f.split(" UniPoly(")[0] for f in failures] == [
            "q shifted by -2", "r shifted by -2"], (n, failures)


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


def test_p5_and_p6_share_one_memo():
    # every digit matrix is invariant under w <-> x, so the two specs have
    # equal images of its entries and read their members from one memo
    for family in ("q", "r"):
        for n in range(31):
            assert spec_family(SpecId.P6, family, n) is spec_family(SpecId.P5, family, n)


def _digest(values) -> str:
    return hashlib.sha256(json.dumps(values).encode()).hexdigest()


def _spec_values_digests() -> dict[tuple, str]:
    from trident.chebyshev import ChebKind, chebyshev, dickson_D, dickson_E
    from trident.sequences import W1, W2
    out = {}
    for spec in ALL_SPECS:
        for family in ("q", "r"):
            out[(spec.value, family)] = _digest(
                [spec_family(spec, family, n).to_strings() for n in range(65)])
    for kind in ChebKind:
        out[("chebyshev", kind.value)] = _digest(
            [chebyshev(kind, n).to_strings() for n in range(201)])
    for name, companion in (("E", dickson_E), ("D", dickson_D)):
        out[("dickson", name)] = _digest(
            [companion(n, W1, W2).to_records() for n in range(13)])
    return out


# sha256 of the json list of member serializations, n ascending: every
# specialized family at n <= 64, Chebyshev T/U at n <= 200, and the Dickson
# companions E_n/D_n(W1, W2) at n <= 12.
PINNED_SPEC_DIGESTS = {
    ("z0", "q"): "f953ef8c83c296c7ec3077566d04f06c6255c8bdbb7ceb8e0b3d02fdd4e3ad78",
    ("z0", "r"): "0b2cc4f59e66504586b8d2d2e52ad8f0a5a8dbd9449f0b008234996975b6fb8f",
    ("z1", "q"): "6d3013503d9dcd8c93f084b3b02b707ce63cf8a86628bc2d7a5ba39732cec241",
    ("z1", "r"): "14d071d3b0b5ec3e1b666d8610d208b61c8d0e833504950482b4e5ba8f10729a",
    ("z2", "q"): "0bcbae94d608235f06bd78387120d30adff20043b5cdfceea3eb9bda6638a329",
    ("z2", "r"): "90cc346311a9b32672011710b42c4d02b6c0bdfc709c95ce57d56c87a03ddba9",
    ("z3", "q"): "06f3eb99c6b552e28406e6d582625d4fb81ad95bb9c271583410c3cd61b2f5d3",
    ("z3", "r"): "020dff6beea9148b51bd13a22c4bf3ccb41f6ee1597b753fb19dce7813296622",
    ("p1", "q"): "97847720bf3f856940b1baf320d68592f9f25ebf19a6f4f928f24361956bede5",
    ("p1", "r"): "273e388a3c7d5c860c30ed6fef0c56e94924c2ef44b3dd9ef4eeff4c56427a84",
    ("p2", "q"): "0d86b211703a049145b381115fcd9107ddbfb3b63a9838f2009e9e318b1dee31",
    ("p2", "r"): "68004b694b7d1c1918f9b4494b5c8ce6a12373ca955c686d0a4bbe4eb69d3235",
    ("p3", "q"): "48102c273ba5e7099ab37654109610e14ca0f45ba6e447ffb9e8c399f5012c2c",
    ("p3", "r"): "35dce2c0f359632ea62301cf558513a69043d5e18a715da03e07633950d704ec",
    ("p4", "q"): "65bea69c0c412511c68d7b32e221af0beb70b3ca70f378ed4a4ea6d38d7346e0",
    ("p4", "r"): "582b7678f3de8a12a407ba33a0f61d149521d97c45f36d2a89753d177459be64",
    ("p5", "q"): "221c153597ef71447063a29c1ba3ca90cd4a703459c3c5e474f5e866aca794db",
    ("p5", "r"): "1dd325fcc6bb100f6b613661cf63ab4c9e7a5f703e22817758ea322e6600f4a6",
    ("p6", "q"): "221c153597ef71447063a29c1ba3ca90cd4a703459c3c5e474f5e866aca794db",
    ("p6", "r"): "1dd325fcc6bb100f6b613661cf63ab4c9e7a5f703e22817758ea322e6600f4a6",
    ("chebyshev", "T"): "845add6b32d5cecf952f658eddcc099afdaaaa3087903724ed6efdc98b67e280",
    ("chebyshev", "U"): "5e5e7bb3765af785bb4db165f1569ac3817f32126beb6831b2dc9a9dd6c1d972",
    ("dickson", "E"): "cda39b8a3f9554c3e4dbff744bfa32d8927b35c396ed7d235dff79e0ae9be480",
    ("dickson", "D"): "c032ef6d25d2951e0fd8004a7f9f654230f99f3d52687a23cbebc18ef9e0ba77",
}


def test_spec_values_pinned_by_digest():
    digests = _spec_values_digests()
    for key, digest in PINNED_SPEC_DIGESTS.items():
        assert digests[key] == digest, key
