"""Cross-sequence identities, divisibility, and mutation tests of the harness."""

import hashlib
import json

import pytest

from fixtures import Q6_OVER_Q3_Z3, Q6_Z3_FACTORS, R6_Z1_FACTORS, TABLE1
from trident.identities import (DIVISIBILITY_SPECS, verify_divisibility, verify_prop61,
                                verify_surprising, verify_telescoping)
from trident.polyring import MultiPoly, NotDivisible, UniPoly, up_divide_exact
from trident.sequences import q_poly, r_poly
from trident.specialize import SpecId, spec_family


def poly_from_factors(factors) -> UniPoly:
    out = UniPoly.one()
    for coeffs in factors:
        out = out * UniPoly(coeffs)
    return out


def test_prop61_hand_expansion_at_one():
    # wxz * Q_1 = R_2 - (w+x+y) R_1 with both sides from the reference table
    wxz = MultiPoly([(1, 1, 0, 1, 1)])
    s1 = MultiPoly(TABLE1[1])
    assert wxz == MultiPoly(TABLE1[4]) - s1 * s1
    # R_1 = Q_2 - (wxy+wz+xz) Q_1
    coupling = MultiPoly([(1, 1, 1, 0, 1), (1, 0, 0, 1, 1), (0, 1, 0, 1, 1)])
    assert s1 == MultiPoly(TABLE1[3]) - coupling


def test_prop61_range():
    report = verify_prop61(12)
    assert report.ok
    assert len(report.status) == 24
    assert report.witness is None


def test_telescoping_range():
    report = verify_telescoping(12)
    assert report.ok
    assert report.status["r-telescope N=1"] and report.status["q-telescope N=1"]


def test_divisibility_all_specs():
    for spec in DIVISIBILITY_SPECS:
        report = verify_divisibility(spec, 24)
        assert report.ok, (spec, report.failures)
        assert report.status["q[1] | q[24]"]


def test_divisibility_validation():
    with pytest.raises(ValueError):
        verify_divisibility(SpecId.P1, 12)
    with pytest.raises(ValueError):
        verify_divisibility(SpecId.Z1, 1)


def test_z3_factorization_fixture():
    q6 = spec_family(SpecId.Z3, "q", 6)
    assert q6 == poly_from_factors(Q6_Z3_FACTORS)
    quotient = up_divide_exact(q6, spec_family(SpecId.Z3, "q", 3))
    assert quotient == UniPoly(Q6_OVER_Q3_Z3)
    up_divide_exact(q6, spec_family(SpecId.Z3, "q", 2))


def test_r1_partial_divisibility_fixture():
    r6 = spec_family(SpecId.Z1, "r", 6)
    assert r6 == poly_from_factors(R6_Z1_FACTORS)
    up_divide_exact(r6, spec_family(SpecId.Z1, "r", 2))
    for m in (1, 3):
        with pytest.raises(NotDivisible):
            up_divide_exact(r6, spec_family(SpecId.Z1, "r", m))
    report = verify_divisibility(SpecId.Z1, 6)
    assert report.status["r[2] | r[6]"]
    assert report.status["r[1] does not divide r[6]"]
    assert report.status["r[3] does not divide r[6]"]


def test_surprising_small_cases_by_hand():
    report = verify_surprising(2)
    assert report.ok
    q2 = spec_family(SpecId.Z1, "q", 2)
    r2 = spec_family(SpecId.Z1, "r", 2)
    assert r2 - q2 == UniPoly((1, 2, 1))
    assert r2 + q2 == UniPoly((9, 6, 1))


def test_surprising_range():
    assert verify_surprising(40).ok


# ------------------------------------------------------- mutation testing

def perturbed_multi(sequence, index):
    """Add one stray monomial to the polynomial at one index."""
    def wrapped(n):
        p = sequence(n)
        if n == index:
            return p + MultiPoly([(0, 0, 0, 7, 1)])
        return p
    return wrapped


def test_mutation_breaks_prop61(monkeypatch):
    with monkeypatch.context() as m:
        m.setattr("trident.identities.q_poly", perturbed_multi(q_poly, 3))
        report = verify_prop61(5)
    assert not report.ok
    witness = json.loads(report.witness)
    assert "lhs" in witness and "rhs" in witness
    monkeypatch.setattr("trident.identities.r_poly", perturbed_multi(r_poly, 4))
    report = verify_prop61(5)
    assert not report.ok


def test_mutation_breaks_telescoping(monkeypatch):
    monkeypatch.setattr("trident.identities.q_poly", perturbed_multi(q_poly, 2))
    report = verify_telescoping(5)
    assert not report.ok and report.witness is not None


# sha256 of json.dumps([list(status.items()), witness]) of verify_telescoping(12)
# with the sequences as they are and with q_poly or r_poly perturbed.
TELESCOPING_DIGESTS = {
    "default": "a63384ea0a2788550e2bbf97cc86137f43988bd06c7a8d56ab3968360dac42a6",
    "q[5]": "7741c5aeef42450d8855d27b8f9d55f1c97dc5c9900eef155e768b546b8b639c",
    "r[3]": "e7563ede0f13f49155a2105173725dfe4da9d2c6ccd989d9e8bc50023bc03fa1",
}


def test_telescoping_reports_pinned_by_digest(monkeypatch):
    patches = {"default": (), "q[5]": ("q_poly", perturbed_multi(q_poly, 5)),
               "r[3]": ("r_poly", perturbed_multi(r_poly, 3))}
    for name, patch in patches.items():
        with monkeypatch.context() as m:
            if patch:
                m.setattr(f"trident.identities.{patch[0]}", patch[1])
            report = verify_telescoping(12)
        payload = json.dumps([list(report.status.items()), report.witness])
        assert hashlib.sha256(payload.encode()).hexdigest() == TELESCOPING_DIGESTS[name], name


def perturbed_member(spec, family, index, delta):
    """``spec_family`` with ``delta`` added to one member."""
    def wrapped(s, f, n):
        p = spec_family(s, f, n)
        return p + delta if (s, f, n) == (spec, family, index) else p
    return wrapped


def test_mutation_breaks_divisibility(monkeypatch):
    monkeypatch.setattr("trident.identities.spec_family",
                        perturbed_member(SpecId.Z3, "q", 4, UniPoly((0, 1))))
    report = verify_divisibility(SpecId.Z3, 4)
    assert not report.ok
    assert report.failures[0] == "q[2] | q[4]"


def test_mutation_breaks_surprising(monkeypatch):
    monkeypatch.setattr("trident.identities.spec_family",
                        perturbed_member(SpecId.Z1, "q", 3, UniPoly((1,))))
    report = verify_surprising(4)
    assert not report.ok
    assert json.loads(report.witness)["check"].endswith("n=3")


def test_status_exhaustive_over_range():
    report = verify_surprising(7)
    labels = {label.rsplit("=", 1)[-1] for label in report.status}
    assert labels == {str(n) for n in range(8)}
