"""Acceptance criteria: one test per criterion, each printed as a pass/fail line.

Every expected value here comes from the frozen fixtures or from an
independent oracle computed inside the test; tolerances and runtime
budgets are pinned, not calibrated.
"""

import math
import time

import pytest

from fixtures import (Q6_OVER_Q3_Z3, Q6_Z3_FACTORS, R6_Z1_FACTORS,
                      SEQUENCE_COUNTS, TABLE1, TABLE2_Q, TABLE2_R, TABLE3,
                      TABLE4, match_multisets)
from trident.chebyshev import ChebKind, chebyshev, dickson_D, dickson_E, verify_prop35
from trident.identities import (DIVISIBILITY_SPECS, verify_divisibility, verify_prop61,
                                verify_surprising, verify_telescoping)
from trident.oracle import count_partitions, oracle_poly
from trident.polyring import MultiPoly, NotDivisible, UniPoly, split_origin, up_divide_exact
from trident.sequences import s_poly, s_poly_product
from trident.specialize import (STRUCTURE, SpecId, profile_from_oracle, q1_r1_closed,
                                spec_family, structural_check)
from trident.zeros import backward_scale, verify_locus, zeros_explicit, zeros_general


class Budget:
    def __init__(self, criterion: str, seconds: float):
        self.criterion = criterion
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.criterion}: {status} ({elapsed:.2f}s)")
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"criterion {self.criterion} exceeded its {self.seconds}s budget")


def test_criterion_1_table_fidelity():
    with Budget("1 table fidelity", 1.0):
        for n, records in TABLE1.items():
            assert s_poly(n) == MultiPoly(records), f"table 1 row {n}"
        for n in TABLE2_Q:
            assert spec_family(SpecId.Z1, "q", n) == UniPoly(TABLE2_Q[n])
            assert spec_family(SpecId.Z1, "r", n) == UniPoly(TABLE2_R[n])
        for n, coeffs in TABLE3.items():
            assert spec_family(SpecId.Z2, "q", n) == UniPoly(coeffs)
        for n, coeffs in TABLE4.items():
            assert spec_family(SpecId.Z3, "q", n) == UniPoly(coeffs)


def test_criterion_2_sequence_fidelity():
    with Budget("2 sequence fidelity", 1.0):
        assert tuple(count_partitions(n) for n in range(16)) == SEQUENCE_COUNTS
        assert tuple(sum(c for *_, c in s_poly(n).terms())
                     for n in range(16)) == SEQUENCE_COUNTS


def test_criterion_3_oracle_equivalence():
    with Budget("3 oracle equivalence", 60.0):
        for n in range(61):
            assert s_poly(n) == s_poly_product(n) == oracle_poly(n), f"n={n}"
        for n in range(201):
            assert sum(c for *_, c in s_poly(n).terms()) == count_partitions(n), f"n={n}"


def proper_divisor_sum(n: int) -> int:
    total = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            total += d + (n // d if n // d != d else 0)
        d += 1
    return total


def test_criterion_4_perfect_number_subsequence():
    with Budget("4 perfect numbers", 5.0):
        perfect = {2: 6, 3: 28, 5: 496, 7: 8128}
        for p, value in perfect.items():
            count = count_partitions((3**p - 3) // 2)   # digit recursion, no listing
            assert count == value
            assert proper_divisor_sum(count) == count
        for n in range(1, 21):
            assert count_partitions((3**n - 1) // 2) == 2 ** (n - 1) * (2**n + 1)


def test_criterion_5_chebyshev_bridge():
    with Budget("5 chebyshev bridge", 10.0):
        for n in range(13):
            report = verify_prop35(n)
            assert report.ok, (n, report.failures)
        two_v = UniPoly((0, 2))
        one = UniPoly.one()
        for n in range(13):
            assert dickson_E(n, two_v, one) == chebyshev(ChebKind.SECOND, n)
            assert dickson_D(n, two_v, one) == 2 * chebyshev(ChebKind.FIRST, n)


def test_criterion_6_section4_identities():
    with Budget("6 closed-form identities", 30.0):
        assert verify_surprising(40).ok
        for n in range(41):
            q, r = q1_r1_closed(n)
            assert q == spec_family(SpecId.Z1, "q", n)
            assert r == spec_family(SpecId.Z1, "r", n)
        for n in range(1, 41):   # the z1 rows, shifted binomial forms included
            assert structural_check(SpecId.Z1, n).ok, n
        for n in range(1, 5):
            q_profile = profile_from_oracle(SpecId.Z1, "q", n)
            r_profile = profile_from_oracle(SpecId.Z1, "r", n)
            for j in range(n + 1):
                assert q_profile.get(j, 0) == math.comb(n, j) * (3 ** (n - j) - 1) // 2
                assert r_profile.get(j, 0) == math.comb(n, j) * (3 ** (n - j) + 1) // 2


def test_criterion_7_structural_claims():
    with Budget("7 structural claims", 5.0):
        for n in range(1, 17):
            for spec in STRUCTURE:
                report = structural_check(spec, n)
                assert report.ok, (spec.value, n, report.failures)


def test_criterion_8_zero_loci():
    with Budget("8 zero loci", 30.0):
        for n in range(2, 21):
            for spec in (SpecId.Z1, SpecId.Z2, SpecId.Z3):
                report = verify_locus(spec, n)
                assert report.ok, (spec.value, n, report.failures)
        for tag, spec, family in (("z1q", SpecId.Z1, "q"), ("z1r", SpecId.Z1, "r"),
                                  ("z2", SpecId.Z2, "q"), ("z3", SpecId.Z3, "q")):
            for n in range(2, 21):
                explicit = zeros_explicit(tag, n)
                poly = split_origin(spec_family(spec, family, n))[1]
                general = zeros_general(poly)
                assert match_multisets(explicit.points, general.points) < 1e-8, (tag, n)
                for report in (explicit, general):
                    scales = backward_scale(poly, report.points)
                    for res, scale in zip(report.residuals, scales):
                        assert res < 1e-7 * scale, (tag, n)


def test_criterion_9_section6_suite():
    with Budget("9 cross-sequence suite", 60.0):
        assert verify_prop61(12).ok
        assert verify_telescoping(12).ok
        for spec in DIVISIBILITY_SPECS:
            assert verify_divisibility(spec, 24).ok, spec.value
        q6 = spec_family(SpecId.Z3, "q", 6)
        expected = UniPoly.one()
        for coeffs in Q6_Z3_FACTORS:
            expected = expected * UniPoly(coeffs)
        assert q6 == expected
        assert up_divide_exact(q6, spec_family(SpecId.Z3, "q", 3)) == UniPoly(Q6_OVER_Q3_Z3)
        r6 = spec_family(SpecId.Z1, "r", 6)
        expected = UniPoly(R6_Z1_FACTORS[0]) * UniPoly(R6_Z1_FACTORS[1])
        assert r6 == expected
        up_divide_exact(r6, spec_family(SpecId.Z1, "r", 2))
        for m in (1, 3):
            with pytest.raises(NotDivisible):
                up_divide_exact(r6, spec_family(SpecId.Z1, "r", m))
