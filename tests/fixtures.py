"""Frozen reference data for the test suite, and one zero-set comparison.

Polynomial tables are transcribed as explicit term records so every
comparison is coefficient-for-coefficient against an independent source,
never against package output.  4-variable terms are (exp_w, exp_x, exp_y,
exp_z, coeff); single-variable polynomials are ascending coefficient
tuples.
"""

import math

# The 4-variable counting polynomials for n = 0..6.
TABLE1 = {
    0: [(0, 0, 0, 0, 1)],
    1: [(1, 0, 0, 0, 1), (0, 1, 0, 0, 1), (0, 0, 1, 0, 1)],
    2: [(1, 1, 0, 0, 1), (1, 0, 1, 0, 1), (0, 1, 1, 0, 1), (0, 0, 0, 1, 1)],
    3: [(1, 1, 1, 0, 1), (1, 0, 0, 1, 1), (0, 1, 0, 1, 1),
        (1, 0, 0, 0, 1), (0, 1, 0, 0, 1), (0, 0, 1, 0, 1)],
    4: [(2, 0, 0, 0, 1), (1, 1, 0, 0, 2), (1, 0, 1, 0, 2), (1, 1, 0, 1, 1),
        (0, 2, 0, 0, 1), (0, 1, 1, 0, 2), (0, 0, 2, 0, 1)],
    5: [(2, 1, 0, 0, 1), (2, 0, 1, 0, 1), (1, 2, 0, 0, 1), (1, 1, 1, 0, 3),
        (1, 0, 2, 0, 1), (1, 0, 0, 1, 1), (0, 2, 1, 0, 1), (0, 1, 2, 0, 1),
        (0, 1, 0, 1, 1), (0, 0, 1, 1, 1)],
    6: [(2, 1, 1, 0, 1), (2, 0, 0, 1, 1), (1, 2, 1, 0, 1), (1, 1, 0, 0, 1),
        (1, 1, 2, 0, 1), (1, 1, 0, 1, 2), (1, 0, 1, 0, 1), (1, 0, 1, 1, 1),
        (0, 2, 0, 1, 1), (0, 1, 1, 1, 1), (0, 1, 1, 0, 1), (0, 0, 0, 1, 1)],
}

# The (1, 1, z, 1) families for n = 0..5, ascending coefficients.
TABLE2_Q = {
    0: (),
    1: (1,),
    2: (4, 2),
    3: (13, 12, 3),
    4: (40, 52, 24, 4),
    5: (121, 200, 130, 40, 5),
}
TABLE2_R = {
    0: (1,),
    1: (2, 1),
    2: (5, 4, 1),
    3: (14, 15, 6, 1),
    4: (41, 56, 30, 8, 1),
    5: (122, 205, 140, 50, 10, 1),
}

# The (z, z, z, z^2) q-family for n = 1..7.
TABLE3 = {
    1: (1,),
    2: (0, 3, 0, 3),
    3: (0, 0, 9, 0, 10, 0, 9),
    4: (0, 0, 0, 27, 0, 33, 0, 33, 0, 27),
    5: (0, 0, 0, 0, 81, 0, 108, 0, 118, 0, 108, 0, 81),
    6: (0, 0, 0, 0, 0, 243, 0, 351, 0, 414, 0, 414, 0, 351, 0, 243),
    7: (0, 0, 0, 0, 0, 0, 729, 0, 1134, 0, 1431, 0, 1540, 0, 1431, 0, 1134, 0, 729),
}

# The (1, 1, z, z) q-family for n = 1..7.
TABLE4 = {
    1: (1,),
    2: (2, 4),
    3: (4, 11, 13),
    4: (8, 28, 44, 40),
    5: (16, 68, 133, 158, 121),
    6: (32, 160, 374, 544, 542, 364),
    7: (64, 368, 1000, 1715, 2071, 1817, 1093),
}

# The scalar counting sequence for n = 0..15.
SEQUENCE_COUNTS = (1, 3, 4, 6, 10, 12, 13, 15, 16, 18, 22, 24, 28, 36, 40, 42)

# Factorization fixtures: ascending coefficients of each factor.
R6_Z1_FACTORS = ((5, 4, 1), (73, 88, 38, 8, 1))
Q6_Z3_FACTORS = ((2,), (1, 2), (4, 1, 7), (4, 11, 13))
# Quotient of the z3 q-family, index 6 by index 3: 2(2z+1)(7z^2+z+4) expanded.
Q6_OVER_Q3_Z3 = (8, 18, 18, 28)

# The six partitions of 3, rendered, in the package's enumeration order.
PARTITIONS_OF_3 = ["3", "3~", "3-", "1+1+1~", "1+1+1-", "1+1-+1~"]


def match_multisets(a: list[complex], b: list[complex]) -> float:
    """Largest matched-pair distance between two zero multisets.

    Greedy nearest-neighbor matching; exact for the well-separated zero
    sets the tests compare (separation far above the match distances).
    """
    if len(a) != len(b):
        return math.inf
    remaining = list(b)
    worst = 0.0
    for u in a:
        best_idx = min(range(len(remaining)), key=lambda i: abs(u - remaining[i]))
        worst = max(worst, abs(u - remaining.pop(best_idx)))
    return worst
