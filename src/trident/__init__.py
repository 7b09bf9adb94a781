"""Exact arithmetic for restricted colored base-3 partitions.

The package computes the 4-variable counting polynomials of partitions
into powers of 3 (at most one overlined, one tilde'd and two unmarked
copies of each power), the derived polynomial subsequences and their
single-variable specializations, verifies the identities connecting them
against a brute-force enumeration oracle, and computes the explicit
complex zero loci of the specialized families.
"""

from .chebyshev import ChebKind, dickson_D, dickson_E, verify_prop35
from .identities import (verify_divisibility, verify_prop61, verify_surprising,
                         verify_telescoping)
from .oracle import (CapExceeded, ColoredPartition, PartitionStats,
                     count_partitions, enumerate_partitions, oracle_poly)
from .polyring import (DivisionByZeroPolynomial, MultiPoly, NotDivisible, UniPoly,
                       mp_divide_exact, poly_substitute, up_divide_exact, up_gcd,
                       up_square_free)
from .report import Report
from .sequences import (W1, W2, gf_check, q_poly, r_poly, s_poly, s_poly_product,
                        s_poly_sweep, scalar_qr)
from .specialize import (SpecId, partition_statistic, profile, profile_from_oracle,
                         q1_r1_closed, spec_family, spec_images, structural_check)
from .zeros import NoConvergence, ZeroReport, verify_locus, zeros_explicit, zeros_general

__version__ = "0.1.0"

# Every name the import block binds is public, except the submodules that
# importing binds beside them (type(report) is the module type, read off a
# bound submodule so that no "import types" adds a name to the package).
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, type(report))] + ["__version__"]
