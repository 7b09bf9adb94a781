"""The record types pinned by digest: partitions, zero reports, locus reports.

Fields are read by attribute only, so the pin does not depend on how a
record is built or what else it can do.
"""

import hashlib
import json

from trident.oracle import enumerate_partitions
from trident.specialize import SpecId, spec_family
from trident.zeros import LOCI, verify_locus, zeros_of


def _digest(values) -> str:
    return hashlib.sha256(json.dumps(values).encode()).hexdigest()


def _floats(values):
    return None if values is None else [repr(v) for v in values]


def _records_digests() -> dict[str, str]:
    partitions = []
    for n in (40, 121, 364):
        for p in enumerate_partitions(n):
            s = p.stats()
            partitions.append([p.render(), [[d.over, d.tilde, d.plain] for d in p.digits],
                               [s.overlined, s.tilded, s.singles, s.pairs]])
    zero_rows = {"zeros_finder": [], "zeros_lucas": []}
    for spec in SpecId:
        for family in ("q", "r"):
            for n in range(2, 13):
                if spec_family(spec, family, n).degree() < 1:
                    continue
                zr = zeros_of(spec, family, n)
                route = "zeros_finder" if family == "r" and spec is not SpecId.Z1 else "zeros_lucas"
                zero_rows[route].append([spec.value, family, n, _floats(zr.points),
                                         _floats(zr.residuals), _floats(zr.locus_distances),
                                         zr.origin_multiplicity, zr.poly.to_strings()])
    locus_rows = []
    for spec in dict.fromkeys(spec for spec, _ in LOCI):
        for n in range(2, 11):
            report = verify_locus(spec, n)
            locus_rows.append([spec.value, n, list(report.status.items()),
                               [[key, repr(v)] for key, v in report.margins.items()]])
    return {"partitions": _digest(partitions), "loci": _digest(locus_rows),
            **{route: _digest(rows) for route, rows in zero_rows.items()}}


# sha256 of the json lists: every partition of 40, 121 and 364 with its
# rendering, digit records and statistics; every non-constant member's
# zeros_of report and reduced polynomial for 2 <= n <= 12, floats as reprs,
# in two lists: the r families other than z1, which take the root finder,
# and every other member, which takes the Lucas factors; every claimed
# locus's verify_locus status and margins for n <= 10.
PINNED_RECORD_DIGESTS = {
    "partitions": "9a930904b762bc2c5330d73b85da50c795ff77f7a8566026f234eb486e5f5f5a",
    "zeros_finder": "a554dd53f730d3725a6c1d73891891f67ff7b3a2259bebc046189489eda80786",
    "zeros_lucas": "808aa8dcf46de09f86df1c3dad06966b5ca4c9fc6a644f23cc56439c82724710",
    "loci": "d5e8269511bd3eec04c09c5549d5eac81e2602323627f64f585868adcd8c6767",
}


def test_records_pinned_by_digest():
    digests = _records_digests()
    for key, digest in PINNED_RECORD_DIGESTS.items():
        assert digests[key] == digest, key
