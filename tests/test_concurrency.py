"""Shared memo caches stay consistent under concurrent use."""

from concurrent.futures import ThreadPoolExecutor

import trident.specialize as specialize
from trident.polyring import MultiPoly
from trident.sequences import W1, W2, TwoTerm, q_poly, s_poly
from trident.specialize import SpecId, spec_family


def test_concurrent_three_term_extension():
    # eight threads race to extend one fresh memo list; the lock must keep
    # exactly one appended entry per index
    fresh = TwoTerm(W1, W2, MultiPoly.zero(), MultiPoly.one())
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda _: fresh[16], range(8)))
    assert len(fresh._memo) == 17
    assert all(value == q_poly(16) for value in results)


def test_concurrent_spec_family_extension():
    key = (SpecId.Z2, "q")
    expected = spec_family(SpecId.Z2, "q", 30)
    specialize._FAMILIES.pop(key, None)
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(
            lambda _: spec_family(SpecId.Z2, "q", 30), range(8)))
    assert len(specialize._FAMILIES[key]._memo) == 31
    assert all(value == expected for value in results)


def test_concurrent_mixed_queries():
    jobs = [(SpecId.Z1, "q", 25), (SpecId.Z2, "q", 25), (SpecId.Z3, "q", 25),
            (SpecId.Z1, "r", 25), (SpecId.P3, "q", 20), (SpecId.P5, "q", 20)]
    with ThreadPoolExecutor(max_workers=6) as pool:
        futures = [pool.submit(spec_family, *job) for job in jobs * 4]
        results = [f.result() for f in futures]
    for (spec, family, n), value in zip(jobs * 4, results):
        assert value == spec_family(spec, family, n)
    # the s-memo is keyed by index with idempotent writes, safe as-is
    with ThreadPoolExecutor(max_workers=8) as pool:
        values = list(pool.map(s_poly, range(120, 160)))
    for n, value in zip(range(120, 160), values):
        assert value == s_poly(n)
