"""Shared memo caches stay consistent under concurrent use."""

import sys
from concurrent.futures import ThreadPoolExecutor

import trident.specialize as specialize
from trident.sequences import s_poly
from trident.specialize import SpecId, spec_family


def test_concurrent_spec_family_extension():
    # eight threads race to walk one freshly cleared value memo; the writes
    # are idempotent, so it ends with the seeds and the requested pair only
    expected = spec_family(SpecId.Z2, "q", 30)
    specialize._walk.cache_clear()
    specialize._MEMOS.clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(
                lambda _: spec_family(SpecId.Z2, "q", 30), range(8), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    m = (3**30 - 1) // 2
    assert set(specialize._walk(SpecId.Z2)[1]) == {-1, 0, m - 1, m}
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
