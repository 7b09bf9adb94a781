"""Seeded request lists of the three workloads.

Each list is a pure function of the seed.  Every parameter that sets a
request's cost sits at a fixed point spread over its natural range, so
every seed holds the same multiset of costly requests; the seed chooses
their order, which earlier results are read back, the output formats and
the cheap choices.  That keeps the medians and percentiles of different
seeds comparable.
"""

from __future__ import annotations

import random

import checker

WORKLOADS = ("algebra", "zeros", "cli")


def _spread(lo, hi, k):
    """k integers evenly spaced over [lo, hi]."""
    return [lo + (hi - lo) * i // (k - 1) for i in range(k)]


def _interleave(rng, groups):
    """Merge the groups in a seeded random order, keeping each group's own order."""
    slots = [i for i, g in enumerate(groups) for _ in g]
    rng.shuffle(slots)
    its = [iter(g) for g in groups]
    return [next(its[i]) for i in slots]


def _with_reads(rng, reqs, count, size=12):
    """Insert ``count`` read requests, each reading ``size`` values stored earlier.

    A client reads several stored values in a row, so a read request
    fetches ``size`` of them at once, cycling through the three sequences.
    One stored value comes back in under a microsecond, too little to time
    alone.  The reads sit at evenly spaced places in the list and only the
    values read are seeded, so every seed's reads meet the same neighbours.
    """
    reqs = list(reqs)
    ops = ("q_poly", "r_poly", "s_poly")
    start = max(next(i for i, r in enumerate(reqs) if r["op"] == op) for op in ops) + 1
    for k in reversed(range(count)):
        pos = start + (len(reqs) - start) * k // count
        items = [{"op": ops[j % 3], "n": rng.choice(
            [r["n"] for r in reqs[:pos] if r["op"] == ops[j % 3]])} for j in range(size)]
        reqs.insert(pos, {"op": "reads", "items": items})
    return reqs


def algebra(rng):
    # Q and R rise in n at fixed steps, so each write extends its memo by
    # the same amount whatever the interleaving.  Requests that read Q up
    # to n = 14 (divisions, identity checks) follow once both memos are
    # full, so they never take over a share of that extension.
    q = [{"op": "q_poly", "n": n} for n in range(2, 27, 2)]
    r = [{"op": "r_poly", "n": n} for n in range(2, 27, 2)]
    # log-uniform up to 1e10, one per half decade.  Term counts follow the
    # base-3 digits of n, not just its size, so the indices are fixed.
    free = [{"op": "s_poly", "n": int(10 ** ((i + 0.5) / 2))} for i in range(20)]
    free += [{"op": "three_route", "n": n} for n in range(15, 300, 30)]
    rng.shuffle(free)
    after = [{"op": "divide", "n": n, "m": m}
             for n in range(4, 13) for m in range(2, n) if n % m == 0]
    after.append({"op": "divide", "n": 14, "m": 7})
    for op in ("prop61", "telescoping", "prop35"):
        after += [{"op": op, "n": n} for n in (2, 5, 8, 11)]
    rng.shuffle(after)
    # 26 read requests among 81 others put the median at the 28th cheapest
    # of the others, inside a run of requests that all take 4-6 ms rather
    # than at its foot, where a 2-4 ms gap lies below it and the median
    # would swing across the gap.  The 90th percentile is a large write.  The two largest
    # extensions close the first phase, so the memory they add always lands
    # on top of the same set of memos.
    tops = [q.pop(), r.pop()]
    rng.shuffle(tops)
    return _with_reads(rng, _interleave(rng, [q, r, free]) + tops + after, 26)


def _degree(spec, fam, n):
    """Degree the zero finder sees: the member's, or its square-free part's."""
    p = checker.family(spec, fam, n)
    if len(p) < 2:
        return 0
    if (spec, fam) in checker.EXPLICIT:
        return len(p) - 1
    return checker.square_free_degree(p)


def _n_for_degree(spec, fam, target):
    return min(range(2, 64), key=lambda n: (abs(_degree(spec, fam, n) - target), n))


def zeros(rng):
    chains, rest = [], []

    def members(spec, fam, degrees):
        return [{"op": "zeros", "spec": spec, "family": fam, "n": _n_for_degree(spec, fam, d)}
                for d in degrees]

    # Explicit families rise in n, so each request extends the family memo
    # by one step of about the same size whatever the interleaving.
    for spec, fam in sorted(checker.EXPLICIT):
        chains.append(sorted(members(spec, fam, range(3, 62, 3)), key=lambda r: r["n"]))
    for spec in checker.SPECS[4:] + ("z2", "z3"):
        for fam in "qr":
            if (spec, fam) not in checker.EXPLICIT:
                rest += members(spec, fam, (8, 16, 24))
    # One higher-degree member of each family the general finder currently
    # gets wrong there (p3 q off its locus from n = 20, z3 r NaN from
    # n = 28), so that a fix shows as ok_frac rising to 1.
    rest += members("p3", "q", (42,)) + members("z3", "r", (30,))
    # z0 members are constants: the pipeline must refuse them.
    rest += [{"op": "zeros", "spec": "z0", "family": f, "n": n} for f, n in zip("qrqr", (5, 12, 20, 28))]
    rng.shuffle(rest)
    # Locus checks come last, once the zero requests have filled the memos.
    loci = [{"op": "verify_locus", "spec": spec, "n": n}
            for spec in ("z1", "z2", "z3") for n in (8, 18, 28, 38)]
    loci += [{"op": "verify_locus", "spec": spec, "n": n}
             for spec in ("p3", "p5", "p6") for n in (5, 12)]
    rng.shuffle(loci)
    return _interleave(rng, chains + [rest]) + loci


def _fmt(rng, formats=("pretty", "json", "csv")):
    return ["--format", rng.choice(formats)]


def cli(rng):
    reqs = []

    def add(argv, expect=0, env=None):
        req = {"op": "cli", "argv": [str(a) for a in argv], "expect_exit": expect}
        if env:
            req["env"] = env
        reqs.append(req)

    for _ in range(5):
        add(["tables"])
    add(["--version"])
    for n in _spread(0, 60, 6):
        add(["scalar", "--n", n] + _fmt(rng))
    for n in _spread(0, 30, 4):
        add(["scalar", "--upto", n] + _fmt(rng))
    for cmd, top in (("s-poly", 3000), ("q-poly", 12), ("r-poly", 12)):
        for n in _spread(0, top, 4):
            add([cmd, "--n", n] + _fmt(rng))
        add([cmd, "--upto", 6] + _fmt(rng))
    for cmd, n in (("q-poly", 24), ("q-poly", 25), ("r-poly", 25)):
        add([cmd, "--n", n, "--format", "json"])
    specs = [s for s in checker.SPECS if s != "z0"]
    for spec, upto in zip(rng.sample(checker.SPECS, 8), _spread(4, 12, 8)):
        add(["spec", "--spec", spec, "--family", rng.choice("qr"),
             "--upto", upto] + _fmt(rng))
    for spec, n in zip(rng.sample(specs, 4), _spread(2, 20, 4)):
        add(["spec", "--spec", spec, "--family", rng.choice("qr"),
             "--n", n] + _fmt(rng))
    for spec, n in zip(rng.sample(specs, 8), _spread(2, 12, 8)):
        add(["profile", "--spec", spec, "--family", rng.choice("qr"),
             "--n", n] + _fmt(rng, ("json", "csv")))
    for n in _spread(1, 400, 8):
        add(["enumerate", "--n", n, "--list"] + _fmt(rng))
    for n in _spread(3, 40, 4):
        add(["enumerate", "--n", 10**n] + _fmt(rng))
    for spec, n in zip(checker.SPECS[1:] * 2, [3] * 9 + [7] * 9):
        fam = rng.choice("qr")
        argv = ["zeros", "--spec", spec, "--family", fam, "--n", n]
        if rng.random() < 0.5:
            argv.append("--locus")
        add(argv + _fmt(rng, ("csv", "json")))
    for group in ("prop61", "telescoping", "divisibility", "surprising", "gf",
                  "prop35", "structural", "locus", "oracle"):
        add(["verify", "--quick", "--only", group] + _fmt(rng, ("pretty", "json")))
    # usage errors (exit 2) and cap refusals (exit 3)
    add(["q-poly"], 2)
    add(["spec", "--spec", "zz", "--n", 3], 2)
    add(["profile", "--spec", rng.choice(specs)], 2)
    add(["zeros", "--spec", "z0", "--n", 5], 2)
    add(["verify", "--quick", "--only", "nope"], 2)
    add(["scalar", "--n", 3, "--format", "xml"], 2)
    for n, cap, env in ((3000, None, None), (300, 10, None), (300, None, {"TRIDENT_CAP": "5"})):
        limit = cap or int((env or {}).get("TRIDENT_CAP", 10_000))
        add(["enumerate", "--n", n, "--list"] + (["--cap", cap] if cap else []),
            3 if checker.count_partitions(n) > limit else 0, env)
    rng.shuffle(reqs)
    return reqs


def generate(workload: str, seed: int) -> list[dict]:
    rng = random.Random(f"{workload}:{seed}")
    return {"algebra": algebra, "zeros": zeros, "cli": cli}[workload](rng)
