"""Independent output checker shared by every workload.

Nothing here imports ``trident``: each reference value is recomputed from
the paper's definitions with code of its own, so a defect in the package
cannot hide behind an identical defect in its check.

* ``S``, ``Q`` and ``R`` are compared at seeded integer points modulo the
  Mersenne prime 2^61 - 1, against scalar recurrences (base-3 for ``S``,
  the shared three-term recurrence with W1/W2 from their literal term lists
  for ``Q``/``R``), plus exact all-ones closed forms.
* Specialized families are rebuilt as dense integer polynomials from the
  same literal W1/W2 terms and each substitution's exponent weights.
* Zero reports are checked by point count, by an exact dyadic residual
  against ``1e-9 * sum |c_i| |z|^i`` and by distance to the claimed locus.
* CLI output is checked by content and, for JSON, against the shipped
  schema; ``tables`` is compared byte for byte with the golden file.

Every check returns ``None`` when the output is right, else a one-line
reason.
"""

from __future__ import annotations

import json
import math
import random
import re
from pathlib import Path

MOD = (1 << 61) - 1
ZERO_TOL = 1e-9

# Literal term lists of the recurrence pair, exponents of (w, x, y, z).
W1_TERMS = ((1, 1, 1, 0), (1, 0, 0, 1), (0, 1, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))
W2_TERMS = ((2, 1, 1, 0), (2, 0, 0, 1), (1, 2, 1, 0), (1, 1, 2, 0),
            (1, 1, 0, 1), (1, 0, 1, 1), (0, 2, 0, 1), (0, 1, 1, 1))
S1_TERMS = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))

# Exponent of the fresh variable that each substitution puts on w, x, y, z.
SPEC_WEIGHTS = {
    "z0": (0, 0, 0, 0), "z1": (0, 0, 1, 0), "z2": (1, 1, 1, 2), "z3": (0, 0, 1, 1),
    "p1": (1, 1, 0, 0), "p2": (1, 1, 1, 1), "p3": (0, 0, 1, 2), "p4": (1, 1, 1, 0),
    "p5": (0, 1, 1, 2), "p6": (1, 0, 1, 2),
}
SPECS = tuple(SPEC_WEIGHTS)

# Families whose zeros the package maps from Chebyshev zeros in closed form;
# every other family goes through the square-free part and the general finder.
EXPLICIT = {("z1", "q"), ("z1", "r"), ("z2", "q"), ("z3", "q")}

# Ways to realize c copies of one power of 3 (index c).
_WAYS = (1, 3, 4, 3, 1)


def _mono(point, exps):
    v = 1
    for base, e in zip(point, exps):
        v = v * pow(base, e, MOD) % MOD
    return v


class Reference:
    """Scalar sequence values at one integer point, modulo ``MOD``."""

    def __init__(self, point):
        self.point = tuple(p % MOD for p in point)
        w, x, y, z = self.point
        self.s1 = (w + x + y) % MOD
        self.s2 = (w * x + w * y + x * y + z) % MOD
        self.triple = (w * x * y + w * z + x * z) % MOD
        self.wxz = w * x * z % MOD
        self.w1 = sum(_mono(self.point, e) for e in W1_TERMS) % MOD
        self.w2 = sum(_mono(self.point, e) for e in W2_TERMS) % MOD
        self._s = {0: 1, 1: self.s1, 2: self.s2}
        self._q = [0, 1]
        self._r = [1, self.s1]

    def s(self, n: int) -> int:
        """S(n) by the base-3 recurrence."""
        memo = self._s
        stack = [n]
        while stack:
            m = stack[-1]
            if m in memo:
                stack.pop()
                continue
            k, r = divmod(m, 3)
            need = [i for i in (k, k - 1) if i not in memo]
            if need:
                stack.extend(need)
                continue
            if r == 0:
                memo[m] = (memo[k] + self.triple * memo[k - 1]) % MOD
            elif r == 1:
                memo[m] = (self.s1 * memo[k] + self.wxz * memo[k - 1]) % MOD
            else:
                memo[m] = self.s2 * memo[k] % MOD
            stack.pop()
        return memo[n]

    def _three_term(self, memo, n):
        while len(memo) <= n:
            memo.append((self.w1 * memo[-1] - self.w2 * memo[-2]) % MOD)
        return memo[n]

    def q(self, n: int) -> int:
        return self._three_term(self._q, n)

    def r(self, n: int) -> int:
        return self._three_term(self._r, n)

    def value(self, seq: str, n: int) -> int:
        return {"s": self.s, "q": self.q, "r": self.r}[seq](n)

    def powers(self, tops) -> list[list[int]]:
        """Powers 0..tops[v] of each coordinate v, modulo ``MOD``."""
        out = []
        for base, top in zip(self.point, tops):
            row = [1]
            for _ in range(top):
                row.append(row[-1] * base % MOD)
            out.append(row)
        return out


def eval_records(refs, records) -> tuple[list[int], int]:
    """Values of ``[i, j, k, l, coeff]`` records at each reference point, and their coefficient sum."""
    tops = [max((rec[v] for rec in records), default=0) for v in range(4)]
    tables = [ref.powers(tops) for ref in refs]
    totals = [0] * len(refs)
    coeff_sum = 0
    for i, j, k, l, coeff in records:
        c = int(coeff)
        coeff_sum += c
        c %= MOD
        for m, (tw, tx, ty, tz) in enumerate(tables):
            totals[m] += c * (tw[i] * tx[j] % MOD) * (ty[k] * tz[l] % MOD)
    return [t % MOD for t in totals], coeff_sum


def count_partitions(n: int, _memo={0: 1}) -> int:
    """Number of restricted colored base-3 partitions of ``n`` (digit recursion)."""
    stack = [n]
    while stack:
        m = stack[-1]
        if m in _memo:
            stack.pop()
            continue
        r = m % 3
        subs = [(c, (m - c) // 3) for c in (r, r + 3) if c <= 4 and c <= m]
        need = [s for _, s in subs if s not in _memo]
        if need:
            stack.extend(need)
            continue
        _memo[m] = sum(_WAYS[c] * _memo[s] for c, s in subs)
        stack.pop()
    return _memo[n]


def all_ones(seq: str, n: int) -> int:
    """Exact value at w = x = y = z = 1."""
    if seq == "s":
        return count_partitions(n)
    if n == 0:
        return 0 if seq == "q" else 1
    return 2 ** (n - 1) * (2**n - 1 if seq == "q" else 2**n + 1)


def check_records(refs, seq: str, n: int, records):
    """Check ``[i, j, k, l, coeff]`` records of ``seq``(n) at each reference point."""
    values, coeff_sum = eval_records(refs, records)
    for ref, value in zip(refs, values):
        if value != ref.value(seq, n):
            return f"{seq}({n}) differs from the reference at {ref.point}"
    if coeff_sum != all_ones(seq, n):
        return f"{seq}({n}) fails the all-ones closed form"
    return None


def reference_points(seed: int) -> list[Reference]:
    """Two seeded integer points with coordinates in [-2^31, 2^31]."""
    rng = random.Random(f"points:{seed}")
    return [Reference([rng.randint(-2**31, 2**31) for _ in range(4)]) for _ in range(2)]


# -- dense univariate integer polynomials (lists, ascending degree) ---------

def _trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return out


def _sub(a, b):
    out = list(a) + [0] * max(0, len(b) - len(a))
    for i, c in enumerate(b):
        out[i] -= c
    return _trim(out)


def _specialize(terms, weights):
    out = []
    for exps in terms:
        d = sum(wt * e for wt, e in zip(weights, exps))
        out.extend([0] * (d + 1 - len(out)))
        out[d] += 1
    return out


_FAMILY_MEMO: dict = {}


def family(spec: str, fam: str, n: int) -> list[int]:
    """Coefficients of the specialized q- or r-family member at index ``n``."""
    entry = _FAMILY_MEMO.get((spec, fam))
    if entry is None:
        weights = SPEC_WEIGHTS[spec]
        seq = [[], [1]] if fam == "q" else [[1], _specialize(S1_TERMS, weights)]
        entry = (_specialize(W1_TERMS, weights), _specialize(W2_TERMS, weights), seq)
        _FAMILY_MEMO[(spec, fam)] = entry
    w1, w2, seq = entry
    while len(seq) <= n:
        seq.append(_sub(_mul(w1, seq[-1]), _mul(w2, seq[-2])))
    return seq[n]


def square_free_degree(p: list[int]) -> int:
    """Degree of the square-free part: deg p - deg gcd(p, p'), gcd taken mod ``MOD``."""
    a = [c % MOD for c in p]
    b = [(k * c) % MOD for k, c in enumerate(p)][1:]
    _trim(a), _trim(b)
    while b:
        inv = pow(b[-1], MOD - 2, MOD)
        while len(a) >= len(b):
            f = a[-1] * inv % MOD
            shift = len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] = (a[shift + i] - f * c) % MOD
            _trim(a)
            if not a:
                break
        a, b = b, a
    return (len(p) - 1) - (len(a) - 1)


# -- zero reports -------------------------------------------------------------

def _dyadic(v: float) -> tuple[int, int]:
    num, den = v.as_integer_ratio()
    return num, den.bit_length() - 1


def residual_ok(p: list[int], z: complex, tol: float = ZERO_TOL) -> bool:
    """Check |p(z)| <= tol * sum |c_i| |z|^i, with z taken verbatim as a dyadic point.

    p(z) is evaluated exactly over the integers; only the final comparison
    is done in logarithms.
    """
    (a, ka), (b, kb) = _dyadic(z.real), _dyadic(z.imag)
    k = max(ka, kb)
    a <<= k - ka
    b <<= k - kb
    d = len(p) - 1
    # 2^(k d) p(z) = sum c_i (a + ib)^i 2^(k (d - i)), by Horner over the Gaussian integers.
    re_acc, im_acc = p[-1], 0
    for i in range(d - 1, -1, -1):
        re_acc, im_acc = re_acc * a - im_acc * b, re_acc * b + im_acc * a
        re_acc += p[i] << (k * (d - i))
    norm2 = re_acc * re_acc + im_acc * im_acc
    if norm2 == 0:
        return True
    # Compare logarithms: the scale overflows a float for large zeros (|z|^d).
    az = abs(z)
    if az > 1.0:
        log_scale = d * math.log(az) + math.log(
            sum(float(abs(c)) * az ** (i - d) for i, c in enumerate(p)))
    else:
        log_scale = math.log(sum(float(abs(c)) * az**i for i, c in enumerate(p)))
    return math.log(norm2) - 2 * k * d * math.log(2.0) <= 2 * (math.log(tol) + log_scale)


def locus_distance(spec: str, fam: str, z: complex):
    """Distance to the claimed zero locus, or None where no locus is claimed."""
    if spec == "z1":
        return abs(z.real + 2.0)
    if fam != "q":
        return None
    if spec == "z2":
        return abs(abs(z) - 1.0) if abs(z.imag) > 1.0 / 3.0 else math.inf
    if spec == "z3":
        return abs(abs(z - 0.375) - 0.875) if z.real < 0.5 else math.inf
    if spec in ("p3", "p5", "p6"):
        axis = abs(z.imag) if z.real <= 0 else abs(z)
        return min(abs(abs(z) - 1.0), axis)
    return None


def check_zeros(spec: str, fam: str, n: int, points, origin: int, stats=None):
    """Check one zero report of the ``spec``/``fam`` member at index ``n``.

    ``stats``, when given, is a two-item list [points seen, points passing].
    """
    p = family(spec, fam, n)
    expected = len(p) - 1 if (spec, fam) in EXPLICIT else square_free_degree(p)
    reason = None
    if len(points) + origin != expected:
        reason = f"{len(points)} points + origin {origin} != degree {expected}"
    passed = 0
    for z in points:
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            why = f"non-finite point {z}"
        elif not residual_ok(p, z):
            why = f"residual at {z} above {ZERO_TOL:g} * scale"
        else:
            dist = locus_distance(spec, fam, z)
            why = None if dist is None or dist < ZERO_TOL else f"point {z} {dist:.3g} off the locus"
        if why is None:
            passed += 1
        elif reason is None:
            reason = why
    if stats is not None:
        stats[0] += len(points)
        stats[1] += passed
    return reason


def known_defect(req: dict, reason: str) -> bool:
    """True for a failure caused by one of the package's two open root-finder defects.

    Both come from the double-precision general root finder and sit inside
    the natural request ranges.  They are counted in ``failed`` and
    ``ok_frac`` like any failure, but do not mark the run incorrect, so the
    benchmark stays usable until they are fixed:

    * p3 q-family zeros off the claimed locus, measured for every n in 20..26;
    * z3 r-family members from n = 28 up, where the finder produces NaN.

    Only those measured ranges are exempt: the same failure at a lower n
    is a regression.
    """
    spec, fam, n = req.get("spec"), req.get("family", "q"), req.get("n", 0)
    if req.get("op") in ("zeros", "verify_locus") and (spec, fam) == ("p3", "q") and n >= 20:
        return "off the" in reason or "residual" in reason
    if req.get("op") == "zeros" and (spec, fam) == ("z3", "r") and n >= 28:
        return reason.startswith("ValueError: cannot convert NaN")
    return False


# -- CLI output ---------------------------------------------------------------

class CliChecker:
    """Checks one CLI invocation's exit code and output against references."""

    def __init__(self, root: Path, seed: int):
        import jsonschema
        schema = json.loads((root / "src/trident/schemas/cli-output.schema.json").read_text())
        self.validator = jsonschema.Draft202012Validator(schema)
        self.golden = (root / "tests/data/tables_golden.txt").read_bytes()
        self.refs = reference_points(seed)
        self.zero_stats = [0, 0]

    def check(self, argv: list[str], expect_exit: int, code: int, out: bytes, err: bytes):
        if code != expect_exit:
            tail = err.decode(errors="replace").strip().splitlines()[-1:] or [""]
            return f"exit {code}, expected {expect_exit}: {tail[0][:120]}"
        if expect_exit != 0:
            return None if b"error" in err and not out else "refusal without an error message"
        args = _parse_argv(argv)
        cmd = args["command"]
        if cmd == "--version":
            return None if out.startswith(b"trident ") else "bad version line"
        if cmd == "tables":
            return None if out == self.golden else "tables differ from the golden file"
        text = out.decode()
        fmt = args.get("format", "pretty")
        if fmt == "json":
            try:
                payload = json.loads(text)
            except ValueError as exc:
                return f"invalid JSON: {exc}"
            error = next(self.validator.iter_errors(payload), None)
            if error is not None:
                return f"schema: {error.message[:120]}"
        else:
            payload = None
        handler = getattr(self, "_" + cmd.replace("-", "_"))
        return handler(args, text, payload)

    def _poly(self, args, text, payload):
        seq = args["command"][0]
        rows = _index_rows(args)
        if payload is not None:
            got = ([(payload["n"], payload["terms"])] if "terms" in payload
                   else [(r["n"], r["terms"]) for r in payload["rows"]])
        elif args.get("format") == "csv":
            lines = text.splitlines()
            if lines[0] != "n,exp_w,exp_x,exp_y,exp_z,coeff":
                return "bad CSV header"
            by_n = {n: [] for n in rows}
            for line in lines[1:]:
                n, *rec = line.split(",")
                by_n.setdefault(int(n), []).append([int(v) for v in rec[:4]] + [rec[4]])
            got = list(by_n.items())
        else:
            got = []
            for line in text.splitlines():
                n, body = line.split("\t")
                got.append((int(n), parse_pretty(body)))
        if [n for n, _ in got] != rows:
            return f"rows {[n for n, _ in got]} != {rows}"
        for n, records in got:
            reason = check_records(self.refs, seq, n, records)
            if reason:
                return reason
        return None

    _s_poly = _q_poly = _r_poly = _poly

    def _scalar(self, args, text, payload):
        rows = _index_rows(args)
        if payload is not None:
            got = [(r["n"], int(r["q"]), int(r["r"])) for r in payload["rows"]]
        else:
            lines = text.splitlines()
            if args.get("format") == "csv":
                if lines[0] != "n,q,r":
                    return "bad CSV header"
                lines = [ln.replace(",", "\t") for ln in lines[1:]]
            got = [tuple(int(v) for v in ln.split("\t")) for ln in lines]
        want = [(n, all_ones("q", n), all_ones("r", n)) for n in rows]
        return None if got == want else "scalar rows differ from the closed forms"

    def _enumerate(self, args, text, payload):
        n = int(args["n"])
        count = count_partitions(n)
        listing = None
        if payload is not None:
            got = int(payload["count"])
            listing = payload.get("partitions")
        elif args.get("format") == "csv":
            lines = text.splitlines()
            if "list" in args:
                got, listing = len(lines) - 1, lines[1:]
            else:
                got = int(lines[1].split(",")[1])
        else:
            lines = text.splitlines()
            got = int(lines[0].split("count=")[1])
            if "list" in args:
                listing = lines[1:]
        if got != count:
            return f"count {got} != {count}"
        if "list" in args:
            if listing is None or len(listing) != count or len(set(listing)) != count:
                return f"partition list is not the {count} distinct partitions"
            for item in listing:
                reason = _check_partition(item, n)
                if reason:
                    return reason
        return None

    def _spec(self, args, text, payload):
        spec, fam = args.get("spec", "z1"), args.get("family", "q")
        rows = _index_rows(args)
        if payload is not None:
            got = ([(payload["n"], payload["coeffs"])] if "coeffs" in payload
                   else [(r["n"], r["coeffs"]) for r in payload["rows"]])
            got = [(n, [int(c) for c in cs]) for n, cs in got]
        elif args.get("format") == "csv":
            by_n: dict = {}
            for line in text.splitlines()[1:]:
                n, d, c = (int(v) for v in line.split(","))
                by_n.setdefault(n, []).append(c)
            got = [(n, by_n.get(n, [])) for n in rows]
        else:
            got = [(int(n), body) for n, body in (ln.split("\t") for ln in text.splitlines())]
            want = [(n, pretty_uni(family(spec, fam, n))) for n in rows]
            return None if got == want else "spec rows differ from the reference family"
        want = [(n, family(spec, fam, n)) for n in rows]
        return None if got == want else "spec rows differ from the reference family"

    def _profile(self, args, text, payload):
        spec, fam, n = args.get("spec", "z1"), args.get("family", "q"), int(args["n"])
        if payload is not None:
            got = [(e["k"], int(e["count"])) for e in payload["profile"]]
        else:
            lines = text.splitlines()
            if lines[0] != "k,count":
                return "bad CSV header"
            got = [tuple(int(v) for v in ln.split(",")) for ln in lines[1:]]
        want = [(k, c) for k, c in enumerate(family(spec, fam, n)) if c]
        return None if got == want else "profile differs from the reference family"

    def _zeros(self, args, text, payload):
        spec, fam, n = args.get("spec", "z1"), args.get("family", "q"), int(args["n"])
        if payload is not None:
            points = [complex(p["re"], p["im"]) for p in payload["points"]]
            origin = payload["origin_multiplicity"]
        else:
            lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
            if lines[0] != "family,n,re,im,residual,locus_distance":
                return "bad CSV header"
            points, origin = [], 0
            for line in lines[1:]:
                cells = line.split(",")
                if cells[2:] == ["0", "0", "0", ""]:
                    origin += 1
                else:
                    points.append(complex(float(cells[2]), float(cells[3])))
        return check_zeros(spec, fam, n, points, origin, self.zero_stats)

    def _verify(self, args, text, payload):
        if payload is not None:
            return None if payload["ok"] and payload["checks"] else "verify reported failures"
        lines = text.splitlines()
        if lines[-1] != "all checks passed" or not all(ln.startswith("PASS") for ln in lines[:-1]):
            return "verify reported failures"
        return None


def _parse_argv(argv):
    args = {"command": argv[0]}
    i = 1
    while i < len(argv):
        key = argv[i].lstrip("-")
        if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            args[key] = argv[i + 1]
            i += 2
        else:
            args[key] = True
            i += 1
    return args


def _index_rows(args):
    if "upto" in args:
        return list(range(int(args["upto"]) + 1))
    return [int(args["n"])]


_PART = re.compile(r"^(\d+)([-~]?)$")


def _check_partition(item: str, n: int):
    if item == "0":
        return None if n == 0 else "empty partition of a positive n"
    seen: dict = {}
    total = 0
    for part in item.split("+"):
        m = _PART.match(part)
        if not m:
            return f"bad part {part!r}"
        size, mark = int(m.group(1)), m.group(2)
        if size != 3 ** round(math.log(size, 3)):
            return f"part {size} is not a power of 3"
        seen[(size, mark)] = seen.get((size, mark), 0) + 1
        total += size
    if total != n:
        return f"{item} sums to {total}, not {n}"
    if any(c > (2 if mark == "" else 1) for (_, mark), c in seen.items()):
        return f"{item} repeats a part too often"
    return None


_TERM = re.compile(r"([+-]?)(\d*)((?:[wxyz](?:\^\d+)?)*)")
_FACTOR = re.compile(r"([wxyz])(?:\^(\d+))?")


def parse_pretty(body: str) -> list[list]:
    """Records of a ``MultiPoly.pretty`` rendering such as ``wxy+2w^2z-3``."""
    records = []
    for sign, mag, mono in _TERM.findall(body):
        if not mag and not mono:
            continue
        exps = [0, 0, 0, 0]
        for var, e in _FACTOR.findall(mono):
            exps["wxyz".index(var)] = int(e or 1)
        coeff = int(mag) if mag else 1
        records.append(exps + [str(-coeff if sign == "-" else coeff)])
    return records


def pretty_uni(coeffs: list[int], var: str = "z") -> str:
    """The rendering ``UniPoly.pretty`` uses, highest degree first."""
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        body = "" if k == 0 else (var if k == 1 else f"{var}^{k}")
        mag = str(abs(c)) if k == 0 or abs(c) != 1 else ""
        parts.append(("-" if c < 0 else ("+" if parts else "")) + mag + body)
    return "".join(parts) or "0"


# -- self-test ----------------------------------------------------------------

DEFECT_FIXTURE = Path(__file__).resolve().parent / "data" / "zeros_p3_n22.csv"


def self_test(root: Path, run_cli) -> tuple[list[str], str]:
    """Prove the zero check is not vacuous.

    It must pass the live ``zeros --spec p3 --n 10`` and flag the recorded
    output of ``zeros --spec p3 --n 22``, captured from a build whose
    general root finder leaves zeros about 0.002 off the claimed locus.
    Returns the problems found and the verdict on the live p3 n = 22
    output (``None`` once the root finder is fixed).  ``run_cli(argv)``
    returns (exit code, stdout bytes, stderr bytes, seconds).
    """
    checker = CliChecker(root, 0)
    problems = []
    argv = ["zeros", "--spec", "p3", "--n", "10"]
    reason = checker.check(argv, 0, *run_cli(argv)[:3])
    if reason:
        problems.append(f"zeros --spec p3 --n 10 rejected: {reason}")
    argv = ["zeros", "--spec", "p3", "--n", "22"]
    if checker.check(argv, 0, 0, DEFECT_FIXTURE.read_bytes(), b"") is None:
        problems.append("recorded off-locus p3 n=22 zeros were not flagged")
    return problems, checker.check(argv, 0, *run_cli(argv)[:3])
