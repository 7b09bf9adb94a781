"""Command-line front door: computation, enumeration, verification, zero export.

Every subcommand emits deterministic output (identical argv and
configuration produce byte-identical bytes, including the seeded jitter of
the root finder).  Exit codes: 0 success, 1 verification failure, 2 usage
error, 3 cap or convergence error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from . import __version__
from .chebyshev import verify_prop35
from .identities import (verify_divisibility, verify_prop61, verify_surprising,
                         verify_telescoping)
from .oracle import CapExceeded, count_partitions, enumerate_partitions, oracle_poly
from .polyring import MultiPoly, UniPoly, up_square_free
from .sequences import gf_check, q_poly, r_poly, s_poly, s_poly_product, scalar_qr
from .specialize import (PALINDROMIC_PRESETS, SpecId, profile, spec_family,
                         structural_check)
from .zeros import (NoConvergence, ZeroReport, verify_locus, zeros_explicit,
                    zeros_general)

ENV_CAP = "TRIDENT_CAP"

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_LIMIT = 3


@dataclass
class Config:
    """Run-wide knobs: the list cap of enumerate, the tolerance and seed of zeros."""

    list_cap: int = 10_000
    zero_tol: float = 1e-13
    seed: int = 42

    def __post_init__(self):
        if self.list_cap <= 0:
            raise ValueError("cap must be positive")


class UsageError(Exception):
    pass


def _fmt_float(value: float) -> str:
    return format(value, ".17g")


def _poly_rows(name: str, args) -> list[tuple[int, MultiPoly]]:
    compute = {"s-poly": s_poly, "q-poly": q_poly, "r-poly": r_poly}[name]
    if args.upto is not None:
        return [(n, compute(n)) for n in range(args.upto + 1)]
    if args.n is None:
        raise UsageError("one of --n or --upto is required")
    return [(args.n, compute(args.n))]


def _emit_poly(name: str, args, out) -> None:
    rows = _poly_rows(name, args)
    if args.format == "json":
        if args.upto is None:
            n, p = rows[0]
            payload = {"command": name, "n": n, "terms": p.to_records()}
        else:
            payload = {"command": name,
                       "rows": [{"n": n, "terms": p.to_records()} for n, p in rows]}
        print(json.dumps(payload), file=out)
    elif args.format == "csv":
        print("n,exp_w,exp_x,exp_y,exp_z,coeff", file=out)
        for n, p in rows:
            for rec in p.to_records():
                print(f"{n},{rec[0]},{rec[1]},{rec[2]},{rec[3]},{rec[4]}", file=out)
    else:
        for n, p in rows:
            print(f"{n}\t{p.pretty()}", file=out)


def _emit_scalar(args, out) -> None:
    upto = args.upto if args.upto is not None else args.n
    if upto is None:
        raise UsageError("one of --n or --upto is required")
    ns = range(upto + 1) if args.upto is not None else [args.n]
    pairs = [(n, *scalar_qr(n)) for n in ns]
    if args.format == "json":
        payload = {"command": "scalar",
                   "rows": [{"n": n, "q": str(q), "r": str(r)} for n, q, r in pairs]}
        print(json.dumps(payload), file=out)
    elif args.format == "csv":
        print("n,q,r", file=out)
        for n, q, r in pairs:
            print(f"{n},{q},{r}", file=out)
    else:
        for n, q, r in pairs:
            print(f"{n}\t{q}\t{r}", file=out)


def _emit_enumerate(args, config: Config, out) -> None:
    if args.n is None:
        raise UsageError("--n is required")
    count = count_partitions(args.n)
    partitions = None
    if args.list:
        partitions = [p.render() for p in enumerate_partitions(args.n, cap=config.list_cap)]
    if args.format == "json":
        payload = {"command": "enumerate", "n": args.n, "count": str(count)}
        if partitions is not None:
            payload["partitions"] = partitions
        print(json.dumps(payload), file=out)
    elif args.format == "csv":
        if partitions is None:
            print("n,count", file=out)
            print(f"{args.n},{count}", file=out)
        else:
            print("partition", file=out)
            for line in partitions:
                print(line, file=out)
    else:
        print(f"n={args.n} count={count}", file=out)
        if partitions is not None:
            for line in partitions:
                print(line, file=out)


def _spec_rows(args) -> list[tuple[int, UniPoly]]:
    spec = SpecId.from_string(args.spec)
    family = args.family
    if args.upto is not None:
        return [(n, spec_family(spec, family, n)) for n in range(args.upto + 1)]
    if args.n is None:
        raise UsageError("one of --n or --upto is required")
    return [(args.n, spec_family(spec, family, args.n))]


def _emit_spec(args, out) -> None:
    rows = _spec_rows(args)
    if args.format == "json":
        if args.upto is None:
            n, p = rows[0]
            payload = {"command": "spec", "spec": args.spec, "family": args.family,
                       "n": n, "coeffs": p.to_strings()}
        else:
            payload = {"command": "spec", "spec": args.spec, "family": args.family,
                       "rows": [{"n": n, "coeffs": p.to_strings()} for n, p in rows]}
        print(json.dumps(payload), file=out)
    elif args.format == "csv":
        print("n,degree,coeff", file=out)
        for n, p in rows:
            for d, c in enumerate(p.coeffs):
                print(f"{n},{d},{c}", file=out)
    else:
        for n, p in rows:
            print(f"{n}\t{p.pretty()}", file=out)


def _emit_profile(args, out) -> None:
    if args.n is None:
        raise UsageError("--n is required")
    spec = SpecId.from_string(args.spec)
    prof = profile(spec, args.family, args.n)
    items = sorted(prof.coeffs.items())
    if args.format == "json":
        payload = {"command": "profile", "spec": args.spec, "family": args.family,
                   "n": args.n,
                   "profile": [{"k": k, "count": str(c)} for k, c in items]}
        print(json.dumps(payload), file=out)
    else:
        print("k,count", file=out)
        for k, c in items:
            print(f"{k},{c}", file=out)


_LOCUS_PARAMS = {
    SpecId.Z1: {"type": "line", "re": -2.0},
    SpecId.Z2: {"type": "circle", "center": [0.0, 0.0], "radius": 1.0,
                "constraint": "|Im(z)| > 1/3"},
    SpecId.Z3: {"type": "circle", "center": [0.375, 0.0], "radius": 0.875,
                "constraint": "Re(z) < 1/2"},
    SpecId.P3: {"type": "union", "components": [
        {"type": "circle", "center": [0.0, 0.0], "radius": 1.0},
        {"type": "segment", "axis": "negative-real"}]},
    SpecId.P5: {"type": "union", "components": [
        {"type": "circle", "center": [0.0, 0.0], "radius": 1.0},
        {"type": "segment", "axis": "negative-real"}]},
    SpecId.P6: {"type": "union", "components": [
        {"type": "circle", "center": [0.0, 0.0], "radius": 1.0},
        {"type": "segment", "axis": "negative-real"}]},
}


def _preset_locus_distance(z: complex) -> float:
    circle = abs(abs(z) - 1.0)
    axis = abs(z.imag) if z.real <= 0 else abs(z)
    return min(circle, axis)


def _zero_report(args, config: Config) -> tuple[ZeroReport, SpecId]:
    spec = SpecId.from_string(args.spec)
    family = args.family
    if args.n is None:
        raise UsageError("--n is required")
    n = args.n
    if spec is SpecId.Z1:
        return zeros_explicit("z1q" if family == "q" else "z1r", n), spec
    if spec is SpecId.Z2 and family == "q":
        return zeros_explicit("z2", n), spec
    if spec is SpecId.Z3 and family == "q":
        return zeros_explicit("z3", n), spec
    poly = spec_family(spec, family, n)
    if poly.degree() < 1:
        raise UsageError(f"{args.spec}/{family} member {n} has no zeros")
    report = zeros_general(up_square_free(poly), tol=config.zero_tol, seed=config.seed)
    report.spec = spec.value
    report.family = family
    report.n = n
    if spec in (SpecId.P3, SpecId.P5, SpecId.P6) and family == "q":
        report.locus_distances = [_preset_locus_distance(z) for z in report.points]
    return report, spec


def _emit_zeros(args, config: Config, out) -> None:
    report, spec = _zero_report(args, config)
    locus = _LOCUS_PARAMS.get(spec) if args.family == "q" else None
    if args.format == "json":
        points = []
        for i, z in enumerate(report.points):
            dist = report.locus_distances[i] if report.locus_distances else None
            points.append({"re": z.real, "im": z.imag,
                           "residual": report.residuals[i],
                           "locus_distance": dist})
        payload = {"command": "zeros", "spec": report.spec, "family": report.family,
                   "n": report.n, "origin_multiplicity": report.origin_multiplicity,
                   "locus": locus if args.locus else None, "points": points}
        print(json.dumps(payload), file=out)
    else:
        if args.locus and locus is not None:
            print(f"# locus: {json.dumps(locus)}", file=out)
        print("family,n,re,im,residual,locus_distance", file=out)
        for i, z in enumerate(report.points):
            dist = ""
            if report.locus_distances:
                dist = _fmt_float(report.locus_distances[i])
            print(f"{report.family},{report.n},{_fmt_float(z.real)},"
                  f"{_fmt_float(z.imag)},{_fmt_float(report.residuals[i])},{dist}",
                  file=out)
        for _ in range(report.origin_multiplicity):
            print(f"{report.family},{report.n},0,0,0,", file=out)


def _emit_tables(args, out) -> None:
    print("# table 1: four-variable polynomials, n = 0..6", file=out)
    for n in range(7):
        print(f"{n}\t{s_poly(n).pretty()}", file=out)
    print("# table 2: spec z1 families q and r, n = 0..5", file=out)
    for n in range(6):
        q = spec_family(SpecId.Z1, "q", n)
        r = spec_family(SpecId.Z1, "r", n)
        print(f"{n}\t{q.pretty()}\t{r.pretty()}", file=out)
    print("# table 3: spec z2 family q, n = 1..7", file=out)
    for n in range(1, 8):
        print(f"{n}\t{spec_family(SpecId.Z2, 'q', n).pretty()}", file=out)
    print("# table 4: spec z3 family q, n = 1..7", file=out)
    for n in range(1, 8):
        print(f"{n}\t{spec_family(SpecId.Z3, 'q', n).pretty()}", file=out)


def run_verification(quick: bool = False, only: list[str] | None = None) -> list[dict]:
    """The full cross-check battery; each entry is {id, ok, detail}."""
    if quick:
        n61, ntel, ndiv, nsur, ngf, n35, nstr, nloc, npre, nor, ncnt = \
            6, 6, 12, 12, 8, 6, 8, 8, 6, 20, 60
    else:
        n61, ntel, ndiv, nsur, ngf, n35, nstr, nloc, npre, nor, ncnt = \
            12, 12, 24, 40, 15, 12, 16, 20, 10, 60, 200

    checks: list[dict] = []

    def add(check_id: str, ok: bool, detail: str) -> None:
        checks.append({"id": check_id, "ok": ok, "detail": detail})

    def wanted(check_id: str) -> bool:
        return only is None or check_id in only

    if wanted("prop61"):
        rep = verify_prop61(n61)
        add("prop61", rep.ok, rep.first_failure() or rep.param_range)
    if wanted("telescoping"):
        rep = verify_telescoping(ntel)
        add("telescoping", rep.ok, rep.first_failure() or rep.param_range)
    if wanted("divisibility"):
        for spec in (SpecId.Z1, SpecId.Z2, SpecId.Z3):
            rep = verify_divisibility(spec, ndiv)
            add(f"divisibility-{spec.value}", rep.ok, rep.first_failure() or rep.param_range)
    if wanted("surprising"):
        rep = verify_surprising(nsur)
        add("surprising", rep.ok, rep.first_failure() or rep.param_range)
    if wanted("gf"):
        rep = gf_check(ngf)
        add("gf", rep.ok, f"degree <= {ngf}")
    if wanted("prop35"):
        reports = [verify_prop35(n) for n in range(n35 + 1)]
        bad = [r for r in reports if not r.ok]
        add("prop35", not bad, bad[0].failures[0] if bad else f"n <= {n35}")
    if wanted("structural"):
        failures = []
        for n in range(1, nstr + 1):
            for spec in (SpecId.Z1, SpecId.Z2, SpecId.Z3, *PALINDROMIC_PRESETS):
                rep = structural_check(spec, n)
                if not rep.ok:
                    failures.append(f"{spec.value} n={n}: {rep.failures[0]}")
        add("structural", not failures, failures[0] if failures else f"n <= {nstr}")
    if wanted("locus"):
        failures = []
        for spec, top in ((SpecId.Z1, nloc), (SpecId.Z2, nloc), (SpecId.Z3, nloc),
                          (SpecId.P3, npre), (SpecId.P5, npre), (SpecId.P6, npre)):
            for n in range(2, top + 1):
                rep = verify_locus(spec, n)
                if not rep.ok:
                    failures.append(f"{spec.value} n={n}: {rep.failures[0]}")
        add("locus", not failures, failures[0] if failures else
            f"z-specs n <= {nloc}, presets n <= {npre}")
    if wanted("oracle"):
        mismatch = None
        for n in range(nor + 1):
            if not (s_poly(n) == s_poly_product(n) == oracle_poly(n)):
                mismatch = f"polynomial mismatch at n={n}"
                break
        if mismatch is None:
            for n in range(ncnt + 1):
                if s_poly(n).evaluate(1, 1, 1, 1) != count_partitions(n):
                    mismatch = f"count mismatch at n={n}"
                    break
        add("oracle", mismatch is None, mismatch or
            f"terms n <= {nor}, counts n <= {ncnt}")
    return checks


VERIFICATION_GROUPS = ("prop61", "telescoping", "divisibility", "surprising",
                       "gf", "prop35", "structural", "locus", "oracle")


def _emit_verify(args, out) -> int:
    only = args.only.split(",") if args.only else None
    if only is not None:
        unknown = [o for o in only if o not in VERIFICATION_GROUPS]
        if unknown:
            raise UsageError(f"unknown check id(s): {', '.join(unknown)}")
    checks = run_verification(quick=args.quick, only=only)
    ok = all(c["ok"] for c in checks) and bool(checks)
    if args.format == "json":
        print(json.dumps({"command": "verify", "ok": ok, "checks": checks}), file=out)
    else:
        for c in checks:
            print(f"{'PASS' if c['ok'] else 'FAIL'}  {c['id']}  ({c['detail']})", file=out)
        print(f"{'all checks passed' if ok else 'FAILURES PRESENT'}", file=out)
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trident",
        description="Restricted colored base-3 partitions: polynomials, identities, zeros.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, spec=False, family=False, upto=True):
        p.add_argument("--n", type=int, default=None, help="index to compute")
        if upto:
            p.add_argument("--upto", type=int, default=None, help="compute all indices 0..UPTO")
        if spec:
            p.add_argument("--spec", default="z1",
                           choices=[s.value for s in SpecId],
                           help="variable substitution")
        if family:
            p.add_argument("--family", default="q", choices=["q", "r"])
        p.add_argument("--format", default="pretty", choices=["pretty", "json", "csv"])
        p.add_argument("--out", default=None, metavar="FILE", help="write output to FILE")

    for name in ("s-poly", "q-poly", "r-poly"):
        common(sub.add_parser(name, help=f"compute the {name} polynomials"))
    common(sub.add_parser("scalar", help="the all-ones scalar pair per index"))
    p = sub.add_parser("enumerate", help="count or list partitions of n")
    common(p, upto=False)
    p.add_argument("--list", action="store_true", help="list the partitions")
    p.add_argument("--cap", type=int, default=None,
                   help=f"partition-list cap; overrides ${ENV_CAP} (default 10000)")
    common(sub.add_parser("spec", help="specialized single-variable family"),
           spec=True, family=True)
    p = sub.add_parser("profile", help="coefficient profile (combinatorial statistic counts)")
    common(p, spec=True, family=True, upto=False)
    p = sub.add_parser("zeros", help="zeros of a specialized family member (CSV)")
    common(p, spec=True, family=True, upto=False)
    p.add_argument("--locus", action="store_true",
                   help="include the claimed locus parameters as a JSON header")
    p.add_argument("--tol", type=float, default=None, help="zero-finder tolerance")
    p.add_argument("--seed", type=int, default=None, help="root-finder jitter seed")
    p = sub.add_parser("verify", help="run the identity and locus verification battery")
    common(p, upto=False)
    p.add_argument("--quick", action="store_true", help="reduced parameter ranges")
    p.add_argument("--only", default=None, help="comma-separated check ids")
    common(sub.add_parser("tables", help="reproduce the four reference tables"), upto=False)
    return parser


def _build_config(args) -> Config:
    kwargs = {}
    if args.command == "enumerate":
        cap = args.cap
        if cap is None:
            env = os.environ.get(ENV_CAP)
            if env is not None:
                try:
                    cap = int(env)
                except ValueError:
                    raise UsageError(f"{ENV_CAP} must be an integer, got {env!r}")
        if cap is not None:
            kwargs["list_cap"] = cap
    elif args.command == "zeros":
        if args.tol is not None:
            kwargs["zero_tol"] = args.tol
        if args.seed is not None:
            kwargs["seed"] = args.seed
    try:
        return Config(**kwargs)
    except ValueError as exc:
        raise UsageError(str(exc))


def run(argv: list[str]) -> int:
    """Parse and dispatch; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = _build_config(args)
        out = sys.stdout
        sink = None
        if args.out:
            sink = open(args.out, "w")
            out = sink
        try:
            if args.command in ("s-poly", "q-poly", "r-poly"):
                _emit_poly(args.command, args, out)
            elif args.command == "scalar":
                _emit_scalar(args, out)
            elif args.command == "enumerate":
                _emit_enumerate(args, config, out)
            elif args.command == "spec":
                _emit_spec(args, out)
            elif args.command == "profile":
                _emit_profile(args, out)
            elif args.command == "zeros":
                _emit_zeros(args, config, out)
            elif args.command == "verify":
                return _emit_verify(args, out)
            elif args.command == "tables":
                _emit_tables(args, out)
            return EXIT_OK
        finally:
            if sink is not None:
                sink.close()
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    except (ValueError,) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except NoConvergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMIT


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
