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

from . import __version__
from .chebyshev import verify_prop35
from .identities import (verify_divisibility, verify_prop61, verify_surprising,
                         verify_telescoping)
from .oracle import (DEFAULT_LIST_CAP, CapExceeded, count_partitions,
                     enumerate_partitions, oracle_poly)
from .polyring import MultiPoly, UniPoly
from .sequences import gf_check, q_poly, r_poly, s_poly, s_poly_product, scalar_qr
from .specialize import (PALINDROMIC_PRESETS, SpecId, profile, spec_family,
                         structural_check)
from .zeros import (DEFAULT_ROOT_TOL, DEFAULT_SEED, LOCI, NoConvergence,
                    verify_locus, zeros_of)

ENV_CAP = "TRIDENT_CAP"

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_LIMIT = 3


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


def _list_cap(args) -> int:
    """The partition-list cap: ``--cap``, then ``$TRIDENT_CAP``, then the default."""
    cap = args.cap
    if cap is None:
        env = os.environ.get(ENV_CAP)
        if env is None:
            return DEFAULT_LIST_CAP
        try:
            cap = int(env)
        except ValueError:
            raise UsageError(f"{ENV_CAP} must be an integer, got {env!r}")
    if cap <= 0:
        raise UsageError("cap must be positive")
    return cap


def _emit_enumerate(args, out) -> None:
    if args.n is None:
        raise UsageError("--n is required")
    count = count_partitions(args.n)
    partitions = None
    if args.list:
        partitions = [p.render() for p in enumerate_partitions(args.n, cap=args.cap)]
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


def _emit_zeros(args, out) -> None:
    if args.n is None:
        raise UsageError("--n is required")
    spec = SpecId.from_string(args.spec)
    report, _ = zeros_of(spec, args.family, args.n, tol=args.tol, seed=args.seed)
    locus = LOCI.get((spec, args.family)) if args.locus else None
    params = locus.params if locus is not None else None
    if args.format == "json":
        points = []
        for i, z in enumerate(report.points):
            dist = report.locus_distances[i] if report.locus_distances else None
            points.append({"re": z.real, "im": z.imag,
                           "residual": report.residuals[i],
                           "locus_distance": dist})
        payload = {"command": "zeros", "spec": report.spec, "family": report.family,
                   "n": report.n, "origin_multiplicity": report.origin_multiplicity,
                   "locus": params, "points": points}
        print(json.dumps(payload), file=out)
    else:
        if params is not None:
            print(f"# locus: {json.dumps(params)}", file=out)
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


def _entry(rep, suffix: str = ""):
    # One entry from an identity report: its first failure, else its range.
    return suffix, rep.ok, rep.first_failure() or rep.param_range


def _failures_entry(failures: list[str], passed: str):
    return [("", not failures, failures[0] if failures else passed)]


def _check_prop35(top):
    bad = [r.failures[0] for r in map(verify_prop35, range(top + 1)) if not r.ok]
    return _failures_entry(bad, f"n <= {top}")


def _check_structural(top):
    failures = []
    for n in range(1, top + 1):
        for spec in (SpecId.Z1, SpecId.Z2, SpecId.Z3, *PALINDROMIC_PRESETS):
            rep = structural_check(spec, n)
            if not rep.ok:
                failures.append(f"{spec.value} n={n}: {rep.failures[0]}")
    return _failures_entry(failures, f"n <= {top}")


def _check_locus(nloc, npre):
    failures = []
    for spec, top in ((SpecId.Z1, nloc), (SpecId.Z2, nloc), (SpecId.Z3, nloc),
                      (SpecId.P3, npre), (SpecId.P5, npre), (SpecId.P6, npre)):
        for n in range(2, top + 1):
            rep = verify_locus(spec, n)
            if not rep.ok:
                failures.append(f"{spec.value} n={n}: {rep.failures[0]}")
    return _failures_entry(failures, f"z-specs n <= {nloc}, presets n <= {npre}")


def _check_oracle(nor, ncnt):
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
    return [("", mismatch is None, mismatch or f"terms n <= {nor}, counts n <= {ncnt}")]


# The verification battery in report order: (group id, check, quick ranges,
# full ranges).  A check returns (id suffix, ok, detail) entries; the suffix
# tells apart the entries of one group.
VERIFICATIONS = (
    ("prop61", lambda n: [_entry(verify_prop61(n))], (6,), (12,)),
    ("telescoping", lambda n: [_entry(verify_telescoping(n))], (6,), (12,)),
    ("divisibility", lambda n: [_entry(verify_divisibility(spec, n), f"-{spec.value}")
                                for spec in (SpecId.Z1, SpecId.Z2, SpecId.Z3)], (12,), (24,)),
    ("surprising", lambda n: [_entry(verify_surprising(n))], (12,), (40,)),
    ("gf", lambda n: [("", gf_check(n).ok, f"degree <= {n}")], (8,), (15,)),
    ("prop35", _check_prop35, (6,), (12,)),
    ("structural", _check_structural, (8,), (16,)),
    ("locus", _check_locus, (8, 6), (20, 10)),
    ("oracle", _check_oracle, (20, 60), (60, 200)),
)

VERIFICATION_GROUPS = tuple(group for group, *_ in VERIFICATIONS)


def run_verification(quick: bool = False, only: list[str] | None = None) -> list[dict]:
    """The full cross-check battery; each entry is {id, ok, detail}."""
    checks: list[dict] = []
    for group, check, quick_ranges, full_ranges in VERIFICATIONS:
        if only is None or group in only:
            for suffix, ok, detail in check(*(quick_ranges if quick else full_ranges)):
                checks.append({"id": group + suffix, "ok": ok, "detail": detail})
    return checks


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

    def common(p, spec=False, family=False, index=True, upto=True):
        if index:
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
                   help=f"partition-list cap; overrides ${ENV_CAP} (default {DEFAULT_LIST_CAP})")
    common(sub.add_parser("spec", help="specialized single-variable family"),
           spec=True, family=True)
    p = sub.add_parser("profile", help="coefficient profile (combinatorial statistic counts)")
    common(p, spec=True, family=True, upto=False)
    p = sub.add_parser("zeros", help="zeros of a specialized family member (CSV)")
    common(p, spec=True, family=True, upto=False)
    p.add_argument("--locus", action="store_true",
                   help="include the claimed locus parameters as a JSON header")
    p.add_argument("--tol", type=float, default=DEFAULT_ROOT_TOL, help="zero-finder tolerance")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="root-finder jitter seed")
    p = sub.add_parser("verify", help="run the identity and locus verification battery")
    common(p, index=False, upto=False)
    p.add_argument("--quick", action="store_true", help="reduced parameter ranges")
    p.add_argument("--only", default=None, help="comma-separated check ids")
    common(sub.add_parser("tables", help="reproduce the four reference tables"),
           index=False, upto=False)
    return parser


def run(argv: list[str]) -> int:
    """Parse and dispatch; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "enumerate":
            args.cap = _list_cap(args)
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
                _emit_enumerate(args, out)
            elif args.command == "spec":
                _emit_spec(args, out)
            elif args.command == "profile":
                _emit_profile(args, out)
            elif args.command == "zeros":
                _emit_zeros(args, out)
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
