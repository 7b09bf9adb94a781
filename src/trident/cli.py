"""Command-line front door: computation, enumeration, verification, zero export.

Every subcommand emits deterministic output (identical argv and
configuration produce byte-identical bytes, including the seeded jitter of
the root finder).  Exit codes: 0 success, 1 verification failure, 2 usage
error, 3 cap, convergence or float-range error, 141 stdout closed by its
reader.  ``COMMANDS`` is the one table of subcommands; ``run`` writes the
lines an emitter returns to stdout, or to ``--out`` once it has completed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from typing import Callable, NamedTuple

from . import __version__
from .chebyshev import verify_prop35
from .identities import (DIVISIBILITY_SPECS, verify_divisibility, verify_prop61,
                         verify_surprising, verify_telescoping)
from .oracle import (DEFAULT_LIST_CAP, CapExceeded, count_partitions,
                     enumerate_partitions, oracle_poly)
from .report import Report
from .sequences import gf_check, q_poly, r_poly, s_poly, s_poly_product, scalar_qr
from .specialize import STRUCTURE, SpecId, profile, spec_family, structural_check
from .zeros import LOCI, NoConvergence, verify_locus, zeros_of

ENV_CAP = "TRIDENT_CAP"

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_LIMIT = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a writer whose reader left


class UsageError(Exception):
    pass


class VerificationFailed(Exception):
    """A verify run with a failing check; its one argument is the report lines."""


def _indices(args) -> list[int]:
    """The indices a command covers: 0..``--upto`` if given, else ``--n``."""
    if getattr(args, "upto", None) is not None:
        if args.upto < 0:
            raise UsageError("upto must be non-negative")
        return list(range(args.upto + 1))
    if args.n is None:
        raise UsageError("one of --n or --upto is required" if "upto" in args
                         else "--n is required")
    return [args.n]


def _emit_members(args, head: dict, member, field: str, encode, csv_header: str,
                  csv_cells) -> list[str]:
    """One polynomial per index: JSON ``field`` = ``encode(p)``, CSV cells, or pretty rows."""
    rows = [(n, member(n)) for n in _indices(args)]
    if args.format == "json":
        objs = [{"n": n, field: encode(p)} for n, p in rows]
        body = objs[0] if args.upto is None else {"rows": objs}
        return [json.dumps({**head, **body})]
    if args.format == "csv":
        return [csv_header] + [",".join(map(str, (n, *cells)))
                               for n, p in rows for cells in csv_cells(p)]
    return [f"{n}\t{p.pretty()}" for n, p in rows]


def _emit_poly(args) -> list[str]:
    # Resolved per call rather than bound in COMMANDS, so that a profiler
    # wrapping the module-level names sees these calls.
    member = {"s-poly": s_poly, "q-poly": q_poly, "r-poly": r_poly}[args.command]
    return _emit_members(args, {"command": args.command}, member, "terms",
                         lambda p: p.to_records(), "n,exp_w,exp_x,exp_y,exp_z,coeff",
                         lambda p: p.to_records())


def _emit_spec(args) -> list[str]:
    spec = SpecId(args.spec)
    return _emit_members(args, {"command": "spec", "spec": args.spec, "family": args.family},
                         lambda n: spec_family(spec, args.family, n), "coeffs",
                         lambda p: p.to_strings(), "n,degree,coeff",
                         lambda p: enumerate(p.coeffs))


def _emit_scalar(args) -> list[str]:
    rows = [(n, *scalar_qr(n)) for n in _indices(args)]
    if args.format == "json":
        return [json.dumps({"command": "scalar",
                            "rows": [{"n": n, "q": str(q), "r": str(r)} for n, q, r in rows]})]
    if args.format == "csv":
        return ["n,q,r"] + [f"{n},{q},{r}" for n, q, r in rows]
    return [f"{n}\t{q}\t{r}" for n, q, r in rows]


def _list_cap(args) -> int:
    """The partition-list cap: ``--cap``, then ``$TRIDENT_CAP``, then the default."""
    cap = args.cap
    if cap is None:
        try:
            cap = int(os.environ.get(ENV_CAP, DEFAULT_LIST_CAP))
        except ValueError:
            raise UsageError(f"{ENV_CAP} must be an integer, got {os.environ[ENV_CAP]!r}")
    if cap <= 0:
        raise UsageError("cap must be positive")
    return cap


def _emit_enumerate(args) -> list[str]:
    cap = _list_cap(args)
    n, = _indices(args)
    count = count_partitions(n)
    partitions = None
    if args.list:
        partitions = [p.render() for p in enumerate_partitions(n, cap=cap)]
    if args.format == "json":
        payload = {"command": "enumerate", "n": n, "count": str(count)}
        if partitions is not None:
            payload["partitions"] = partitions
        return [json.dumps(payload)]
    if args.format == "csv":
        return ["n,count", f"{n},{count}"] if partitions is None else ["partition", *partitions]
    return [f"n={n} count={count}", *(partitions or ())]


def _emit_profile(args) -> list[str]:
    n, = _indices(args)
    items = sorted(profile(SpecId(args.spec), args.family, n).items())
    if args.format == "json":
        return [json.dumps({"command": "profile", "spec": args.spec, "family": args.family,
                            "n": n, "profile": [{"k": k, "count": str(c)} for k, c in items]})]
    return ["k,count"] + [f"{k},{c}" for k, c in items]


def _emit_zeros(args) -> list[str]:
    n, = _indices(args)
    spec = SpecId(args.spec)
    report, _ = zeros_of(spec, args.family, n)
    locus = LOCI.get((spec, args.family)) if args.locus else None
    params = locus.params if locus is not None else None
    rows = list(zip(report.points, report.residuals,
                    report.locus_distances or [None] * len(report.points)))
    if args.format == "json":
        points = [{"re": z.real, "im": z.imag, "residual": res, "locus_distance": dist}
                  for z, res, dist in rows]
        return [json.dumps({"command": "zeros", "spec": report.spec, "family": report.family,
                            "n": report.n, "origin_multiplicity": report.origin_multiplicity,
                            "locus": params, "points": points})]
    lines = [] if params is None else [f"# locus: {json.dumps(params)}"]
    lines.append("family,n,re,im,residual,locus_distance")
    for z, res, dist in rows:
        lines.append(f"{report.family},{report.n},{z.real:.17g},{z.imag:.17g},{res:.17g},"
                     f"{'' if dist is None else format(dist, '.17g')}")
    return lines + [f"{report.family},{report.n},0,0,0,"] * report.origin_multiplicity


def _emit_tables(args) -> list[str]:
    lines = ["# table 1: four-variable polynomials, n = 0..6"]
    lines += [f"{n}\t{s_poly(n).pretty()}" for n in range(7)]
    lines.append("# table 2: spec z1 families q and r, n = 0..5")
    lines += [f"{n}\t{spec_family(SpecId.Z1, 'q', n).pretty()}"
              f"\t{spec_family(SpecId.Z1, 'r', n).pretty()}" for n in range(6)]
    lines.append("# table 3: spec z2 family q, n = 1..7")
    lines += [f"{n}\t{spec_family(SpecId.Z2, 'q', n).pretty()}" for n in range(1, 8)]
    lines.append("# table 4: spec z3 family q, n = 1..7")
    lines += [f"{n}\t{spec_family(SpecId.Z3, 'q', n).pretty()}" for n in range(1, 8)]
    return lines


def _merged(param_range: str, parts) -> Report:
    """One Report of the (label prefix, Report) pairs ``parts``, in order."""
    report = Report(param_range)
    for prefix, part in parts:
        report.witness = report.witness or part.witness
        for label, passed in part.status.items():
            report.status[prefix + label] = passed
    return report


def _check_prop35(top):
    return {"": _merged(f"n <= {top}", ((f"n={n}: ", verify_prop35(n)) for n in range(top + 1)))}


def _check_structural(top):
    return {"": _merged(f"n <= {top}", ((f"{spec.value} n={n}: ", structural_check(spec, n))
                                        for n in range(1, top + 1) for spec in STRUCTURE))}


def _check_locus(top):
    specs = dict.fromkeys(spec for spec, _ in LOCI)
    return {"": _merged(f"n <= {top}", ((f"{spec.value} n={n}: ", verify_locus(spec, n))
                                        for spec in specs for n in range(2, top + 1)))}


def _check_oracle(nor, ncnt):
    report = Report(f"terms n <= {nor}, counts n <= {ncnt}")
    for n in range(nor + 1):
        if not (s_poly(n) == s_poly_product(n) == oracle_poly(n)):
            report.record(f"polynomial mismatch at n={n}", False)
    for n in range(ncnt + 1):
        if s_poly(n).evaluate(1, 1, 1, 1) != count_partitions(n):
            report.record(f"count mismatch at n={n}", False)
    return {"": report}


# The verification battery in report order: (group id, check, quick ranges,
# full ranges).  A check returns its Reports by id suffix, which tells apart
# the entries of one group.
VERIFICATIONS = (
    ("prop61", lambda n: {"": verify_prop61(n)}, (6,), (12,)),
    ("telescoping", lambda n: {"": verify_telescoping(n)}, (6,), (12,)),
    ("divisibility", lambda n: {f"-{spec.value}": verify_divisibility(spec, n)
                                for spec in DIVISIBILITY_SPECS}, (12,), (24,)),
    ("surprising", lambda n: {"": verify_surprising(n)}, (12,), (40,)),
    ("gf", lambda n: {"": gf_check(n)}, (8,), (15,)),
    ("prop35", _check_prop35, (6,), (12,)),
    ("structural", _check_structural, (8,), (16,)),
    ("locus", _check_locus, (12,), (40,)),
    ("oracle", _check_oracle, (20, 60), (60, 200)),
)

VERIFICATION_GROUPS = tuple(group for group, *_ in VERIFICATIONS)


def run_verification(quick: bool = False, only: list[str] | None = None) -> list[dict]:
    """The full cross-check battery; each entry is {id, ok, detail}.

    The detail is a failing entry's first failure, else its parameter range.
    """
    checks: list[dict] = []
    for group, check, quick_ranges, full_ranges in VERIFICATIONS:
        if only is None or group in only:
            for suffix, report in check(*(quick_ranges if quick else full_ranges)).items():
                checks.append({"id": group + suffix, "ok": report.ok,
                               "detail": report.param_range if report.ok else report.failures[0]})
    return checks


def _emit_verify(args) -> list[str]:
    only = args.only.split(",") if args.only is not None else None
    unknown = [o for o in only or () if o not in VERIFICATION_GROUPS]
    if unknown:
        raise UsageError(f"unknown check id(s): {', '.join(map(repr, unknown))}")
    checks = run_verification(quick=args.quick, only=only)
    ok = all(c["ok"] for c in checks) and bool(checks)
    if args.format == "json":
        lines = [json.dumps({"command": "verify", "ok": ok, "checks": checks})]
    else:
        lines = [f"{'PASS' if c['ok'] else 'FAIL'}  {c['id']}  ({c['detail']})" for c in checks]
        lines.append("all checks passed" if ok else "FAILURES PRESENT")
    if not ok:
        raise VerificationFailed(lines)
    return lines


class Command(NamedTuple):
    help: str
    options: tuple[str, ...]  # keys of OPTIONS
    formats: tuple[str, ...]  # --format choices, the first the default; () for none
    emit: Callable[[argparse.Namespace], list[str]]


# Each option once, as add_argument keywords; a command names those it takes.
OPTIONS = {
    "--n": dict(type=int, help="index to compute"),
    "--upto": dict(type=int, help="compute all indices 0..UPTO"),
    "--spec": dict(default="z1", choices=[s.value for s in SpecId],
                   help="variable substitution"),
    "--family": dict(default="q", choices=["q", "r"]),
    "--list": dict(action="store_true", help="list the partitions"),
    "--cap": dict(type=int,
                  help=f"partition-list cap; overrides ${ENV_CAP} (default {DEFAULT_LIST_CAP})"),
    "--locus": dict(action="store_true",
                    help="include the claimed locus parameters as a JSON header"),
    "--quick": dict(action="store_true", help="reduced parameter ranges"),
    "--only": dict(help="comma-separated check ids"),
}

INDEX = ("--n", "--upto")
MEMBER = ("--spec", "--family")
ALL_FORMATS = ("pretty", "json", "csv")
DATA_FORMATS = ("csv", "json")

COMMANDS = {
    "s-poly": Command("compute the s-poly polynomials", INDEX, ALL_FORMATS, _emit_poly),
    "q-poly": Command("compute the q-poly polynomials", INDEX, ALL_FORMATS, _emit_poly),
    "r-poly": Command("compute the r-poly polynomials", INDEX, ALL_FORMATS, _emit_poly),
    "scalar": Command("the all-ones scalar pair per index", INDEX, ALL_FORMATS, _emit_scalar),
    "enumerate": Command("count or list partitions of n", ("--n", "--list", "--cap"),
                         ALL_FORMATS, _emit_enumerate),
    "spec": Command("specialized single-variable family", INDEX + MEMBER, ALL_FORMATS,
                    _emit_spec),
    "profile": Command("coefficient profile (combinatorial statistic counts)",
                       ("--n", *MEMBER), DATA_FORMATS, _emit_profile),
    "zeros": Command("zeros of a specialized family member", ("--n", *MEMBER, "--locus"),
                     DATA_FORMATS, _emit_zeros),
    "verify": Command("run the identity and locus verification battery",
                      ("--quick", "--only"), ("pretty", "json"), _emit_verify),
    "tables": Command("reproduce the four reference tables", (), (), _emit_tables),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trident",
        description="Restricted colored base-3 partitions: polynomials, identities, zeros.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for flag in command.options:
            p.add_argument(flag, **OPTIONS[flag])
        if command.formats:
            p.add_argument("--format", default=command.formats[0], choices=command.formats)
        p.add_argument("--out", metavar="FILE", help="write output to FILE")
        p.set_defaults(print_usage=p.print_usage)
    return parser


def run(argv: list[str]) -> int:
    """Parse and dispatch; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        lines, code = COMMANDS[args.command].emit(args), EXIT_OK
    except VerificationFailed as exc:
        lines, code = exc.args[0], EXIT_VERIFY_FAILED
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        args.print_usage(sys.stderr)   # the usage of the subcommand at fault
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CapExceeded, NoConvergence, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    try:
        out = open(args.out, "w") if args.out else nullcontext(sys.stdout)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    with out as sink:
        sink.writelines(line + "\n" for line in lines)
    return code


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (``trident ... | head``).  Point stdout at
        # the null device so that the interpreter's final flush stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    sys.exit(code)


if __name__ == "__main__":
    main()
