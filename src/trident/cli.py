"""Command-line front door: computation, enumeration, verification, zero export.

Every subcommand emits deterministic output (identical argv and
configuration produce byte-identical bytes, including the seeded jitter of
the root finder).  Exit codes: 0 success, 1 verification failure, 2 usage
error, 3 cap, convergence, float-range, uncertified-zeros or int-to-str
digit-limit error, 141 stdout closed by its reader.  ``COMMANDS`` is the
one table of subcommands.  An emitter yields its output in pieces as it
computes it, a polynomial in pieces of at most 1024 terms, and ``run``
writes each piece as it arrives: to stdout, or to a file beside ``--out``
that replaces it once the command has completed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from itertools import chain, islice
from typing import Callable, Iterable, Iterator, NamedTuple

from . import __version__
from .chebyshev import verify_prop35
from .identities import (DIVISIBILITY_SPECS, verify_divisibility, verify_prop61,
                         verify_surprising, verify_telescoping)
from .oracle import (DEFAULT_LIST_CAP, CapExceeded, count_partitions,
                     enumerate_partitions, oracle_poly)
from .report import Report
from .sequences import (gf_check, q_poly, r_poly, repunit_sweep, s_poly, s_poly_product,
                        s_poly_sweep, scalar_qr)
from .specialize import (STRUCTURE, SpecId, profile, spec_family, spec_family_sweep,
                         structural_check)
from .zeros import LOCI, NoConvergence, NotCertified, verify_locus, zeros_of

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


def _per_index(args, compute=None, sweep=None):
    """The range of indices a command covers, 0..``--upto`` if given, else ``--n``;
    with ``compute``, ``(n, compute(n))`` per index, or with ``--upto`` the values of
    ``sweep(upto)`` where one is given.  The first is computed at once: an emitter calls
    this before its first piece, so that a refusal (a negative ``--n``) writes nothing."""
    upto = getattr(args, "upto", None)
    if upto is None and args.n is None:
        raise UsageError("one of --n or --upto is required" if "upto" in args
                         else "--n is required")
    if upto is not None and args.n is not None:
        raise UsageError("--n and --upto cannot be combined")
    if upto is not None and upto < 0:
        raise UsageError("upto must be non-negative")
    indices = range(args.n, args.n + 1) if upto is None else range(upto + 1)
    if compute is None:
        return indices
    values = sweep(upto) if sweep and upto is not None else map(compute, indices)
    return zip(indices, chain([next(values)], values))


def _joined(sep: str, items) -> Iterator[str]:
    """``sep.join(items)`` in pieces of at most 1024 items: no piece grows with the answer."""
    items = iter(items)
    lead = ""
    while chunk := list(islice(items, 1024)):
        yield lead + sep.join(chunk)
        lead = sep


def _emit_members(args, head: dict, members, field: str, json_items, csv_header: str,
                  csv_lines) -> Iterator[str]:
    """The ``(n, polynomial)`` pairs of ``_per_index``, each written as it is computed.

    JSON ``field`` holds ``json_items(p)``, the JSON text of each item; CSV
    has the lines ``csv_lines(n, p)`` under ``csv_header``; pretty has one
    line per index.
    """
    if args.format == "json":
        # json.dumps({**head, "n": n, field: [...]}), with --upto
        # json.dumps({**head, "rows": [{"n": n, field: [...]}, ...]})
        opening = json.dumps(head)[:-1] + (", " if args.upto is None else ', "rows": [{')
        for n, p in members:
            yield f'{opening}"n": {n}, "{field}": ['
            yield from _joined(", ", json_items(p))
            opening = "]}, {"
        yield "]}\n" if args.upto is None else "]}]}\n"
    elif args.format == "csv":
        yield csv_header
        for n, p in members:
            yield from _joined("", csv_lines(n, p))
    else:
        for n, p in members:
            yield f"{n}\t{p.pretty()}\n"


def _emit_poly(args) -> Iterator[str]:
    # Resolved per call rather than bound in COMMANDS, so that a profiler
    # wrapping the module-level names sees these calls.
    member, sweep = {
        "s-poly": (s_poly, s_poly_sweep),
        "q-poly": (q_poly, lambda upto: (q for _, q in repunit_sweep(upto))),
        "r-poly": (r_poly, lambda upto: (r for r, _ in repunit_sweep(upto)))
    }[args.command]
    return _emit_members(
        args, {"command": args.command}, _per_index(args, member, sweep), "terms",
        lambda p: (f'[{i}, {j}, {k}, {l}, "{c}"]' for i, j, k, l, c in p.terms()),
        "n,exp_w,exp_x,exp_y,exp_z,coeff\n",
        lambda n, p: (f"{n},{i},{j},{k},{l},{c}\n" for i, j, k, l, c in p.terms()))


def _emit_spec(args) -> Iterator[str]:
    spec, check = SpecId(args.spec), _digit_check()

    def checked(p):
        check(*p.coeffs)
        return p
    members = _per_index(args, lambda n: checked(spec_family(spec, args.family, n)),
                         lambda upto: map(checked, spec_family_sweep(spec, args.family, upto)))
    return _emit_members(
        args, {"command": "spec", "spec": args.spec, "family": args.family}, members, "coeffs",
        lambda p: (f'"{c}"' for c in p.coeffs), "n,degree,coeff\n",
        lambda n, p: (f"{n},{k},{c}\n" for k, c in enumerate(p.coeffs)))


def _digit_check() -> Callable[..., tuple[int, ...]]:
    """A check that returns its int arguments if ``str`` can convert them all,
    and raises OverflowError if not: Python's int-to-str digit limit, read
    once (none where it is 0, or before Python 3.10.7); ``above=b``, for an
    answer known to exceed 2**b, refuses it from b before it is formed."""
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    bound = 10**digits if digits else math.inf

    def check(*values: int, above: int = 0) -> tuple[int, ...]:
        if (digits and above >= bound.bit_length()) or max(map(abs, values), default=0) >= bound:
            raise OverflowError(f"the answer exceeds the limit ({digits} digits) "
                                "for integer string conversion")
        return values
    return check


def _emit_scalar(args) -> Iterator[str]:
    check = _digit_check()

    def pair(n: int) -> tuple[int, ...]:
        check(above=2 * n - 1)   # R_n = 2^(n-1) (2^n + 1) > 2^(2n-1) for n >= 1
        return check(*scalar_qr(n))
    rows = _per_index(args, pair)
    if args.format == "json":
        sep = '{"command": "scalar", "rows": ['
        for n, (q, r) in rows:
            yield f'{sep}{{"n": {n}, "q": "{q}", "r": "{r}"}}'
            sep = ", "
        yield "]}\n"
    elif args.format == "csv":
        yield "n,q,r\n"
        yield from (f"{n},{q},{r}\n" for n, (q, r) in rows)
    else:
        yield from (f"{n}\t{q}\t{r}\n" for n, (q, r) in rows)


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


def _emit_enumerate(args) -> Iterator[str]:
    cap = _list_cap(args)
    n, = _per_index(args)
    count, = _digit_check()(count_partitions(n))
    partitions = enumerate_partitions(n, cap=cap) if args.list else None
    if args.format == "json":
        head = json.dumps({"command": "enumerate", "n": n, "count": str(count)})
        if partitions is None:
            yield head + "\n"
        else:
            yield head[:-1] + ', "partitions": ['
            yield ", ".join(json.dumps(p.render()) for p in partitions)
            yield "]}\n"
    elif args.format == "csv" and partitions is None:
        yield f"n,count\n{n},{count}\n"
    else:
        yield "partition\n" if args.format == "csv" else f"n={n} count={count}\n"
        yield "".join(p.render() + "\n" for p in partitions or ())


def _emit_profile(args) -> Iterator[str]:
    n, = _per_index(args)
    items = sorted(profile(SpecId(args.spec), args.family, n).items())
    _digit_check()(*(c for _, c in items))
    if args.format == "json":
        yield json.dumps({"command": "profile", "spec": args.spec, "family": args.family,
                          "n": n, "profile": [{"k": k, "count": str(c)} for k, c in items]}) + "\n"
    else:
        yield "k,count\n"
        yield from (f"{k},{c}\n" for k, c in items)


def _emit_zeros(args) -> Iterator[str]:
    n, = _per_index(args)
    spec = SpecId(args.spec)
    report = zeros_of(spec, args.family, n)
    locus = LOCI.get((spec, args.family)) if args.locus else None
    params = locus.params if locus is not None else None
    rows = zip(report.points, report.residuals,
               report.locus_distances or [None] * len(report.points))
    if args.format == "json":
        points = [{"re": z.real, "im": z.imag, "residual": res, "locus_distance": dist}
                  for z, res, dist in rows]
        yield json.dumps({"command": "zeros", "spec": args.spec, "family": args.family,
                          "n": n, "origin_multiplicity": report.origin_multiplicity,
                          "locus": params, "points": points}) + "\n"
        return
    if params is not None:
        yield f"# locus: {json.dumps(params)}\n"
    yield "family,n,re,im,residual,locus_distance\n"
    for z, res, dist in rows:
        yield (f"{args.family},{n},{z.real:.17g},{z.imag:.17g},{res:.17g},"
               f"{'' if dist is None else format(dist, '.17g')}\n")
    yield f"{args.family},{n},0,0,0,\n" * report.origin_multiplicity


def _emit_tables(args) -> Iterator[str]:
    yield "# table 1: four-variable polynomials, n = 0..6\n"
    yield from (f"{n}\t{s_poly(n).pretty()}\n" for n in range(7))
    yield "# table 2: spec z1 families q and r, n = 0..5\n"
    yield from (f"{n}\t{spec_family(SpecId.Z1, 'q', n).pretty()}"
                f"\t{spec_family(SpecId.Z1, 'r', n).pretty()}\n" for n in range(6))
    yield "# table 3: spec z2 family q, n = 1..7\n"
    yield from (f"{n}\t{spec_family(SpecId.Z2, 'q', n).pretty()}\n" for n in range(1, 8))
    yield "# table 4: spec z3 family q, n = 1..7\n"
    yield from (f"{n}\t{spec_family(SpecId.Z3, 'q', n).pretty()}\n" for n in range(1, 8))


def _merged(param_range: str, parts) -> Report:
    """One Report of the (label prefix, Report) pairs ``parts``, in order."""
    report = Report(param_range)
    for prefix, part in parts:
        report.witness = report.witness or part.witness
        for label, passed in part.status.items():
            report.status[prefix + label] = passed
    return report


def _check_oracle(nor, ncnt):
    report = Report(f"terms n <= {nor}, counts n <= {ncnt}")
    for n in range(nor + 1):
        if not (s_poly(n) == s_poly_product(n) == oracle_poly(n)):
            report.record(f"polynomial mismatch at n={n}", False)
    for n in range(ncnt + 1):
        if sum(c for *_, c in s_poly(n).terms()) != count_partitions(n):
            report.record(f"count mismatch at n={n}", False)
    return report


# The verification battery in report order: (group, check id, check, quick
# ranges, full ranges), where a check returns one Report.  The checks look
# up this module's names when called, so that patching those names reaches them.
VERIFICATIONS = (
    ("prop61", "prop61", lambda n: verify_prop61(n), (6,), (12,)),
    ("telescoping", "telescoping", lambda n: verify_telescoping(n), (6,), (12,)),
    *(("divisibility", f"divisibility-{spec.value}",
       lambda n, spec=spec: verify_divisibility(spec, n), (12,), (24,))
      for spec in DIVISIBILITY_SPECS),
    ("surprising", "surprising", lambda n: verify_surprising(n), (12,), (40,)),
    ("gf", "gf", lambda n: gf_check(n), (8,), (15,)),
    ("prop35", "prop35", lambda top: _merged(
        f"n <= {top}", ((f"n={n}: ", verify_prop35(n)) for n in range(top + 1))), (6,), (12,)),
    ("structural", "structural", lambda top: _merged(
        f"n <= {top}", ((f"{spec.value} n={n}: ", structural_check(spec, n))
                        for n in range(1, top + 1) for spec in STRUCTURE)), (8,), (16,)),
    ("locus", "locus", lambda top: _merged(
        f"n <= {top}", ((f"{spec.value} n={n}: ", verify_locus(spec, n))
                        for spec in dict.fromkeys(spec for spec, _ in LOCI)
                        for n in range(2, top + 1))), (12,), (40,)),
    ("oracle", "oracle", _check_oracle, (20, 60), (60, 200)),
)

VERIFICATION_GROUPS = tuple(group for group, *_ in VERIFICATIONS)


def run_verification(quick: bool = False, only: list[str] | None = None) -> list[dict]:
    """The full cross-check battery; each entry is {id, ok, detail}.

    The detail is a failing entry's first failure, else its parameter range.
    """
    checks: list[dict] = []
    for group, check_id, check, quick_ranges, full_ranges in VERIFICATIONS:
        if only is None or group in only:
            report = check(*(quick_ranges if quick else full_ranges))
            checks.append({"id": check_id, "ok": report.ok,
                           "detail": report.param_range if report.ok else report.failures[0]})
    return checks


def _emit_verify(args) -> Iterator[str]:
    only = args.only.split(",") if args.only is not None else None
    unknown = [o for o in only or () if o not in VERIFICATION_GROUPS]
    if unknown:
        raise UsageError(f"unknown check id(s): {', '.join(map(repr, unknown))}")
    checks = run_verification(quick=args.quick, only=only)
    ok = all(c["ok"] for c in checks) and bool(checks)
    if args.format == "json":
        lines = [json.dumps({"command": "verify", "ok": ok, "checks": checks}) + "\n"]
    else:
        lines = [f"{'PASS' if c['ok'] else 'FAIL'}  {c['id']}  ({c['detail']})\n" for c in checks]
        lines.append("all checks passed\n" if ok else "FAILURES PRESENT\n")
    if not ok:
        raise VerificationFailed(lines)
    yield from lines


class Command(NamedTuple):
    help: str
    options: tuple[str, ...]  # keys of OPTIONS
    formats: tuple[str, ...]  # --format choices, the first the default; () for none
    emit: Callable[[argparse.Namespace], Iterator[str]]  # the output's pieces


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


def _write_out(path: str, pieces: Iterable[str]) -> None:
    """Write ``pieces`` to ``path``, a file only once all of them are written.

    A regular file, or a path with nothing there yet, is written through a new
    file beside it (the file a symbolic link names, for a link), which takes
    the old file's permissions and is renamed over it at the end; on any error
    the new file is removed and ``path`` is left as it was.  Anything else,
    such as ``/dev/null`` or a pipe, is written to directly.
    """
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        with open(path, "w") as sink:
            sink.writelines(pieces)
        return
    directory, name = os.path.split(target)
    attempt = 0
    while True:
        temporary = os.path.join(directory, f".{name}.{os.getpid()}.{attempt}.tmp")
        try:
            sink = open(temporary, "x")
            break
        except FileExistsError:   # left behind by a run that was killed
            attempt += 1
    try:
        with sink:
            if os.path.exists(target):
                os.chmod(sink.fileno(), os.stat(target).st_mode & 0o7777)
            sink.writelines(pieces)
        os.replace(temporary, target)
    except BaseException:
        os.remove(temporary)
        raise


def run(argv: list[str]) -> int:
    """Parse and dispatch; returns the process exit code.

    The emitter runs up to its first piece before anything is written, so a
    refusal from the arguments or the first index leaves stdout empty; the
    rest is written piece by piece as the emitter yields it, and a failure
    later in a sweep leaves the pieces before it on stdout.  ``--out`` is
    all or nothing: a refused or failed run leaves an existing file as it was.
    """
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    code = EXIT_OK
    try:
        pieces = COMMANDS[args.command].emit(args)
        try:
            pieces = chain([next(pieces, "")], pieces)
        except VerificationFailed as exc:
            pieces, code = exc.args[0], EXIT_VERIFY_FAILED
        if args.out:
            _write_out(args.out, pieces)
        else:
            sys.stdout.writelines(pieces)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        args.print_usage(sys.stderr)   # the usage of the subcommand at fault
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CapExceeded, NoConvergence, NotCertified, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except OSError as exc:
        if not args.out:
            raise   # stdout: a reader that left early is main's to report
        print(f"error: {OSError(exc.errno, exc.strerror, args.out)}", file=sys.stderr)
        return EXIT_USAGE
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
