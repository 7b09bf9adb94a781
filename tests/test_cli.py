"""CLI behavior: formats, schema validity, determinism, exit codes."""

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trident
from fixtures import PARTITIONS_OF_3
from trident import oracle, specialize
from trident.cli import COMMANDS, VERIFICATION_GROUPS, run
from trident.sequences import q_poly, repunit_sweep
from trident.specialize import SpecId, spec_family

with resources.files("trident.schemas").joinpath("cli-output.schema.json").open() as fh:
    SCHEMA = json.load(fh)
DATA = Path(__file__).parent / "data"


def run_capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class Sink:
    """A stdout that keeps the sha256 of what is written and the start of
    each piece, not the text: a sweep past the digit limit writes 30 MB."""

    def __init__(self):
        self.sha256, self.starts = hashlib.sha256(), []

    def write(self, text: str) -> int:
        self.sha256.update(text.encode())
        self.starts.append(text[:16])
        return len(text)

    def writelines(self, pieces) -> None:
        for piece in pieces:
            self.write(piece)

    def flush(self) -> None:
        pass


def run_sunk(argv):
    """``run(argv)`` with stdout in a ``Sink``; stderr is returned as text."""
    out, err = Sink(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out, err.getvalue()


def run_json(capsys, argv):
    code, out, _ = run_capture(capsys, argv)
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    return payload


def test_s_poly_json_contains_example_monomial(capsys):
    payload = run_json(capsys, ["s-poly", "--n", "12", "--format", "json"])
    assert payload["command"] == "s-poly"
    assert [2, 1, 1, 1, "2"] in payload["terms"]
    assert [1, 1, 0, 1, "3"] in payload["terms"]


def test_poly_rows_json(capsys):
    payload = run_json(capsys, ["q-poly", "--upto", "3", "--format", "json"])
    assert len(payload["rows"]) == 4
    assert payload["rows"][0]["terms"] == []          # the zero polynomial
    assert payload["rows"][1]["terms"] == [[0, 0, 0, 0, "1"]]


def test_streamed_polynomial_bytes(capsys):
    # a polynomial is written in pieces of at most 1024 terms (Q_12 has
    # 2,366); the bytes are those of one json.dumps of its records, or of
    # its CSV rows, as if it had been encoded whole
    records = {n: q_poly(n).to_records() for n in range(13)}
    code, out, _ = run_capture(capsys, ["q-poly", "--n", "12", "--format", "json"])
    assert (code, out) == (0, json.dumps({"command": "q-poly", "n": 12,
                                          "terms": records[12]}) + "\n")
    code, out, _ = run_capture(capsys, ["q-poly", "--upto", "12", "--format", "json"])
    rows = [{"n": n, "terms": records[n]} for n in range(13)]
    assert (code, out) == (0, json.dumps({"command": "q-poly", "rows": rows}) + "\n")
    code, out, _ = run_capture(capsys, ["q-poly", "--upto", "12", "--format", "csv"])
    assert (code, out) == (0, "n,exp_w,exp_x,exp_y,exp_z,coeff\n" + "".join(
        ",".join(map(str, (n, *r))) + "\n" for n in range(13) for r in records[n]))


def test_scalar_outputs(capsys):
    payload = run_json(capsys, ["scalar", "--upto", "5", "--format", "json"])
    assert payload["rows"][5] == {"n": 5, "q": "496", "r": "528"}
    code, out, _ = run_capture(capsys, ["scalar", "--upto", "2", "--format", "csv"])
    assert code == 0
    assert out.splitlines() == ["n,q,r", "0,0,1", "1,1,3", "2,6,10"]


def test_enumerate_list_golden(capsys):
    code, out, _ = run_capture(capsys, ["enumerate", "--n", "3", "--list"])
    assert code == 0
    assert out.splitlines() == ["n=3 count=6"] + PARTITIONS_OF_3


def test_enumerate_json_schema(capsys):
    payload = run_json(capsys, ["enumerate", "--n", "3", "--list", "--format", "json"])
    assert payload["count"] == "6"
    assert payload["partitions"] == PARTITIONS_OF_3


def test_enumerate_index_of_a_thousand_digits(capsys):
    # 10**600 has 1258 base-3 digits: the count is answered, not a recursion error
    n = 10**600
    code, out, _ = run_capture(capsys, ["enumerate", "--n", str(n)])
    assert code == 0
    assert out.startswith(f"n={n} count=")


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no int-to-str digit limit before Python 3.10.7")
def test_digit_limit_is_refused_as_a_limit(capsys):
    # an answer longer than the int-to-str limit (4300 digits by default) is
    # refused with exit 3 before it is written; a sweep keeps the rows
    # below it, and the last row within the limit is n = 7142 for scalar and
    # for spec z0, whose members are the scalar pair
    for argv in (["scalar", "--n", "8000"], ["enumerate", "--n", "1" * 4200],
                 ["spec", "--spec", "z0", "--n", "8000"],
                 ["profile", "--spec", "z0", "--n", "8000"]):
        code, out, err = run_capture(capsys, argv)
        assert (code, out) == (3, ""), argv[0]
        assert err == "error: the answer exceeds the limit (4300 digits) " \
                      "for integer string conversion\n", argv[0]
    for argv, header in ((["scalar"], "n,q,r\n"),
                         (["spec", "--spec", "z0", "--family", "r"], "n,degree,coeff\n")):
        code, out, err = run_sunk(argv + ["--upto", "7200", "--format", "csv"])
        assert code == 3 and err.startswith("error: the answer exceeds the limit"), argv[0]
        assert out.starts[0] == header   # then one piece per row
        assert [piece.split(",")[0] for piece in out.starts[1:]] == list(map(str, range(7143)))
    code, out, _ = run_capture(capsys, ["scalar", "--n", "7142"])
    assert code == 0 and out.startswith("7142\t")
    # a limit of 0 is none
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        code, out, _ = run_capture(capsys, ["scalar", "--n", "8000"])
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 0 and out.startswith("8000\t")


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no int-to-str digit limit before Python 3.10.7")
def test_scalar_refuses_from_the_bit_length(capsys):
    # R_n > 2^(2n - 1): an index past the digit limit by that bound alone is
    # refused before its billion-bit answer is formed
    start = time.perf_counter()
    refused = run_capture(capsys, ["scalar", "--n", "1000000000"])
    assert time.perf_counter() - start < 2.0
    assert refused == run_capture(capsys, ["scalar", "--n", "8000"])
    assert refused[:2] == (3, "")


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits") or sys.platform == "win32",
                    reason="needs the int-to-str digit limit and RLIMIT_AS")
def test_scalar_sweep_holds_no_list_of_its_indices():
    # a sweep to 10^8 stops at the digit limit after the same rows as one to
    # 7200, under an address-space limit that a list of 10^8 ints exceeds
    import resource

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    with subprocess.Popen([sys.executable, "-m", "trident.cli", "scalar", "--upto", "100000000",
                           "--format", "csv"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=env, preexec_fn=limit_memory) as child:
        digest = hashlib.sha256()   # 30 MB of rows: hashed as they arrive, not kept
        for chunk in iter(lambda: child.stdout.read(1 << 20), b""):
            digest.update(chunk)
        err = child.stderr.read()
    code, out, _ = run_sunk(["scalar", "--upto", "7200", "--format", "csv"])
    assert (child.wait(timeout=60), code) == (3, 3), err
    assert digest.digest() == out.sha256.digest()


def test_spec_json_and_pretty(capsys):
    payload = run_json(capsys, ["spec", "--spec", "z1", "--family", "q",
                                "--n", "3", "--format", "json"])
    assert payload["coeffs"] == ["13", "12", "3"]
    code, out, _ = run_capture(capsys, ["spec", "--spec", "z3", "--family", "q",
                                        "--upto", "2"])
    assert code == 0
    assert out.splitlines() == ["0\t0", "1\t1", "2\t4z+2"]


def test_profile_csv(capsys):
    code, out, _ = run_capture(capsys, ["profile", "--spec", "z1", "--family", "q",
                                        "--n", "2", "--format", "csv"])
    assert code == 0
    assert out.splitlines() == ["k,count", "0,4", "1,2"]


def test_profile_json_schema(capsys):
    payload = run_json(capsys, ["profile", "--spec", "z3", "--family", "q",
                                "--n", "2", "--format", "json"])
    assert payload["profile"] == [{"k": 0, "count": "2"}, {"k": 1, "count": "4"}]


def test_zeros_csv_with_locus_header(capsys):
    code, out, _ = run_capture(capsys, ["zeros", "--spec", "z3", "--n", "3", "--locus"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# locus: ")
    json.loads(lines[0][len("# locus: "):])
    assert lines[1] == "family,n,re,im,residual,locus_distance"
    assert len(lines) == 4
    # the r-family of z1 claims the same line as its q-family
    code, out, _ = run_capture(capsys, ["zeros", "--spec", "z1", "--family", "r",
                                        "--n", "3", "--locus"])
    assert code == 0
    lines = out.splitlines()
    assert json.loads(lines[0][len("# locus: "):]) == {"type": "line", "re": -2.0}
    assert len(lines) == 5


def test_zeros_json_schema(capsys):
    payload = run_json(capsys, ["zeros", "--spec", "z2", "--n", "4",
                                "--locus", "--format", "json"])
    assert payload["origin_multiplicity"] == 3
    assert len(payload["points"]) == 6
    assert payload["locus"]["type"] == "circle"
    # spec echoes --spec on the explicit route too, whichever family
    for family in ("q", "r"):
        payload = run_json(capsys, ["zeros", "--spec", "z1", "--family", family,
                                    "--n", "4", "--locus", "--format", "json"])
        assert payload["spec"] == "z1"
        assert payload["family"] == family
        assert payload["locus"] == {"type": "line", "re": -2.0}


def test_zeros_preset_route(capsys):
    payload = run_json(capsys, ["zeros", "--spec", "p5", "--n", "6", "--format", "json"])
    assert payload["points"]
    assert all(p["locus_distance"] is not None for p in payload["points"])


def test_zeros_z1_r_first_member(capsys):
    # z + 2: the one factor at n = 1 is a / g = 2z + 4, with its zero at -2
    code, out, _ = run_capture(capsys, ["zeros", "--spec", "z1", "--family", "r", "--n", "1"])
    assert code == 0
    assert out == "family,n,re,im,residual,locus_distance\nr,1,-2,0,0,0\n"


def test_zeros_determinism(capsys):
    argv = ["zeros", "--spec", "p1", "--n", "8"]
    first = run_capture(capsys, argv)
    second = run_capture(capsys, argv)
    assert first[0] == 0
    assert first[1]
    assert first == second


def test_tables_golden_shape(capsys):
    code, out, _ = run_capture(capsys, ["tables"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# table 1")
    assert "3\twxy+wz+xz+w+x+y" in lines
    assert "2\t2z+4\tz^2+4z+5" in lines
    assert "7\t729z^18+1134z^16+1431z^14+1540z^12+1431z^10+1134z^8+729z^6" in lines
    assert "7\t1093z^6+1817z^5+2071z^4+1715z^3+1000z^2+368z+64" in lines
    assert len(lines) == 4 + 7 + 6 + 7 + 7


def test_tables_golden_file(capsys):
    # formatting regression lock; the coefficient-level comparison against
    # the reference data lives in the acceptance suite
    golden = (DATA / "tables_golden.txt").read_text()
    code, out, _ = run_capture(capsys, ["tables"])
    assert code == 0
    assert out == golden


# A transcript is a tests/data/*.txt file with "$ trident" lines, each
# followed by the command's stdout and "[exit N]"; its argv list is its own
# "$ trident" lines, which a CI step and tools/argv_diff.py replay too.  The
# transcripts lock every subcommand in each of its formats; the term order
# and serialization of 4-variable output, in bytes produced when MultiPoly
# still keyed its terms by exponent tuples; the zero floats of the Lucas
# factors (z1 q and r, z2, z3, p1, p3, p5); and Lucas-route members of
# degree 39 to 59 with 9 to 14 factors each, p3 q among them from the index
# where the square-free finder once left its zeros off the claimed locus.
COMMAND_LINE = re.compile(r"^\$ trident (.*)$", flags=re.M)
TRANSCRIPTS = sorted(path.name for path in DATA.glob("*.txt")
                     if COMMAND_LINE.search(path.read_text()))


def test_transcripts_are_found():
    # a search that finds nothing would replay nothing and pass
    assert len(TRANSCRIPTS) >= 4, TRANSCRIPTS


@pytest.mark.parametrize("name", TRANSCRIPTS)
def test_transcript_replays(capsys, name):
    golden = (DATA / name).read_text()
    text = ""
    for command in COMMAND_LINE.findall(golden):
        code, out, _ = run_capture(capsys, command.split())
        text += f"$ trident {command}\n{out}[exit {code}]\n"
    assert text == golden


def test_verify_quick_exits_zero(capsys):
    code, out, _ = run_capture(capsys, ["verify", "--quick"])
    assert code == 0
    assert "FAIL" not in out


def test_verify_json_schema(capsys):
    payload = run_json(capsys, ["verify", "--quick", "--only", "prop61,gf",
                                "--format", "json"])
    assert payload["ok"] is True
    assert {c["id"] for c in payload["checks"]} == {"prop61", "gf"}


def test_verify_failure_path(tmp_path, capsys, monkeypatch):
    # a failing check ends the run with exit 1 and its report still printed,
    # or written to --out; here the z1 q member at n = 3 is off by one
    def mutant(spec, family, n):
        member = spec_family(spec, family, n)
        return member + 1 if (spec, family, n) == (SpecId.Z1, "q", 3) else member

    monkeypatch.setattr("trident.identities.spec_family", mutant)
    argv = ["verify", "--quick", "--only", "surprising"]
    code, out, _ = run_capture(capsys, argv)
    assert code == 1
    assert out.splitlines() == ["FAIL  surprising  (difference n=3)", "FAILURES PRESENT"]
    code, out, _ = run_capture(capsys, argv + ["--format", "json"])
    assert code == 1
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    assert payload["ok"] is False
    assert payload["checks"] == [{"id": "surprising", "ok": False, "detail": "difference n=3"}]
    target = tmp_path / "verify.txt"
    code, out, _ = run_capture(capsys, argv + ["--out", str(target)])
    assert (code, out) == (1, "")
    assert target.read_text() == "FAIL  surprising  (difference n=3)\nFAILURES PRESENT\n"


def test_verify_divisibility_group(capsys, monkeypatch):
    # the group has one entry per claimed substitution, in order, and a
    # failure is reported under the entry of its substitution only; here the
    # z2 q member at n = 4 is off by one
    code, out, _ = run_capture(capsys, ["verify", "--quick", "--only", "divisibility"])
    assert code == 0
    assert [line.split()[1] for line in out.splitlines()[:-1]] == [
        "divisibility-z1", "divisibility-z2", "divisibility-z3"]

    def mutant(spec, family, n):
        member = spec_family(spec, family, n)
        return member + 1 if (spec, family, n) == (SpecId.Z2, "q", 4) else member

    monkeypatch.setattr("trident.identities.spec_family", mutant)
    code, out, _ = run_capture(capsys, ["verify", "--quick", "--only", "divisibility"])
    assert code == 1
    assert [line for line in out.splitlines() if not line.startswith("PASS")] == [
        "FAIL  divisibility-z2  (q[2] | q[4])", "FAILURES PRESENT"]


def test_verify_oracle_count_mismatch(capsys, monkeypatch):
    monkeypatch.setattr("trident.cli.count_partitions",
                        lambda n: oracle.count_partitions(n) + 1)
    code, out, _ = run_capture(capsys, ["verify", "--quick", "--only", "oracle"])
    assert code == 1
    assert out.splitlines() == ["FAIL  oracle  (count mismatch at n=0)", "FAILURES PRESENT"]


def test_verify_oracle_polynomial_mismatch(capsys, monkeypatch):
    monkeypatch.setattr("trident.cli.oracle_poly", lambda n: oracle.oracle_poly(n) + 1)
    code, out, _ = run_capture(capsys, ["verify", "--quick", "--only", "oracle"])
    assert code == 1
    assert out.splitlines() == ["FAIL  oracle  (polynomial mismatch at n=0)",
                                "FAILURES PRESENT"]


def test_verify_merged_group_names_index(capsys, monkeypatch):
    # a group over several specs and indices reports its first failure
    # under the "<spec> n=<n>: " of the index that failed
    def mutant(spec, n):
        report = specialize.structural_check(spec, n)
        if (spec, n) == (SpecId.Z2, 3):
            report.record("not palindromic after reduction", False)
        return report

    monkeypatch.setattr("trident.cli.structural_check", mutant)
    code, out, _ = run_capture(capsys, ["verify", "--quick", "--only", "structural"])
    assert code == 1
    assert out.splitlines() == ["FAIL  structural  (z2 n=3: not palindromic after reduction)",
                                "FAILURES PRESENT"]


def test_verify_prop35_failure_names_index(capsys, monkeypatch):
    # U_n + 1 in place of U_n fails the exact E_n(2v, 1) check at every n;
    # the first at n = 0
    import trident.chebyshev
    from trident.chebyshev import ChebKind, chebyshev
    monkeypatch.setattr(trident.chebyshev, "chebyshev",
                        lambda kind, n: chebyshev(kind, n) + (kind is ChebKind.SECOND))
    code, out, _ = run_capture(capsys, ["verify", "--quick", "--only", "prop35"])
    assert code == 1
    assert out.splitlines() == ["FAIL  prop35  (n=0: E_0(2v, 1) != U_0(v))",
                                "FAILURES PRESENT"]


def test_verify_unknown_check_is_usage_error(capsys):
    code, _, err = run_capture(capsys, ["verify", "--only", "bogus"])
    assert code == 2
    assert "unknown check" in err
    # an empty id, as a trailing comma or an empty list leaves, is named too
    for only in ("gf,", ""):
        code, out, err = run_capture(capsys, ["verify", "--quick", "--only", only])
        assert (code, out) == (2, ""), only
        assert "unknown check id(s): ''\n" in err


def test_usage_errors(capsys):
    code, _, _ = run_capture(capsys, ["s-poly"])
    assert code == 2                       # neither --n nor --upto
    code, _, _ = run_capture(capsys, ["definitely-not-a-command"])
    assert code == 2
    code, _, _ = run_capture(capsys, ["spec", "--spec", "zz", "--n", "1"])
    assert code == 2
    # verify and tables take no index
    code, _, _ = run_capture(capsys, ["tables", "--n", "5"])
    assert code == 2
    code, _, _ = run_capture(capsys, ["verify", "--quick", "--only", "gf", "--n", "99"])
    assert code == 2
    code, _, err = run_capture(capsys, ["enumerate", "--n", "3", "--list", "--cap", "0"])
    assert code == 2
    assert "cap must be positive" in err
    # --n and --upto together are refused, not --n silently dropped
    code, out, err = run_capture(capsys, ["q-poly", "--n", "5", "--upto", "1"])
    assert (code, out) == (2, "")
    assert "--n and --upto cannot be combined" in err
    assert "\nusage: trident q-poly " in err
    # a negative --upto is refused like a negative --n, not read as no indices
    for command in ("q-poly", "spec", "scalar"):
        code, out, err = run_capture(capsys, [command, "--upto", "-1"])
        assert (code, out) == (2, ""), command
        assert "upto must be non-negative" in err
        # the usage printed is that of the subcommand whose options were wrong
        assert f"\nusage: trident {command} " in err
    # option values that used to be accepted and then ignored
    for argv in (["tables", "--format", "pretty"], ["tables", "--format", "json"],
                 ["tables", "--format", "csv"], ["verify", "--quick", "--format", "csv"],
                 ["profile", "--n", "2", "--format", "pretty"],
                 ["zeros", "--n", "3", "--format", "pretty"],
                 ["zeros", "--spec", "p1", "--n", "3", "--tol", "1e-10"],
                 ["zeros", "--spec", "p1", "--n", "3", "--seed", "7"]):
        code, out, _ = run_capture(capsys, argv)
        assert (code, out) == (2, ""), argv
    # a constant member has no zeros, on either route
    for spec in ("z1", "p1"):
        code, out, err = run_capture(capsys, ["zeros", "--spec", spec, "--n", "1"])
        assert code == 2
        assert out == ""
        assert "has no zeros" in err


def test_cap_exceeded_exit_code(capsys):
    code, _, err = run_capture(capsys, ["enumerate", "--n", "50", "--list",
                                        "--cap", "5"])
    assert code == 3
    assert "cap" in err


def test_env_cap_override(capsys, monkeypatch):
    monkeypatch.setenv("TRIDENT_CAP", "5")
    code, _, _ = run_capture(capsys, ["enumerate", "--n", "3", "--list"])
    assert code == 3
    # the explicit flag takes precedence over the environment
    code, out, _ = run_capture(capsys, ["enumerate", "--n", "3", "--list",
                                        "--cap", "100"])
    assert code == 0
    monkeypatch.setenv("TRIDENT_CAP", "not-a-number")
    code, _, err = run_capture(capsys, ["enumerate", "--n", "3"])
    assert code == 2
    monkeypatch.setenv("TRIDENT_CAP", "0")
    code, _, err = run_capture(capsys, ["enumerate", "--n", "3"])
    assert code == 2
    assert "cap must be positive" in err
    # only enumerate reads the cap, so other subcommands ignore the variable
    code, _, _ = run_capture(capsys, ["tables"])
    assert code == 0


def test_out_file(tmp_path, capsys):
    target = tmp_path / "zeros.csv"
    code, out, _ = run_capture(capsys, ["zeros", "--spec", "z1", "--n", "4",
                                        "--out", str(target)])
    assert code == 0
    assert out == ""
    lines = target.read_text().splitlines()
    assert lines[0] == "family,n,re,im,residual,locus_distance"
    assert len(lines) == 4
    # a symbolic link keeps pointing at its file, now rewritten; a target
    # that is not a regular file, such as the null device, is written as is
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    assert run_capture(capsys, ["scalar", "--upto", "4", "--out", str(link)]) == (0, "", "")
    expected = run_capture(capsys, ["scalar", "--upto", "4"])[1]
    assert link.is_symlink() and target.read_text() == expected
    assert sorted(tmp_path.iterdir()) == [link, target]
    assert run_capture(capsys, ["scalar", "--upto", "4", "--out", os.devnull]) == (0, "", "")
    assert Path(os.devnull).is_char_device()


def test_out_file_kept_when_refused(tmp_path, capsys):
    # --out is written only once the command has completed: a refusal, by
    # the parser, the command or a cap, leaves an existing file as it was
    target = tmp_path / "y.csv"
    target.write_text("kept\n")
    for argv, expect in ((["zeros", "--spec", "z0", "--n", "3"], 2),
                         (["zeros", "--spec", "z1"], 2),
                         (["scalar", "--n", "3", "--format", "xml"], 2),
                         (["enumerate", "--n", "50", "--list", "--cap", "5"], 3),
                         (["enumerate", "--n", "3000", "--list"], 3)):
        code, out, _ = run_capture(capsys, argv + ["--out", str(target)])
        assert (code, out) == (expect, ""), argv
        assert target.read_text() == "kept\n"
        assert list(tmp_path.iterdir()) == [target], argv
    # an --out path that cannot be opened is a usage error, not a traceback
    missing = tmp_path / "no-such-dir" / "x.txt"
    code, out, err = run_capture(capsys, ["scalar", "--n", "3", "--out", str(missing)])
    assert (code, out) == (2, "")
    assert err.startswith("error: ")
    assert not missing.parent.exists()


def test_refusal_writes_nothing(capsys):
    # the work up to an emitter's first piece runs before anything is
    # written, so a refusal leaves stdout empty in every format: usage
    # errors, a cap, and z3 r zeros that cannot be certified (the root
    # finder's iterates there are NaN)
    cases = [(argv + ["--format", fmt], expect)
             for argv, expect in ((["q-poly", "--n", "-1"], 2), (["spec", "--n", "-2"], 2),
                                  (["scalar", "--n", "-1"], 2), (["q-poly", "--upto", "-1"], 2),
                                  (["q-poly", "--n", "5", "--upto", "1"], 2),
                                  (["enumerate", "--n", "3000", "--list"], 3))
             for fmt in ("pretty", "csv", "json")]
    cases += [(["zeros", "--spec", "z3", "--family", "r", "--n", n, "--format", fmt], 3)
              for n in ("28", "30") for fmt in ("csv", "json")]
    cases.append((["scalar", "--n", "3", "--format", "xml"], 2))
    for argv, expect in cases:
        code, out, err = run_capture(capsys, argv)
        assert (code, out) == (expect, ""), argv
        assert err.startswith(("error: ", "usage: ")) and "Traceback" not in err, argv


def test_failed_out_leaves_no_file(tmp_path, capsys, monkeypatch):
    # --out is written to a new file beside the target, renamed over it once
    # complete: a run that fails while writing, and one whose target cannot
    # be replaced, leave neither file behind
    target = tmp_path / "q.csv"

    def failing(upto):   # the sweep behind q-poly --upto, failing at index 3
        for n, pair in enumerate(repunit_sweep(upto)):
            if n == 3:
                raise OverflowError("too large")
            yield pair

    monkeypatch.setattr("trident.cli.repunit_sweep", failing)
    for fmt in ("pretty", "csv", "json"):
        code, out, err = run_capture(capsys, ["q-poly", "--upto", "5", "--format", fmt,
                                              "--out", str(target)])
        assert (code, out, err) == (3, "", "error: too large\n")
        assert list(tmp_path.iterdir()) == []
    monkeypatch.undo()
    target.mkdir()
    code, out, err = run_capture(capsys, ["scalar", "--n", "3", "--out", str(target)])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and str(target) in err
    assert list(tmp_path.iterdir()) == [target]
    # a completed run replaces the target, keeps its permissions and leaves
    # nothing else, also past a temporary name a killed run left behind
    target.rmdir()
    target.write_text("old\n")
    target.chmod(0o640)
    stale = tmp_path / f".q.csv.{os.getpid()}.0.tmp"
    stale.write_text("stale\n")
    code, out, _ = run_capture(capsys, ["q-poly", "--upto", "5", "--format", "csv",
                                        "--out", str(target)])
    assert (code, out) == (0, "")
    expected = run_capture(capsys, ["q-poly", "--upto", "5", "--format", "csv"])[1]
    assert target.read_text() == expected and target.stat().st_mode & 0o777 == 0o640
    assert sorted(tmp_path.iterdir()) == [stale, target]


def test_closed_stdout_exits_quietly():
    # a reader that leaves early (trident ... | head -1) ends the run with
    # 128 + SIGPIPE and no traceback; the output far exceeds a pipe buffer,
    # so the writer is still writing when the reader closes
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.Popen([sys.executable, "-m", "trident.cli", "q-poly", "--upto", "16",
                             "--format", "csv"], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"n,exp_w,exp_x,exp_y,exp_z,coeff\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""


def test_version_flag(capsys):
    code, out, _ = run_capture(capsys, ["--version"])
    assert code == 0
    assert out.startswith("trident ")


def test_version_matches_pyproject():
    # tomllib is missing on Python 3.10: the version line is read by regex
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert re.search(r'^version = "(.*)"$', pyproject, re.M).group(1) == trident.__version__


def test_import_leaves_rational_modules_unloaded():
    # the runtime computes in plain integers and keeps its records as
    # NamedTuples: importing the CLI pulls in neither fractions nor decimal,
    # nor dataclasses and the inspect machinery it loads, nor heapq, which
    # only exact division needs (-S keeps site hooks out of the picture)
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import trident.cli; "
            "print(sorted(m for m in ('fractions', 'decimal', 'dataclasses', 'inspect', "
            "'heapq') if m in sys.modules))")
    done = subprocess.run([sys.executable, "-S", "-E", "-c", code, src],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


# The largest index the property below asks of each command: the polynomial
# commands grow fast with n, and scalar's sweep reaches past the digit limit.
FUZZ_TOP = {"s-poly": 400, "q-poly": 9, "r-poly": 9, "spec": 32, "profile": 32, "zeros": 32,
            "scalar": 9000, "enumerate": 400}


@st.composite
def cli_argv(draw):
    """Every subcommand and an unknown one, each with a random choice of its
    options at valid and invalid values; verify always runs --quick."""
    command = draw(st.sampled_from([*COMMANDS, "frobnicate"]))
    top = FUZZ_TOP.get(command, 32)
    n = st.integers(-3, top)
    if command == "enumerate":
        n = n | st.just(int("1" * 4200))   # its count is past the digit limit
    values = {"--n": n, "--upto": st.integers(-3, top),
              "--spec": st.sampled_from([*(s.value for s in SpecId), "zz"]),
              "--family": st.sampled_from(["q", "r", "x"]),
              "--format": st.sampled_from(["pretty", "json", "csv", "xml"]),
              "--cap": st.integers(-2, 10**9)}
    argv = [command]
    if command == "verify":
        groups = [*dict.fromkeys(VERIFICATION_GROUPS), "bogus"]
        argv += ["--quick", "--only", draw(st.sampled_from(groups))]
    options = COMMANDS[command].options if command in COMMANDS else ()
    for flag in (*options, "--format"):
        if flag not in ("--quick", "--only") and draw(st.booleans()):
            argv += [flag, str(draw(values[flag]))] if flag in values else [flag]
    return argv


@settings(max_examples=150, derandomize=True, deadline=None)
@given(argv=cli_argv())
def test_run_answers_or_refuses_every_argv(argv):
    # an exit code of the CLI's own, no traceback, the same answer twice in
    # one process, and nothing on stdout from a refusal of one index
    code, out, err = run_sunk(argv)
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err, argv
    again, out_again, _ = run_sunk(argv)
    assert (again, out_again.sha256.digest()) == (code, out.sha256.digest()), argv
    if code in (2, 3) and "--upto" not in argv:
        assert not any(out.starts), argv
