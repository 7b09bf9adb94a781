"""CLI behavior: formats, schema validity, determinism, exit codes."""

import json
import os
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema

from fixtures import PARTITIONS_OF_3
from trident import identities, oracle, specialize
from trident.cli import run
from trident.specialize import SpecId, spec_family

with resources.files("trident.schemas").joinpath("cli-output.schema.json").open() as fh:
    SCHEMA = json.load(fh)


def run_capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


ZEROS_GOLDEN_SPECS = (("z1", "q", 9), ("z1", "r", 9), ("z2", "q", 9), ("z3", "q", 9),
                      ("p1", "q", 9), ("p3", "q", 9), ("p5", "q", 9))
# Lucas-route members of degree 39 to 59, p3 q among them from the index
# where the square-free finder once left its zeros off the claimed locus.
ZEROS_GOLDEN_HIGH_SPECS = (("p5", "q", 20), ("p4", "q", 24), ("p2", "q", 30),
                           ("p3", "q", 22))


def zeros_golden_text(capsys, members) -> str:
    text = ""
    for spec, family, n in members:
        argv = ["zeros", "--spec", spec, "--family", family, "--n", str(n),
                "--locus", "--format", "csv"]
        code, out, _ = run_capture(capsys, argv)
        assert code == 0
        text += f"$ trident {' '.join(argv)}\n{out}"
    return text


def test_zeros_golden_file(capsys):
    # byte lock on the zero floats of the Lucas factors (z1 q and r, z2, z3,
    # p1, p3, p5)
    golden = (Path(__file__).parent / "data" / "zeros_golden.txt").read_text()
    assert zeros_golden_text(capsys, ZEROS_GOLDEN_SPECS) == golden


def test_zeros_golden_high_degree_file(capsys):
    # byte lock at higher degree: 9 to 14 Lucas factors per member
    golden = (Path(__file__).parent / "data" / "zeros_golden_high.txt").read_text()
    assert zeros_golden_text(capsys, ZEROS_GOLDEN_HIGH_SPECS) == golden


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
    golden = (Path(__file__).parent / "data" / "tables_golden.txt").read_text()
    code, out, _ = run_capture(capsys, ["tables"])
    assert code == 0
    assert out == golden


# The four commands of tests/data/multipoly_golden.txt, whose bytes were
# produced when MultiPoly still keyed its terms by exponent tuples.
MULTIPOLY_GOLDEN_COMMANDS = (
    "q-poly --n 8 --format json",
    "r-poly --upto 5 --format csv",
    "s-poly --n 3000 --format pretty",
    "s-poly --upto 40 --format json",
)


def test_multipoly_golden_file(capsys):
    # byte lock on term order and serialization of 4-variable output
    golden = (Path(__file__).parent / "data" / "multipoly_golden.txt").read_text()
    text = ""
    for command in MULTIPOLY_GOLDEN_COMMANDS:
        code, out, _ = run_capture(capsys, command.split())
        assert code == 0
        text += f"$ trident {command}\n{out}"
    assert text == golden


def test_cli_golden_file(capsys):
    # byte lock on stdout and exit code of every subcommand in each of its
    # formats; the argv list is the file's own "$ trident" lines, which a CI
    # step also replays through python -m trident.cli
    golden = (Path(__file__).parent / "data" / "cli_golden.txt").read_text()
    text = ""
    for command in re.findall(r"^\$ trident (.*)$", golden, flags=re.M):
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
    def mutant(n):
        member = spec_family(SpecId.Z1, "q", n)
        return member + 1 if n == 3 else member

    monkeypatch.setattr("trident.cli.verify_surprising",
                        lambda n: identities.verify_surprising(n, q_provider=mutant))
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


def test_out_file_kept_when_refused(tmp_path, capsys):
    # --out is written only once the command has completed: a refusal, by
    # the parser, the command or a cap, leaves an existing file as it was
    target = tmp_path / "y.csv"
    target.write_text("kept\n")
    for argv, expect in ((["zeros", "--spec", "z0", "--n", "3"], 2),
                         (["zeros", "--spec", "z1"], 2),
                         (["scalar", "--n", "3", "--format", "xml"], 2),
                         (["enumerate", "--n", "50", "--list", "--cap", "5"], 3)):
        code, out, _ = run_capture(capsys, argv + ["--out", str(target)])
        assert (code, out) == (expect, ""), argv
        assert target.read_text() == "kept\n"
    # an --out path that cannot be opened is a usage error, not a traceback
    missing = tmp_path / "no-such-dir" / "x.txt"
    code, out, err = run_capture(capsys, ["scalar", "--n", "3", "--out", str(missing)])
    assert (code, out) == (2, "")
    assert err.startswith("error: ")
    assert not missing.parent.exists()


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
