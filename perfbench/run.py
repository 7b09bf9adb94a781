"""trident benchmark: seeded, closed-loop, single-client workloads.

    python3 perfbench/run.py --workload {algebra,zeros,cli,all} --seed N \
        --seconds S --trace {0,1} [--requests FILE]

A run generates the workload's request list from the seed (or replays a
saved one with ``--requests``) and serves it in passes until ``--seconds``
would be exceeded.  Each pass starts from cold memos: ``algebra`` and
``zeros`` run the list in one fresh library session (``worker.py``),
``cli`` runs each request as its own ``python3 -m trident.cli`` process,
one at a time.  Every output is checked by ``checker.py``, which shares no
code with the package.

Every time reported is scaled to a fixed reference speed by calibration
ticks measured next to it (``calibrate.py``): the shared host this runs on
changes speed by up to 1.4x for minutes at a time.  Library requests are
scaled by a fixed interpreter loop run in the worker before each request;
CLI requests and set-up probes by the start-up of a bare interpreter,
spawned between them.  The run keeps to one CPU, and so do the processes
it starts.

End-to-end metrics (``--trace 0``), medians over the passes:

* ``setup_s``      median time of ``import trident`` in a fresh interpreter,
                   over probes taken at the start of the run and after every pass
* ``wall_s``       time to serve the whole request list (sum of request latencies)
* ``req_p50_ms``   median request latency
* ``req_p90_ms``   90th-percentile request latency (>= 100 requests per pass)
* ``peak_rss_mb``  peak resident memory of the process(es) serving a pass
* ``ok_frac``      requests that passed their check over requests attempted
                   (1 - fail_frac; the summary also prints fail_frac and its counts)

With ``--trace 1`` untraced and traced passes alternate; the traced ones
wrap the package's public functions (``tracer.py``) and the run reports
per-layer busy time, self time, calls and work counts, plus the tracing
overhead (traced minus untraced ``wall_s``; it reads below 0 when the
overhead is smaller than the spread between passes, as on ``zeros``).

Everything a run writes goes under ``perfbench/runs/<workload>-seed<N>-trace<T>/``:
the request list, per-pass results, spans and ``result.json`` with the run
metadata.  The last line of stdout is the JSON result; ``--workload all``
runs the three workloads in turn and ends with one line whose metric names
carry the workload as a prefix.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "runs"
RUN_LIMIT_S = 170.0
# ``import trident`` probes at the start of a run, and again after each pass,
# so that the set-up samples spread over the whole run.
SETUP_FIRST, SETUP_PER_PASS = 21, 2

sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import checker  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


class Runner:
    """Serves passes of one request list and collects what each pass measured."""

    def __init__(self, workload: str, seed: int, requests: list[dict], out_dir: Path):
        self.workload, self.seed, self.requests, self.out_dir = workload, seed, requests, out_dir
        self.t_begin = time.perf_counter()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        self.request_file = out_dir / "requests.json"
        self.request_file.write_text(json.dumps(
            {"workload": workload, "seed": seed, "requests": requests}, indent=0))

    def remaining(self) -> float:
        left = RUN_LIMIT_S - (time.perf_counter() - self.t_begin)
        if left <= 0:
            raise TimeoutError("run exceeded its time limit")
        return left

    def setup_times(self, count: int) -> list[float]:
        """Time of ``import trident`` in each of ``count`` fresh interpreters.

        Spawn ticks run between the probes, and the times are scaled by them.
        """
        probe = "import time; t = time.perf_counter(); import trident; print(time.perf_counter() - t)"
        times, ticks = [], [self.spawn_tick()]
        for _ in range(count):
            times.append(float(subprocess.run([sys.executable, "-c", probe], env=self.env,
                                              check=True, capture_output=True, text=True,
                                              timeout=self.remaining()).stdout))
            ticks.append(self.spawn_tick())
        return calibrate.scale(times, ticks, calibrate.REF_SPAWN_S)

    def spawn_tick(self) -> float:
        signal.setitimer(signal.ITIMER_REAL, self.remaining())
        try:
            return calibrate.spawn_tick(self.env)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)

    def run_cli(self, argv, extra_env=None, prefix=None):
        """(exit code, stdout, stderr, seconds from spawn to exit, peak RSS in KiB) of one CLI process.

        The wait blocks in wait4, which also returns the child's own peak
        memory; ``subprocess``'s own timeout polls with sleeps of up to
        50 ms, which would show up in the latency.  The run's deadline is
        enforced by a timer signal instead.
        """
        env = dict(self.env, **(extra_env or {}))
        cmd = [sys.executable] + (prefix or ["-m", "trident.cli"]) + argv
        out_path, err_path = self.out_dir / "stdout.bin", self.out_dir / "stderr.bin"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            signal.setitimer(signal.ITIMER_REAL, self.remaining())
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                elapsed = time.perf_counter() - t0
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
        return (proc.returncode, out_path.read_bytes(), err_path.read_bytes(), elapsed,
                usage.ru_maxrss)

    def library_pass(self, k: int, traced: bool) -> dict:
        result_file = self.out_dir / f"pass{k}.json"
        cmd = [sys.executable, str(HERE / "worker.py"), str(self.request_file), str(result_file)]
        if traced:
            cmd.append(str(self.out_dir / f"spans-pass{k}.tsv"))
        subprocess.run(cmd, env=self.env, cwd=ROOT, check=True, timeout=self.remaining())
        res = json.loads(result_file.read_text())
        return {"latencies": res["latencies"], "raw_latencies": res["raw_latencies"],
                "failures": res["failures"],
                "rss_mb": res["rss_kb"] / 1024, "trace": res.get("trace"),
                "zero_points": res["zero_points"], "output_bytes": 0}

    def cli_pass(self, k: int, traced: bool, cli_checker) -> dict:
        """One child per request, one at a time, with spawn ticks between them."""
        latencies, ticks, failures, output_bytes, rss_kb = [], [], {}, 0, 0
        trace_sum = dict.fromkeys(tracer.SUMMARY_KEYS, 0) if traced else None
        spans = self.out_dir / f"spans-pass{k}.tsv"
        summary = self.out_dir / "child-summary.json"
        if traced:
            spans.write_text("id\tname\tstart_s\tend_s\tparent\trequest\n")
        for i, req in enumerate(self.requests):
            prefix = None
            if traced:
                prefix = [str(HERE / "cli_shim.py"), str(spans), str(summary), str(i)]
            ticks.append(self.spawn_tick())
            code, out, err, latency, child_kb = self.run_cli(req["argv"], req.get("env"), prefix)
            latencies.append(latency)
            rss_kb = max(rss_kb, child_kb)
            output_bytes += len(out)
            reason = cli_checker.check(req["argv"], req["expect_exit"], code, out, err)
            if reason:
                failures[str(i)] = reason
            if traced:
                self._add_summary(trace_sum, summary)
        ticks.append(self.spawn_tick())
        if traced:
            code = self.run_cli(["--layer-sample"], prefix=[
                str(HERE / "cli_shim.py"), str(spans), str(summary), str(tracer.SAMPLE_REQUEST)])[0]
            if code != 0:
                raise RuntimeError(f"layer sample exited with {code}")
            self._add_summary(trace_sum, summary)
        return {"latencies": calibrate.scale(latencies, ticks, calibrate.REF_SPAWN_S), "raw_latencies": latencies,
                "failures": failures, "rss_mb": rss_kb / 1024,
                "trace": trace_sum, "zero_points": list(cli_checker.zero_stats),
                "output_bytes": output_bytes}

    @staticmethod
    def _add_summary(trace_sum: dict, summary: Path) -> None:
        for key, value in json.loads(summary.read_text()).items():
            trace_sum[key] += value
        summary.unlink()

    def serve(self, seconds: float, trace: bool, setup: list[float]) -> list[dict]:
        """Passes until the next would end after ``seconds``; traced runs alternate plain/traced.

        Set-up probes taken after each pass are appended to ``setup``.
        """
        cli_checker = checker.CliChecker(ROOT, self.seed) if self.workload == "cli" else None
        passes = []
        t0 = time.perf_counter()
        while True:
            traced = trace and len(passes) % 2 == 1
            if cli_checker is not None:
                cli_checker.zero_stats = [0, 0]
                res = self.cli_pass(len(passes), traced, cli_checker)
            else:
                res = self.library_pass(len(passes), traced)
            res["traced"] = traced
            passes.append(res)
            setup += self.setup_times(SETUP_PER_PASS)
            step = 2 if trace else 1
            if len(passes) % step:
                continue
            elapsed = time.perf_counter() - t0
            if elapsed + elapsed / len(passes) * step > seconds:
                return passes


def per_layer_metrics(passes: list[dict]) -> dict:
    """Per-layer metrics of the traced passes, as (value, unit)."""
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    out = {}
    for key in tracer.SUMMARY_KEYS[1:]:
        values = [p["trace"][key] for p in traced]
        if key.endswith("_s") or key.endswith(".s"):
            out[key] = (statistics.median(values), "s")
        else:
            out[key] = (values[0], "count")
    seen, ok = traced[0]["zero_points"]
    out["zeros.checked_ok_frac"] = (ok / seen if seen else 1.0, "ratio")
    out["cli.output_bytes"] = (traced[0]["output_bytes"], "bytes")
    out["trace.overhead_s"] = (statistics.median(sum(p["latencies"]) for p in traced)
                               - statistics.median(sum(p["latencies"]) for p in plain), "s")
    return out


def _counts_repeat(passes: list[dict]):
    """Whether every traced pass made the same work counts (None without tracing)."""
    traced = [p["trace"] for p in passes if p["traced"]]
    if not traced:
        return None
    keys = [k for k in tracer.SUMMARY_KEYS if not k.endswith("_s") and not k.endswith(".s")]
    return all(t[k] == traced[0][k] for t in traced for k in keys)


def end_to_end_metrics(passes: list[dict], setup: list[float]) -> dict:
    plain = [p for p in passes if not p["traced"]]
    attempted = sum(len(p["latencies"]) for p in plain)
    failed = sum(len(p["failures"]) for p in plain)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(sum(p["latencies"]) for p in plain), "s"),
        "req_p50_ms": (statistics.median(
            statistics.median(p["latencies"]) for p in plain) * 1e3, "ms"),
        "req_p90_ms": (statistics.median(
            _p90(p["latencies"]) for p in plain) * 1e3, "ms"),
        "peak_rss_mb": (statistics.median(p["rss_mb"] for p in plain), "MB"),
        "ok_frac": (1.0 - failed / attempted, "ratio"),
    }


def _p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def metadata(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "platform": platform.platform(), "nproc": os.cpu_count(), "git_commit": commit,
            "src_sha256": digest.hexdigest(), "seed": seed}


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 requests: list[dict] | None = None) -> dict:
    """Run one workload, write its ``result.json``, print its summary; return the result line."""
    if requests is None:
        requests = workloads.generate(workload, seed)
    out_dir = RUNS / f"{workload}-seed{seed}-trace{trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    # Bytecode as an installed package has it, so that no fresh interpreter
    # compiles the package from source (PYTHONDONTWRITEBYTECODE would
    # otherwise make every one of them do so).  Up-to-date files are skipped.
    if not compileall.compile_dir(SRC / "trident", quiet=1):
        raise RuntimeError(f"{SRC / 'trident'} does not compile")
    runner = Runner(workload, seed, requests, out_dir)

    setup = runner.setup_times(SETUP_FIRST)
    problems, live_p3_n22 = checker.self_test(ROOT, runner.run_cli)
    passes = runner.serve(seconds, bool(trace), setup)

    metrics = per_layer_metrics(passes) if trace else end_to_end_metrics(passes, setup)
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    attempted = sum(len(p["latencies"]) for p in passes)
    failures = [(int(i), reason) for p in passes for i, reason in p["failures"].items()]
    unexpected = [(i, r) for i, r in failures if not checker.known_defect(requests[i], r)]
    record = {
        "metadata": metadata(seed), "workload": workload, "seconds": seconds,
        "trace": trace, "passes": len(passes), "requests_per_pass": len(requests),
        "setup_samples_s": setup, "self_test_problems": problems,
        "live_zeros_p3_n22": live_p3_n22, "metrics": metrics,
        "failures": [{"request": i, "reason": r, "known_defect": (i, r) not in unexpected}
                     for i, r in failures],
        "pass_walls_s": [sum(p["latencies"]) for p in passes],
        "pass_raw_walls_s": [sum(p["raw_latencies"]) for p in passes],
        "pass_latencies_s": [p["latencies"] for p in passes],
        "pass_traced": [p["traced"] for p in passes],
        "counts_repeat": _counts_repeat(passes),
    }
    (out_dir / "result.json").write_text(json.dumps(record, indent=1))

    plain = sum(not p["traced"] for p in passes)
    print(f"# {workload} seed={seed}: {len(passes)} passes x {len(requests)} requests; "
          f"percentiles per pass over {len(requests)} samples "
          f"({len(requests) - int(0.9 * len(requests))} above p90), median over "
          f"{plain} untraced passes; setup over {len(setup)} launches")
    for key, m in metrics.items():
        print(f"{key:40s} {m['value']:14.6g} {m['unit']}")
    print(f"{'fail_frac':40s} {len(failures) / attempted:14.6g} ratio "
          f"({len(failures)} failed of {attempted} attempted)")
    for i, reason in failures[:10]:
        print(f"# failed request {i} {json.dumps(requests[i])}: {reason}")
    for problem in problems:
        print(f"# checker self-test: {problem}")
    print(f"# live zeros --spec p3 --n 22: {live_p3_n22 or 'passes the check'}")
    # A traced run is correct only if every traced pass made the same work counts.
    return {"correct": not problems and not unexpected and record["counts_repeat"] is not False,
            "attempted": attempted,
            "failed": len(failures), "metrics": metrics}


def _terminate(signum, frame):
    # Unwinds through the wait in progress, whose caller kills and reaps the child.
    raise SystemExit(128 + signum)


def _deadline(signum, frame):
    raise TimeoutError("run exceeded its time limit")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--requests", type=Path, help="replay a saved requests.json")
    args = parser.parse_args(argv)
    if not (SRC / "trident" / "__init__.py").is_file():
        print(f"error: the package source {SRC / 'trident'} is missing", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _terminate)
    signal.signal(signal.SIGALRM, _deadline)
    # One CPU for the run and every process it starts, so that the ticks
    # measure the CPU the timed work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    if args.requests is not None:
        saved = json.loads(args.requests.read_text())
        if saved["workload"] != args.workload:
            parser.error(f"{args.requests} holds a {saved['workload']} request list")
        line = run_workload(args.workload, saved["seed"], args.seconds, args.trace,
                            saved["requests"])
    elif args.workload != "all":
        line = run_workload(args.workload, args.seed, args.seconds, args.trace)
    else:
        # One child per workload, so each measures its own children's peak memory.
        lines = {}
        for w in workloads.WORKLOADS:
            out = subprocess.run(
                [sys.executable, __file__, "--workload", w, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                check=True, stdout=subprocess.PIPE, text=True).stdout.splitlines()
            print("\n".join(out[:-1]))
            lines[w] = json.loads(out[-1])
        line = {"correct": all(r["correct"] for r in lines.values()),
                "attempted": sum(r["attempted"] for r in lines.values()),
                "failed": sum(r["failed"] for r in lines.values()),
                "metrics": {f"{w}.{k}": m for w, r in lines.items()
                            for k, m in r["metrics"].items()}}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
