"""Library-session worker: serves one pass of a request list in a fresh interpreter.

    python3 perfbench/worker.py REQUESTS.json RESULT.json [SPANS.tsv]

Requests run one after another, each timed around its public calls only;
the output check runs after the clock stops.  A calibration tick runs
before each request and after the last, and the latencies are scaled to the
reference speed (``calibrate.py``); the raw ones are kept beside them.
Memos persist across the requests of the pass, as in a long-lived library
session.  With a span file the tracer is installed first and its spans are
written at the end.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from functools import partial
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import checker  # noqa: E402


class Session:
    """Runs requests against the package and checks each result."""

    def __init__(self, trident, seed: int):
        self.T = trident
        from trident.specialize import SpecId
        self.SpecId = SpecId
        self.refs = checker.reference_points(seed)
        self.checked: dict[tuple, tuple] = {}
        self.zero_stats = [0, 0]

    # -- serving: public calls only ------------------------------------------

    def prepare(self, req):
        """A call of the public API that serves ``req``; only the call is timed."""
        T, op = self.T, req["op"]
        n = req.get("n")
        if op in ("q_poly", "r_poly", "s_poly"):
            return partial(getattr(T, op), n)
        if op == "reads":
            return lambda: [getattr(T, item["op"])(item["n"]) for item in req["items"]]
        if op == "three_route":
            def three_route():
                routes = (T.s_poly(n), T.s_poly_product(n), T.oracle_poly(n))
                return routes, routes[0] == routes[1] == routes[2]
            return three_route
        if op == "divide":
            return lambda: T.mp_divide_exact(T.q_poly(n), T.q_poly(req["m"]))
        if op in ("prop61", "telescoping", "prop35"):
            return partial(getattr(T, "verify_" + op), n)
        spec = req["spec"]
        if op == "verify_locus":
            return partial(T.verify_locus, self.SpecId(spec), n)
        # zeros: the CLI's pipeline, explicit maps where they exist, otherwise
        # the square-free part through the general root finder
        fam = req["family"]
        if spec == "z1":
            return partial(T.zeros_explicit, "z1" + fam, n)
        if (spec, fam) in checker.EXPLICIT:
            return partial(T.zeros_explicit, spec, n)
        return lambda: T.zeros_general(T.up_square_free(T.spec_family(self.SpecId(spec), fam, n)))

    # -- checking: independent references ---------------------------------

    def _records_ok(self, seq, n, poly):
        # A memo hit returns the object already checked; holding it keeps its id unique.
        key = (id(poly), seq, n)
        if key not in self.checked:
            self.checked[key] = (poly, checker.check_records(self.refs, seq, n, poly.to_records()))
        return self.checked[key][1]

    def check(self, req, result, error):
        op = req["op"]
        if op == "zeros" and len(checker.family(req["spec"], req["family"], req["n"])) < 2:
            if isinstance(error, ValueError):
                return None
            return "constant member was not refused"
        if error is not None:
            return f"{type(error).__name__}: {str(error)[:120]}"
        if op in ("q_poly", "r_poly", "s_poly"):
            return self._records_ok(op[0], req["n"], result)
        if op == "reads":
            for item, poly in zip(req["items"], result):
                reason = self._records_ok(item["op"][0], item["n"], poly)
                if reason:
                    return reason
            return None
        if op == "three_route":
            routes, agree = result
            for poly in routes:
                reason = self._records_ok("s", req["n"], poly)
                if reason:
                    return reason
            return None if agree else "routes disagree"
        if op == "divide":
            values, _ = checker.eval_records(self.refs, result.to_records())
            for ref, value in zip(self.refs, values):
                if value * ref.q(req["m"]) % checker.MOD != ref.q(req["n"]):
                    return f"quotient * divisor != dividend at {ref.point}"
            return None
        if op in ("prop61", "telescoping", "prop35", "verify_locus"):
            if result.ok:
                return None
            detail = getattr(result, "failures", None) or [result.first_failure()]
            return f"{op} failed: {str(detail[0])[:120]}"
        if op == "zeros":
            return checker.check_zeros(req["spec"], req["family"], req["n"], result.points,
                                       result.origin_multiplicity, self.zero_stats)
        return f"unknown op {op!r}"


def main(argv):
    request_file, result_file = Path(argv[0]), Path(argv[1])
    spans_file = Path(argv[2]) if len(argv) > 2 else None
    listing = json.loads(request_file.read_text())
    tracer = None
    if spans_file is not None:
        import tracer as tracer_module
        tracer = tracer_module.Tracer()
        tracer.install()
    import trident
    session = Session(trident, listing["seed"])
    records, ticks = [], []
    calibrate.tick()  # the first call runs before the interpreter specialises the loop
    origin = time.perf_counter()
    for i, req in enumerate(listing["requests"]):
        if tracer is not None:
            tracer.request = i
        call = session.prepare(req)
        error = result = None
        ticks.append(calibrate.tick())
        t0 = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # a raising request is a failed request
            error = exc
        latency = time.perf_counter() - t0
        reason = session.check(req, result, error)
        records.append([latency, reason])
        result = None
    ticks.append(calibrate.tick())
    raw = [r[0] for r in records]
    out = {
        "latencies": calibrate.scale(raw, ticks, calibrate.REF_TICK_S),
        "raw_latencies": raw,
        "ticks": ticks,
        "failures": {str(i): r[1] for i, r in enumerate(records) if r[1]},
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "zero_points": session.zero_stats,
    }
    if tracer is not None:
        tracer.request = tracer_module.SAMPLE_REQUEST
        tracer_module.layer_sample()
        out["trace"] = tracer.summary()
        tracer.write_spans(spans_file, origin)
    result_file.write_text(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
