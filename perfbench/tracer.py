"""Span tracer for the traced benchmark run, installed from outside the package.

``Tracer.install`` replaces each listed public function (and the ring
operators of ``MultiPoly`` and ``UniPoly``) with a wrapper that records a
span: name, start, end, parent span and request id.  A function is replaced
where it is defined and in every ``trident`` module that imported it by
name, so calls between layers nest.  Spans are kept in flat arrays and
written out once, when the pass ends.

A span's self time is its duration minus that of its direct children.  A
metric's busy time sums its outermost spans only, so a call nested in a
call of the same metric (``__sub__`` adding, say) is not counted twice;
``calls`` counts those outermost spans.

Every traced pass ends with ``layer_sample``, one small call into each
traced function, recorded under request id ``SAMPLE_REQUEST``.  Without it
a layer that a workload never enters would report exactly 0 s on every
run; with it, every workload's per-layer figures carry the same few
milliseconds of sample work.
"""

from __future__ import annotations

import contextlib
import functools
import io
import sys
from array import array
from time import perf_counter

# (module, attribute, metric).  An attribute with a dot names a method.
TARGETS = (
    ("trident.polyring", "MultiPoly.__mul__", "polyring.mp_mul"),
    ("trident.polyring", "MultiPoly.__rmul__", "polyring.mp_mul"),
    ("trident.polyring", "MultiPoly.__add__", "polyring.mp_addsub"),
    ("trident.polyring", "MultiPoly.__radd__", "polyring.mp_addsub"),
    ("trident.polyring", "MultiPoly.__sub__", "polyring.mp_addsub"),
    ("trident.polyring", "MultiPoly.__rsub__", "polyring.mp_addsub"),
    ("trident.polyring", "mp_divide_exact", "polyring.mp_divide_exact"),
    ("trident.polyring", "UniPoly.__mul__", "polyring.up_mul"),
    ("trident.polyring", "UniPoly.__rmul__", "polyring.up_mul"),
    ("trident.polyring", "poly_substitute", "polyring.poly_substitute"),
    ("trident.polyring", "up_square_free", "polyring.up_square_free"),
    ("trident.sequences", "q_poly", "sequences.q_poly"),
    ("trident.sequences", "r_poly", "sequences.r_poly"),
    ("trident.sequences", "s_poly", "sequences.s_poly"),
    ("trident.sequences", "s_poly_product", "sequences.s_poly_product"),
    ("trident.oracle", "enumerate_partitions", "oracle.enumerate_partitions"),
    ("trident.oracle", "oracle_poly", "oracle.oracle_poly"),
    ("trident.chebyshev", "verify_prop35", "chebyshev.verify_prop35"),
    ("trident.identities", "verify_prop61", "identities.verify_prop61"),
    ("trident.identities", "verify_telescoping", "identities.verify_telescoping"),
    ("trident.identities", "verify_divisibility", "identities.verify_divisibility"),
    ("trident.identities", "verify_surprising", "identities.verify_surprising"),
    ("trident.specialize", "spec_family", "specialize.spec_family"),
    ("trident.specialize", "profile", "specialize.profile"),
    ("trident.specialize", "structural_check", "specialize.structural_check"),
    ("trident.zeros", "zeros_general", "zeros.zeros_general"),
    ("trident.zeros", "zeros_explicit", "zeros.zeros_explicit"),
    ("trident.zeros", "verify_locus", "zeros.verify_locus"),
    ("trident.cli", "run", "cli.run"),
)
SPAN_NAMES = tuple(dict.fromkeys(metric for _, _, metric in TARGETS))

# Request id of the spans that ``layer_sample`` records.
SAMPLE_REQUEST = -2

COUNT_NAMES = (
    "polyring.mp_mul.term_pairs", "polyring.up_mul.coeff_pairs",
    "polyring.up_square_free.degree_in", "polyring.up_square_free.degree_out",
    "sequences.terms_out", "oracle.partitions", "zeros.points",
)

# Keys of ``Tracer.summary``, in order: the span count, then per span name
# its busy time, self time and calls, then the work counts.
SUMMARY_KEYS = (("spans",) + tuple(f"{name}.{part}" for name in SPAN_NAMES
                                   for part in ("s", "self_s", "calls")) + COUNT_NAMES)


def _count_mp_mul(counts, args, result):
    a, b = args
    counts["polyring.mp_mul.term_pairs"] += len(a) * (len(b) if isinstance(b, type(a)) else 1)


def _count_up_mul(counts, args, result):
    a, b = args
    counts["polyring.up_mul.coeff_pairs"] += len(a.coeffs) * (
        len(b.coeffs) if isinstance(b, type(a)) else 1)


def _count_square_free(counts, args, result):
    counts["polyring.up_square_free.degree_in"] += args[0].degree()
    counts["polyring.up_square_free.degree_out"] += result.degree()


def _count_terms(counts, args, result):
    counts["sequences.terms_out"] += len(result)


def _count_partitions(counts, args, result):
    counts["oracle.partitions"] += len(result)


def _count_points(counts, args, result):
    counts["zeros.points"] += len(result.points)


COUNTERS = {
    "polyring.mp_mul": _count_mp_mul,
    "polyring.up_mul": _count_up_mul,
    "polyring.up_square_free": _count_square_free,
    "sequences.q_poly": _count_terms,
    "sequences.r_poly": _count_terms,
    "sequences.s_poly": _count_terms,
    "sequences.s_poly_product": _count_terms,
    "oracle.enumerate_partitions": _count_partitions,
    "zeros.zeros_general": _count_points,
    "zeros.zeros_explicit": _count_points,
}


def layer_sample() -> None:
    """One small call into every traced function, through the (wrapped) package."""
    import trident
    import trident.cli
    from trident.specialize import SpecId

    trident.mp_divide_exact(trident.q_poly(4), trident.q_poly(2))
    trident.r_poly(3)
    trident.s_poly(40)
    trident.s_poly_product(40)
    trident.oracle_poly(40)
    trident.verify_prop35(2)
    trident.verify_prop61(2)
    trident.verify_telescoping(2)
    trident.verify_divisibility(SpecId("z1"), 4)
    trident.verify_surprising(2)
    trident.zeros_general(trident.up_square_free(trident.spec_family(SpecId("p2"), "q", 4)))
    trident.zeros_explicit("z1q", 5)
    trident.verify_locus(SpecId("z1"), 4)
    trident.profile(SpecId("p4"), "r", 4)
    trident.structural_check(SpecId("p5"), 4)
    with contextlib.redirect_stdout(io.StringIO()):
        trident.cli.run(["scalar", "--n", "3"])


class Tracer:
    """Records spans around the wrapped calls; one instance per process."""

    def __init__(self):
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.req = array("i")
        self.outer = array("b")
        self.stack: list[int] = []
        self.depth = [0] * len(SPAN_NAMES)
        self.request = -1
        self.counts = dict.fromkeys(COUNT_NAMES, 0)

    def _wrap(self, metric: str, fn):
        nid = SPAN_NAMES.index(metric)
        count = COUNTERS.get(metric)
        start, end, name, parent, req, outer = (
            self.start, self.end, self.name, self.parent, self.req, self.outer)
        stack, depth, counts = self.stack, self.depth, self.counts

        def traced(*args, **kwargs):
            sid = len(start)
            start.append(0.0)
            end.append(0.0)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            req.append(self.request)
            outer.append(depth[nid] == 0)
            depth[nid] += 1
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                depth[nid] -= 1
                start[sid] = t0
                end[sid] = t1
            if count is not None and result is not NotImplemented:
                count(counts, args, result)
            return result

        return functools.update_wrapper(traced, fn)

    def install(self) -> None:
        """Wrap every target where it is defined and wherever it was imported by name."""
        import trident.cli  # noqa: F401  (loads every module that imports a target)
        modules = [m for n, m in list(sys.modules.items())
                   if n == "trident" or n.startswith("trident.")]
        wrappers = {}
        for module_name, attr, metric in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                original = owner.__dict__[attr]
                if id(original) not in wrappers:
                    wrappers[id(original)] = self._wrap(metric, original)
                setattr(owner, attr, wrappers[id(original)])
                continue
            original = getattr(owner, attr)
            wrappers[id(original)] = self._wrap(metric, original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if id(value) in wrappers:
                    setattr(module, key, wrappers[id(value)])
                # Default arguments bound a target at import time, e.g.
                # ``verify_prop61(n_max, q_provider=q_poly)``.
                fn = getattr(value, "__wrapped__", value)
                defaults = getattr(fn, "__defaults__", None)
                if defaults and any(id(d) in wrappers for d in defaults):
                    fn.__defaults__ = tuple(wrappers.get(id(d), d) for d in defaults)

    def summary(self) -> dict:
        """Busy time, self time and call count per span name, plus the counts."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        busy = [0.0] * len(SPAN_NAMES)
        own = [0.0] * len(SPAN_NAMES)
        calls = [0] * len(SPAN_NAMES)
        for i in range(n):
            k = self.name[i]
            d = self.end[i] - self.start[i]
            own[k] += d - child[i]
            if self.outer[i]:
                busy[k] += d
                calls[k] += 1
        out = {"spans": n}
        for k, metric in enumerate(SPAN_NAMES):
            out[f"{metric}.s"] = busy[k]
            out[f"{metric}.self_s"] = own[k]
            out[f"{metric}.calls"] = calls[k]
        out.update(self.counts)
        return out

    def write_spans(self, path, origin: float, append: bool = False) -> None:
        """One line per span: id, name, start and end in s from ``origin``, parent, request."""
        with open(path, "a" if append else "w") as f:
            if not append:
                f.write("id\tname\tstart_s\tend_s\tparent\trequest\n")
            for i in range(len(self.start)):
                f.write(f"{i}\t{SPAN_NAMES[self.name[i]]}\t{self.start[i] - origin:.9f}\t"
                        f"{self.end[i] - origin:.9f}\t{self.parent[i]}\t{self.req[i]}\n")
