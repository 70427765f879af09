"""Spans around the public calls of each takiff module, installed from
outside the package.

``from .x import f`` copies the name, so a function is replaced at
every binding site: each attribute of each loaded ``takiff`` module that
is the original object.  Methods are replaced on their class.  Spans
(name, start, end, parent, report id) go into flat arrays while the run
lasts and are written out when it ends; self time is a span's duration
minus the durations of its direct children.
"""

import sys
import time
from array import array
from collections import Counter

# (span name, defining module, attribute or "Class.method", post hook name)
TARGETS = (
    ("cli.run_suite", "takiff.cli", "run_suite", None),
    ("report.to_dict", "takiff.report", "Report.to_dict", None),
    ("linalg.reduce", "takiff.linalg", "Echelon.reduce", None),
    ("linalg.insert", "takiff.linalg", "Echelon.insert", "insert"),
    ("linalg.nullspace", "takiff.linalg", "nullspace", None),
    ("tensor.act", "takiff.tensor", "TensorModule.act", None),
    ("tensor.act_uea", "takiff.tensor", "TensorModule.act_uea", None),
    ("tensor.closure", "takiff.tensor", "closure_search", "closure"),
    ("tensor.whittaker", "takiff.tensor", "whittaker_vector_search", "whittaker"),
    ("tensor.pump", "takiff.tensor", "vandermonde_reduce", None),
    ("families.act", "takiff.families", "family_act", None),
    ("families.to_operator", "takiff.families", "family_to_operator", None),
    ("families.axioms", "takiff.families", "check_family_axioms", None),
    ("poly.shift_h", "takiff.poly", "BiPoly.shift_h", None),
    ("poly.mul", "takiff.poly", "BiPoly.__mul__", None),
    ("poly.mul", "takiff.poly", "BiPoly.__rmul__", None),
    ("poly.add", "takiff.poly", "BiPoly.__add__", None),
    ("poly.dbar", "takiff.poly", "BiPoly.dbar", None),
    ("verma.act_basis", "takiff.verma", "HwModule.act_basis", None),
    ("verma.singular", "takiff.verma", "singular_vectors", None),
    ("verma.build", "takiff.verma", "build_hw_module", None),
    ("verma.build", "takiff.verma", "build_verma_module", None),
    ("algebra.uea_mul", "takiff.algebra", "UeaElement.__mul__", None),
    ("skew.compose", "takiff.skew", "SkewOperator.compose", None),
    ("skew.apply", "takiff.skew", "SkewOperator.apply", None),
    ("induced.check_phi", "takiff.induced", "check_phi", None),
    ("induced.ind_act", "takiff.induced", "ind_act", None),
    ("induced.borel", "takiff.induced", "check_borel_axioms", None),
    ("induced.borel", "takiff.induced", "borel_reducibility_check", None),
    ("induced.borel", "takiff.induced", "borel_act", None),
)

ROOT = "bench.report"


class Tracer:
    """Span store plus the wrappers that fill it."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("H")
        self.parent = array("l")
        self.report = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.current_report = -1
        self.counters = Counter()
        self.missing = []   # targets the program no longer has
        self._sites = []    # (owner, attribute, original, wrapper)

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name, post=None):
        nid = self._id(name)
        name_a, parent_a, report_a = self.name, self.parent, self.report
        start_a, end_a, stack = self.start, self.end, self.stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            i = len(start_a)
            name_a.append(nid)
            parent_a.append(stack[-1] if stack else -1)
            report_a.append(tracer.current_report)
            end_a.append(0.0)
            stack.append(i)
            start_a.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end_a[i] = clock()
                stack.pop()
            if post is not None:
                post(args, result, end_a[i] - start_a[i])
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def root(self, report_id, fn, *args):
        """Run fn(*args) as the root span of one report."""
        self.current_report = report_id
        return self.wrap(fn, ROOT)(*args)

    def root_durations(self):
        """{report id: duration of its root span}."""
        rid = self._ids.get(ROOT)
        return {r: e - s for n, r, s, e in
                zip(self.name, self.report, self.start, self.end) if n == rid}

    # -- installation ----------------------------------------------------

    def install(self):
        """Find every binding site and build the wrappers; tracing is
        then on until disable()."""
        import importlib

        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "takiff" or n.startswith("takiff.")]
        wrappers = {}
        for name, modname, attr, post in TARGETS:
            owner = importlib.import_module(modname)
            *cls_name, key = attr.split(".")
            try:
                if cls_name:
                    owner = getattr(owner, cls_name[0])
                    original = owner.__dict__[key]
                else:
                    original = getattr(owner, key)
            except (AttributeError, KeyError):
                self.missing.append(f"{modname}.{attr}")
                continue
            if id(original) not in wrappers:
                wrappers[id(original)] = self.wrap(original, name, self._post(post))
            sites = [(owner, key)] if cls_name else [
                (mod, k) for mod in modules
                for k, value in vars(mod).items() if value is original]
            self._sites += [(site, k, original, wrappers[id(original)])
                            for site, k in sites]
        self.enable()

    def enable(self):
        for site, key, _, wrapper in self._sites:
            setattr(site, key, wrapper)

    def disable(self):
        """Restore every binding site to the program's own object."""
        for site, key, original, _ in self._sites:
            setattr(site, key, original)

    def _post(self, kind):
        counters = self.counters
        if kind == "insert":
            def post(args, result, _dur):
                ridx = result[0]
                if ridx is not None:
                    counters["linalg.rows_stored"] += 1
                    counters["linalg.row_nnz_total"] += len(args[0].rows[ridx])
            return post
        if kind == "closure":
            def post(_args, result, dur):
                found, span = result[0], result[1]
                counters["tensor.closure_hits"] += bool(found)
                counters["tensor.closure_hit_s" if found else
                         "tensor.closure_miss_s"] += dur
                counters["tensor.closure_span_rows_total"] += len(span)
            return post
        if kind == "whittaker":
            def post(_args, result, _dur):
                counters["tensor.whittaker_solutions"] += len(result)
            return post
        return None

    # -- analysis ----------------------------------------------------------

    def self_times(self):
        """Per span: duration minus the durations of its direct children."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def totals(self):
        """{span name: (calls, self seconds)} over every recorded span."""
        calls = Counter()
        own = Counter()
        for nid, t in zip(self.name, self.self_times()):
            calls[nid] += 1
            own[nid] += t
        return {self.names[n]: (calls[n], own[n]) for n in calls}

    def write(self, path):
        """Binary dump: a header line naming the spans, then the five
        arrays (name u16, parent i64, report i64, start f64, end f64)."""
        with open(path, "wb") as fh:
            fh.write((" ".join(self.names) + f"\n{len(self.start)}\n").encode())
            for arr in (self.name, self.parent, self.report, self.start, self.end):
                arr.tofile(fh)


def layer_metrics(tracer, reports, cache_delta):
    """Per-layer metrics: counts and self times per report, ratios over
    the calls they describe.  cache_delta is (hits, misses) of the
    straightening cache over the traced reports."""
    totals = tracer.totals()
    c = tracer.counters
    per = 1.0 / reports

    def calls(span):
        return totals.get(span, (0, 0.0))[0]

    def self_s(span):
        return totals.get(span, (0, 0.0))[1] * per

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for span in ("linalg.reduce", "linalg.insert", "linalg.nullspace",
                 "tensor.act", "tensor.closure", "tensor.whittaker",
                 "tensor.pump", "families.act", "poly.shift_h", "poly.mul",
                 "poly.add", "verma.act_basis", "verma.singular",
                 "algebra.uea_mul", "skew.compose", "skew.apply",
                 "induced.ind_act"):
        out[f"{span}_calls"] = calls(span) * per
        out[f"{span}_self_s"] = self_s(span)
    for span in ("tensor.act_uea", "families.to_operator", "poly.dbar"):
        out[f"{span}_calls"] = calls(span) * per
    for span in ("families.axioms", "verma.build", "induced.check_phi",
                 "induced.borel", "cli.run_suite", "report.to_dict", ROOT):
        out[f"{span}_self_s"] = self_s(span)
    out["linalg.insert_useful_ratio"] = ratio(c["linalg.rows_stored"],
                                              calls("linalg.insert"))
    out["linalg.row_nnz_mean"] = ratio(c["linalg.row_nnz_total"],
                                       c["linalg.rows_stored"])
    out["tensor.closure_hit_ratio"] = ratio(c["tensor.closure_hits"],
                                            calls("tensor.closure"))
    out["tensor.closure_hit_s"] = c["tensor.closure_hit_s"] * per
    out["tensor.closure_miss_s"] = c["tensor.closure_miss_s"] * per
    out["tensor.closure_span_rows"] = ratio(
        c["tensor.closure_span_rows_total"], calls("tensor.closure"))
    out["tensor.whittaker_solutions"] = c["tensor.whittaker_solutions"] * per
    out["algebra.straighten_hits"] = cache_delta[0] * per
    out["algebra.straighten_misses"] = cache_delta[1] * per
    return out
