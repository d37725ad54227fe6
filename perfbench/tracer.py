"""Spans and counts at the library's module boundaries, recorded from outside.

`Tracer.install()` replaces public functions and methods of the cprojver
modules with thin wrappers, at the place where callers look them up: a module
attribute (in every cprojver module that imported the name) or a class
attribute.  `uninstall()` puts the originals back.  Nothing under ``src/``
changes, and a later change can move the same counters into the library under
the same names.

A span is ``[name id, parent index, start, end]``; spans are kept in memory in
entry order, so a parent always precedes its children.  A layer's self time
is its spans' durations minus the parts their child spans cover.
"""

from __future__ import annotations

import time
from collections import Counter

# (module, attribute or Class.method, span name).  A span name's prefix is the
# layer; the per-layer metrics in `layer_metrics` are built from these names.
SPANS = (
    ("catalog", "builtin", "catalog.builtin"),
    ("catalog", "expected_symmetries", "catalog.expected_symmetries"),
    ("parse", "parse_poly", "parse.parse"),
    ("parse", "parse_field", "parse.parse"),
    ("symsolve", "AnsatzSpace.__init__", "symsolve.ansatz"),
    ("symsolve", "AnsatzSpace.enlarged", "symsolve.enlarged"),
    ("symsolve", "SystemBuilder.kernel", "symsolve.assemble"),
    ("symsolve", "verify_fields", "symsolve.verify"),
    ("symsolve", "check_bracket_closure", "symsolve.closure"),
    ("tensorcalc", "lie_derivative_J", "tensorcalc.lie"),
    ("tensorcalc", "lie_derivative_connection", "tensorcalc.lie"),
    ("tensorcalc", "lie_derivative_metric", "tensorcalc.lie"),
    ("tensorcalc", "torsion", "tensorcalc.battery"),
    ("tensorcalc", "curvature", "tensorcalc.battery"),
    ("tensorcalc", "nijenhuis", "tensorcalc.battery"),
    ("tensorcalc", "torsion_projection", "tensorcalc.battery"),
    ("tensorcalc", "traceless_mixed_torsion", "tensorcalc.battery"),
    ("tensorcalc", "curvature_bidegree", "tensorcalc.battery"),
    ("linalg", "LinearSystem.add_row", "linalg.eliminate"),
    ("linalg", "LinearSystem.kernel", "linalg.backsub"),
    ("linalg", "SpanSolver.insert", "linalg.span"),
    ("linalg", "SpanSolver.contains", "linalg.span"),
    ("linalg", "SpanSolver.decompose", "linalg.span"),
    ("metric", "mobility_dimension", "metric.mobility"),
    ("metric", "levi_civita", "metric.other"),
    ("metric", "covariant_derivative_02", "metric.other"),
    ("metric", "kahler_check", "metric.other"),
    ("metric", "parallel_forms", "metric.other"),
    ("metric", "equivalent_metric_family", "metric.other"),
    ("metric", "mobility_equation_holds", "metric.other"),
    ("metric", "gram_signature_at", "metric.other"),
    ("prolong", "annihilator", "prolong.annihilator"),
    ("prolong", "tanaka_prolongation", "prolong.prolongation"),
    # spanned only so that their time is not counted as the batteries' own
    ("prolong", "theorem_table", "prolong.table"),
    ("prolong", "subalgebra_with_cochain", "prolong.cochain"),
    ("slpair", "CD.bracket", "slpair.bracket"),
    ("slpair", "Mat.bracket", "slpair.bracket"),
    ("structlie", "deform_by_cochain", "structlie.deform"),
    ("verify", "model_battery", "verify.battery"),
    ("verify", "symmetry_battery", "verify.battery"),
    ("verify", "metric_battery", "verify.battery"),
    ("verify", "table_battery", "verify.battery"),
    ("verify", "deformation_battery", "verify.battery"),
    ("verify", "algebra_battery", "verify.battery"),
)

# Factories whose returned closures are the operators applied to each column.
OPERATOR_FACTORIES = ("cproj_operator", "affine_operator", "killing_operator")

# Calls too frequent to span; counted only.
COUNTED = (("prolong", "g0_action", "prolong.g0_action_calls"),)

JOB = "bench.job"
SOLVE = "symsolve.solve"
SOLVE_ENLARGED = "symsolve.solve_enlarged"

# Per-layer metrics that never overlap: each is a self time or the outermost
# spans of functions that do not call one another, so together they can take
# no more than the job time.
STAGE_METRICS = (
    "catalog.parse_s", "symsolve.ansatz_s", "symsolve.operator_s", "symsolve.assemble_s",
    "linalg.eliminate_s", "linalg.backsub_s", "verify.self_s",
)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self._ids = {}
        self._patched = []  # (owner, attribute, original)
        self.reset()

    def reset(self):
        self.spans = []
        self.stack = [-1]
        self.counts = Counter()
        self.structure = []  # per job: {"ansatz": [...], "solves": [...], "rows": [...]}
        self._enlarged = []  # enlarged AnsatzSpace objects seen this pass

    def name_id(self, name):
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    # -- wrappers --------------------------------------------------------------

    def span(self, name, fn, after=None):
        nid = self.name_id(name)
        clock = self.clock
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            rec = [nid, stack[-1], clock(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[3] = clock()
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def job_span(self, fn):
        """Run `fn` as the root span of one job; returns its result."""
        self.structure.append({"ansatz": [], "solves": [], "rows": []})
        return self.span(JOB, fn)()

    def _active(self, name):
        nid = self._ids.get(name)
        return nid is not None and any(
            self.spans[i][0] == nid for i in self.stack[1:]
        )

    def _after_ansatz(self, args, _):
        space = args[0]
        t = space.chart.table
        cand = 1
        for name in t.names:
            lo, hi = space.bounds.get(name, (0, space.total_degree))
            cand *= hi - lo + 1
        self.counts["symsolve.ansatz_kept"] += len(space.monomials)
        self.counts["symsolve.ansatz_candidates"] += cand
        if self.structure:
            self.structure[-1]["ansatz"].append((len(space.monomials), cand))

    def _after_kernel(self, args, out):
        builder = args[0]
        kernel, system = out
        cols = builder.ncols
        self.counts["symsolve.columns"] += cols
        if self._active(SOLVE_ENLARGED):
            self.counts["symsolve.enlarged_columns"] += cols
        if self._active("metric.mobility"):
            self.counts["metric.mobility_columns"] += cols
        if self.structure:
            self.structure[-1]["solves"].append((cols, system.rank()))
            self.structure[-1]["rows"].append(system.nrows)

    def _after_add_row(self, _, independent):
        self.counts["linalg.rows"] += 1
        if independent:
            self.counts["linalg.rank"] += 1

    def _solve_wrapper(self, fn):
        plain = self.span(SOLVE, fn)
        enlarged = self.span(SOLVE_ENLARGED, fn)

        def wrapper(spec, operator, ansatz, *rest, **kw):
            if any(ansatz is e for e in self._enlarged):
                return enlarged(spec, operator, ansatz, *rest, **kw)
            return plain(spec, operator, ansatz, *rest, **kw)

        return wrapper

    def _factory_wrapper(self, fn):
        def wrapper(*args, **kwargs):
            return self.span("symsolve.operator", fn(*args, **kwargs))

        return wrapper

    def _counted(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- install / uninstall ---------------------------------------------------

    def install(self):
        """Reset the pass state and put the wrappers in place."""
        import importlib
        import sys

        self.reset()
        mods = {
            m: importlib.import_module(f"cprojver.{m}")
            for m in ("catalog", "parse", "symsolve", "tensorcalc", "linalg",
                      "metric", "prolong", "slpair", "structlie", "verify")
        }
        after = {
            "AnsatzSpace.__init__": self._after_ansatz,
            "SystemBuilder.kernel": self._after_kernel,
            "LinearSystem.add_row": self._after_add_row,
            "AnsatzSpace.enlarged": lambda _, space: self._enlarged.append(space),
        }
        plan = []  # (module, attribute path, wrapper factory)
        for mod, attr, name in SPANS:
            hook = after.get(attr)
            plan.append((mod, attr, lambda f, n=name, h=hook: self.span(n, f, h)))
        plan.append(("symsolve", "solve_field_system", self._solve_wrapper))
        for attr in OPERATOR_FACTORIES:
            plan.append(("symsolve", attr, self._factory_wrapper))
        for mod, attr, key in COUNTED:
            plan.append((mod, attr, lambda f, k=key: self._counted(k, f)))

        for mod, attr, make in plan:
            owner_mod = mods[mod]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner_mod, cls_name)
                orig = cls.__dict__[meth]
                self._patch(cls, meth, orig, make(orig))
                continue
            orig = getattr(owner_mod, attr)
            wrapped = make(orig)
            # replace every cprojver module attribute bound to the original,
            # so `from .x import f` copies are traced as well
            for name, m in list(sys.modules.items()):
                if m is None or not (name == "cprojver" or name.startswith("cprojver.")):
                    continue
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._patch(m, key, orig, wrapped)

    def _patch(self, owner, attr, orig, wrapped):
        self._patched.append((owner, attr, orig))
        setattr(owner, attr, wrapped)

    def uninstall(self):
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)
        self._enlarged.clear()

    # -- analysis --------------------------------------------------------------

    def _ids_of(self, names):
        return {self._ids[n] for n in names if n in self._ids}

    def inclusive(self, names, under=(), not_under=()):
        """Summed durations of the outermost spans named in `names`.

        With `under`, only spans with an ancestor named in `under` count; with
        `not_under`, spans with an ancestor named in `not_under` are skipped.
        """
        want = self._ids_of(names)
        inside = self._ids_of(under)
        outside = self._ids_of(not_under)
        spans = self.spans
        # per span: (ancestor in want, ancestor in under, ancestor in not_under)
        flags = [None] * len(spans)
        total = 0.0
        count = 0
        for i, (nid, parent, start, end) in enumerate(spans):
            if parent < 0:
                fw = fu = fo = False
            else:
                pw, pu, po = flags[parent]
                pid = spans[parent][0]
                fw = pw or pid in want
                fu = pu or pid in inside
                fo = po or pid in outside
            flags[i] = (fw, fu, fo)
            if nid in want and not fw and not fo and (fu or not inside):
                total += end - start
                count += 1
        return total, count

    def root_durations(self):
        """Durations of the spans with no parent (the jobs), in entry order."""
        return [end - start for _, parent, start, end in self.spans if parent < 0]

    def self_times(self):
        """Self time per span name."""
        child = [0.0] * len(self.spans)
        for nid, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = Counter()
        for i, (nid, parent, start, end) in enumerate(self.spans):
            out[self.names[nid]] += (end - start) - child[i]
        return out

    def nesting_ok(self):
        """Every span lies inside its parent; siblings do not overlap."""
        last_end = {}
        for nid, parent, start, end in self.spans:
            if end < start:
                return False
            if parent >= 0:
                p = self.spans[parent]
                if start < p[2] or end > p[3]:
                    return False
            if start < last_end.get(parent, float("-inf")):
                return False
            last_end[parent] = end
        return True

    def span_counts(self):
        c = Counter(self.names[s[0]] for s in self.spans)
        c.update(self.counts)
        return c


def layer_metrics(tr):
    """Per-layer metrics of one traced pass."""
    inc = tr.inclusive
    out = {}

    def t(name, value):
        out[name] = (value, "s")

    def n(name, value):
        out[name] = (value, "count")

    def r(name, num, den):
        out[name] = (num / den if den else 0.0, "ratio")

    c = tr.counts
    t("catalog.parse_s", inc(["catalog.builtin", "catalog.expected_symmetries"])[0])
    s, calls = inc(["parse.parse"])
    t("parse.parse_s", s)
    n("parse.calls", calls)
    t("symsolve.ansatz_s", inc(["symsolve.ansatz"])[0])
    n("symsolve.ansatz_kept", c["symsolve.ansatz_kept"])
    n("symsolve.ansatz_candidates", c["symsolve.ansatz_candidates"])
    r("symsolve.ansatz_keep_ratio", c["symsolve.ansatz_kept"], c["symsolve.ansatz_candidates"])
    s, calls = inc(["symsolve.operator"])
    t("symsolve.operator_s", s)
    n("symsolve.operator_calls", calls)
    t("tensorcalc.lie_s", inc(["tensorcalc.lie"])[0])
    t("tensorcalc.battery_s", inc(["tensorcalc.battery"])[0])
    selfs = tr.self_times()
    t("symsolve.assemble_s", selfs["symsolve.assemble"])
    n("symsolve.columns", c["symsolve.columns"])
    t("linalg.eliminate_s", inc(["linalg.eliminate"])[0])
    n("linalg.rows", c["linalg.rows"])
    n("linalg.rank", c["linalg.rank"])
    r("linalg.independent_ratio", c["linalg.rank"], c["linalg.rows"])
    t("linalg.backsub_s", inc(["linalg.backsub"])[0])
    t("linalg.span_s", inc(["linalg.span"])[0])
    t("symsolve.stabilize_s",
      inc(["symsolve.enlarged", SOLVE_ENLARGED], not_under=["metric.mobility"])[0])
    n("symsolve.enlarged_columns", c["symsolve.enlarged_columns"])
    t("symsolve.verify_s", inc(["symsolve.verify"])[0])
    t("symsolve.closure_s", inc(["symsolve.closure"])[0])
    t("metric.mobility_s", inc(["metric.mobility"])[0])
    n("metric.mobility_columns", c["metric.mobility_columns"])
    t("metric.other_s", inc(["metric.other"], not_under=["metric.mobility"])[0])
    ann = inc(["prolong.annihilator"])[0]
    ann_in_pro = inc(["prolong.annihilator"], under=["prolong.prolongation"])[0]
    t("prolong.annihilator_s", ann)
    t("prolong.prolongation_s", inc(["prolong.prolongation"])[0] - ann_in_pro)
    n("prolong.g0_action_calls", c["prolong.g0_action_calls"])
    s, calls = inc(["slpair.bracket"])
    t("slpair.bracket_s", s)
    n("slpair.bracket_calls", calls)
    t("structlie.deform_s", inc(["structlie.deform"])[0])
    t("verify.self_s", selfs["verify.battery"])
    return out


def profile_metrics(stats):
    """Shares and exact call counts of the leaf arithmetic modules.

    `stats` is a `pstats.Stats`; shares are self time over all self time.
    """
    total = 0.0
    self_by = Counter()
    calls = Counter()
    for (path, _, func), (_, ncalls, tottime, _, _) in stats.stats.items():
        total += tottime
        p = path.replace("\\", "/")
        if p.endswith("cprojver/poly.py"):
            self_by["poly"] += tottime
            calls[("poly", func)] += ncalls
        elif p.endswith("cprojver/scalars.py"):
            self_by["scalars"] += tottime
            calls[("scalars", func)] += ncalls
        elif p.endswith("/fractions.py"):
            self_by["fractions"] += tottime
    share = (lambda k: self_by[k] / total) if total else (lambda k: 0.0)
    return {
        "poly.self_share": (share("poly"), "ratio"),
        "poly.init_calls": (calls[("poly", "__init__")], "count"),
        "poly.mul_calls": (calls[("poly", "__mul__")], "count"),
        "scalars.self_share": (share("scalars"), "ratio"),
        "scalars.init_calls": (calls[("scalars", "__init__")], "count"),
        "scalars.fraction_share": (share("fractions"), "ratio"),
    }
