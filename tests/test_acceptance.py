"""Acceptance gate: one test per criterion, every tolerance exact.

Each criterion prints one PASS/FAIL line per sub-check (run with -s to see
them live).  Two sub-claims of the source data are refuted by the data itself;
they are asserted literally as strict xfails next to green tests pinning the
recomputed values (details in the repository notes).
"""

import time

import pytest

from cprojver.algebras import builtin_algebra
from cprojver.catalog import builtin, expected_symmetries, model_ansatz
from cprojver.linalg import SpanSolver
from cprojver.metric import (
    KahlerFlags,
    equivalent_metric_family,
    gram_signature_at,
    kahler_check,
    levi_civita,
    metric_inverse,
    mobility_dimension,
    mobility_equation_holds,
    origin_point,
    parallel_forms,
)
from cprojver.prolong import (
    CURV_TYPES,
    annihilator,
    annihilator_closed_form,
    lowest_weight_vector,
    subalgebra_with_cochain,
    submax_closed_form,
    submax_overall,
    tanaka_prolongation,
    theorem_table,
)
from cprojver.slpair import SlPair
from cprojver.structlie import deform_by_cochain
from cprojver.symsolve import (
    AnsatzSpace,
    cproj_equations,
    cproj_system,
    field_coordinates,
    homothety_system,
    killing_system,
    phi_map,
    span_equals,
)
from cprojver import tensorcalc as tc


class Criterion:
    def __init__(self, label):
        self.label = label
        self.rows = []

    def check(self, name, expected, computed, ok=None):
        ok = (expected == computed) if ok is None else bool(ok)
        self.rows.append((name, expected, computed, ok))
        return ok

    def finish(self):
        passed = all(ok for _, _, _, ok in self.rows)
        print(f"\n[{self.label}] {'PASS' if passed else 'FAIL'}")
        for name, exp, got, ok in self.rows:
            print(f"  {'PASS' if ok else 'FAIL'}  {name}: expected {exp}, got {got}")
        assert passed, f"{self.label}: " + "; ".join(
            f"{n} (expected {e}, got {g})" for n, e, g, ok in self.rows if not ok
        )


_MODEL_CACHE = {}


def solved(name, n):
    key = (name, n)
    if key not in _MODEL_CACHE:
        spec = builtin(name, n)
        res = cproj_system(spec, model_ansatz(spec), stabilize=True)
        _MODEL_CACHE[key] = (spec, res)
    return _MODEL_CACHE[key]


def test_criterion_1_dimension_tables_two_routes():
    c = Criterion("criterion 1: bound tables, both routes, < 10 s")
    t0 = time.time()
    rows = {r.n: r for r in theorem_table(2, 6)}
    elapsed = time.time() - t0
    bounds = {
        2: (8, 8, 8),
        3: (16, 16, 18),
        4: (26, 28, 28),
        5: (40, 44, 42),
        6: (58, 64, 60),
    }
    realizable = {
        2: (6, 8, 8),
        3: (16, 16, 18),
        4: (26, 28, 28),
        5: (40, 44, 42),
        6: (58, 64, 60),
    }
    for n, (u1, u2, u3) in bounds.items():
        row = rows[n]
        computed = (row.bounds["I"], row.bounds["II"], row.bounds["III"])
        if n == 2:
            # the algebraic route gives 8 for type I; the realizable value 6
            # is carried as an advisory on the same row
            c.check("n=2 algebraic bounds (route A)", (8, 8, 8), computed)
            c.check("n=2 advisory present", True, bool(row.advisories))
        else:
            c.check(f"n={n} bounds (route A)", (u1, u2, u3), computed)
        closed = tuple(row.closed[t] for t in ("I", "II", "III"))
        c.check(f"n={n} routes agree", computed, closed)
        c.check(
            f"n={n} realizable values (route B)",
            realizable[n],
            tuple(row.submax[t] for t in ("I", "II", "III")),
        )
        c.check(f"n={n} overall submaximal", submax_overall(n), row.overall)
    c.check("runtime < 10 s", True, elapsed < 10, elapsed < 10)
    c.finish()


def test_criterion_2_prolongation_rigidity():
    c = Criterion("criterion 2: degree-one prolongation vanishes, all types, n=2..6")
    for n in range(2, 7):
        g = SlPair(n)
        for t in CURV_TYPES:
            _, psi = lowest_weight_vector(t, n)
            pr = tanaka_prolongation(psi, g)
            c.check(f"type {t}, n={n}: plus-part dimension", 0, pr.plus_dim)
    c.finish()


def test_criterion_3_annihilator_dimensions():
    c = Criterion("criterion 3: annihilator dimensions, n=2..8, < 5 s")
    t0 = time.time()
    for n in range(2, 9):
        g = SlPair(n)
        for t in CURV_TYPES:
            _, psi = lowest_weight_vector(t, n)
            res = annihilator(psi, g)
            c.check(
                f"type {t}, n={n}",
                annihilator_closed_form(t, n),
                res.dim,
            )
    elapsed = time.time() - t0
    c.check("runtime < 5 s", True, elapsed < 5, elapsed < 5)
    c.finish()


CRITERION_4_MODELS = [
    ("flat", 2, 16, 60),
    ("type1", 3, 16, 60),
    ("type1-n2", 2, 6, 60),
    ("type2", 2, 8, 60),
    ("type2", 3, 16, 60),
    ("type2", 4, 28, 600),
    ("type3", 3, 18, 60),
    ("type3", 4, 28, 600),
    ("type3-n2", 2, 8, 60),
    ("nonminimal", 2, 8, 60),
    ("nonminimal", 3, 16, 60),
    ("cp1xc", 2, 7, 60),
]


def test_criterion_4_model_symmetry_dimensions():
    c = Criterion("criterion 4: exact PDE kernels with degree stabilization")
    for name, n, expected, limit in CRITERION_4_MODELS:
        t0 = time.time()
        spec, res = solved(name, n)
        elapsed = time.time() - t0
        c.check(f"{name} n={n} dimension", expected, res.dim)
        c.check(f"{name} n={n} stabilized", True, res.stabilized)
        c.check(f"{name} n={n} fields re-verified", True, res.verified)
        if name == "flat":
            bound = 2 * n * n + 4 * n
        elif name == "cp1xc":
            bound = 2 * n * n - 2 * n + 3
        else:
            types = {"type1": "I", "type1-n2": "I", "type2": "II", "type3": "III",
                     "type3-n2": "III", "nonminimal": "IV"}
            bound = submax_closed_form(types[name], n)
        c.check(f"{name} n={n} kernel equals the bound (exactness)", bound, res.dim)
        c.check(
            f"{name} n={n} runtime < {limit}s", True, elapsed < limit, elapsed < limit
        )
    c.finish()


def test_criterion_5_printed_generators():
    c = Criterion("criterion 5: printed generators solve and span")
    for name, n in [
        ("flat", 2),
        ("type1", 3),
        ("type1-n2", 2),
        ("type2", 2),
        ("type2", 3),
        ("type2", 4),
        ("type3", 3),
        ("type3", 4),
        ("type3-n2", 2),
        ("nonminimal", 2),
        ("nonminimal", 3),
    ]:
        spec, res = solved(name, n)
        fields = expected_symmetries(spec)
        bad = [
            lbl for lbl, f in fields
            if any(not t.is_zero() for _, t in cproj_equations(spec, [f])[0])
        ]
        c.check(f"{name} n={n}: generators failing the equations", [], bad)
        c.check(
            f"{name} n={n}: printed set spans the kernel",
            True,
            span_equals(spec.chart, res.basis, [f for _, f in fields]),
        )
    c.finish()


def test_criterion_6_curvature_torsion_typing():
    c = Criterion("criterion 6: curvature and torsion typing")
    # type1: pure (2,0) curvature, integrable
    spec = builtin("type1", 3)
    R = tc.curvature(spec.gamma)
    bid = tc.curvature_bidegree(R, spec.J)
    c.check("type1: (1,1)-part vanishes", True, bid["(1,1)"].is_zero())
    c.check("type1: curvature nonzero", True, not R.is_zero())
    c.check("type1: integrable", True, tc.nijenhuis(spec.J).is_zero())
    # type2: pure (1,1)
    spec = builtin("type2", 3)
    R = tc.curvature(spec.gamma)
    bid = tc.curvature_bidegree(R, spec.J)
    c.check("type2: anti-invariant part vanishes", True, bid["(2,0)+(0,2)"].is_zero())
    c.check("type2: integrable", True, tc.nijenhuis(spec.J).is_zero())
    # type3 n=3: R = 0 and the printed Nijenhuis tensor, exactly
    spec = builtin("type3", 3)
    c.check("type3: curvature vanishes", True, tc.curvature(spec.gamma).is_zero())
    NJ = tc.nijenhuis(spec.J)
    gold, _ = spec.golden["expected_nijenhuis"]
    c.check("type3: Nijenhuis equals the printed tensor exactly", True, NJ == gold)
    # type3 n=2: R pure (1,1) and nonzero, torsion nonzero
    spec = builtin("type3-n2", 2)
    R = tc.curvature(spec.gamma)
    bid = tc.curvature_bidegree(R, spec.J)
    c.check("type3-n2: curvature nonzero", True, not R.is_zero())
    c.check("type3-n2: curvature pure (1,1)", True, bid["(2,0)+(0,2)"].is_zero())
    c.check("type3-n2: torsion nonzero", True, not tc.torsion(spec.gamma).is_zero())
    # the traceless-torsion model: R = 0, the obstruction is nonzero, the
    # four removable projections vanish
    spec = builtin("nonminimal", 2)
    T = tc.torsion(spec.gamma)
    c.check("nonminimal: curvature vanishes", True, tc.curvature(spec.gamma).is_zero())
    k4 = tc.traceless_mixed_torsion(T, spec.J)
    c.check("nonminimal: traceless mixed torsion nonzero", True, not k4.is_zero())
    pp = tc.torsion_projection(T, spec.J, 1, 1)
    mm = tc.torsion_projection(T, spec.J, -1, -1)
    sig = tc.torsion_trace_form(T, spec.J)
    c.check("nonminimal: ++ part vanishes", True, pp.is_zero())
    c.check("nonminimal: -- part vanishes", True, mm.is_zero())
    c.check("nonminimal: trace form vanishes", True, all(
        p.is_zero() for p in sig.comps.values()
    ))
    gold, _ = spec.golden["expected_torsion"]
    c.check("nonminimal: torsion equals the printed tensor exactly", True, T == gold)
    # four-projection completeness on every catalog model with a connection
    for name, n in [("flat", 2), ("type1", 3), ("type1-n2", 2), ("type2", 2),
                    ("type3", 3), ("type3-n2", 2), ("nonminimal", 2),
                    ("submax-metric", 2), ("cp1xc", 2)]:
        spec = builtin(name, n)
        T = tc.torsion(spec.gamma)
        total = None
        for e1 in (1, -1):
            for e2 in (1, -1):
                p = tc.torsion_projection(T, spec.J, e1, e2)
                total = p if total is None else total + p
        c.check(f"{name}: projections sum to the torsion", True, (total - T).is_zero())
    c.finish()


def test_criterion_7_metric_suite():
    c = Criterion("criterion 7: metric suite, < 2 min")
    t0 = time.time()
    for n in (2, 3):
        patterns = [None] if n == 2 else [(1,), (-1,)]
        for signs in patterns:
            spec = builtin("submax-metric", n, signs=signs)
            lc = levi_civita(spec.metric, spec.metric_inverse)
            c.check(
                f"Levi-Civita equals the type2 connection (n={n}, signs={signs})",
                True,
                lc == builtin("type2", n).gamma,
            )
        spec = builtin("submax-metric", n)
        flags = kahler_check(spec.metric, spec.J, spec.gamma)
        c.check(f"Kahler flags pass (n={n})", True, flags == KahlerFlags(True, True, True, True))
        mob = mobility_dimension(spec, stabilize=(n == 2))
        c.check(f"degree of mobility (n={n})", (n - 1) ** 2 + 1, mob.dim)
        c.check(f"identity solution included (n={n})", True, mob.identity_included)
        pf = parallel_forms(spec)
        c.check(f"parallel 1-forms dimension (n={n})", 2 * (n - 1), len(pf))
        dirs = {k[0] for b in pf for k in b.comps}
        expected_dirs = {0, 1} | {
            d for a in range(3, n + 1) for d in (2 * a - 2, 2 * a - 1)
        }
        c.check(
            f"parallel forms span the first and k>=3 directions (n={n})",
            sorted(expected_dirs),
            sorted(dirs),
        )
        pt = origin_point(spec.chart)
        pos, neg, zero = gram_signature_at(spec.metric, pt)
        c.check(f"signature mixed (n={n})", True, pos > 0 and neg > 0 and zero == 0)
    flat = builtin("flat", 2)
    mobf = mobility_dimension(flat, stabilize=False)
    c.check("flat degree of mobility (n=2)", 9, mobf.dim)
    # family members solve the mobility equation
    spec2 = builtin("submax-metric", 2)
    for cye in ((1, 0), (-2, 0)):
        _, _, B = equivalent_metric_family(spec2, {(1, 1): cye})
        c.check(
            f"family member c={cye} solves the mobility equation",
            True,
            mobility_equation_holds(spec2, B),
        )
    spec3 = builtin("submax-metric", 3)
    _, _, B3 = equivalent_metric_family(spec3, {(1, 3): (1, 1)})
    c.check("off-diagonal family member solves (n=3)", True,
            mobility_equation_holds(spec3, B3))
    # isometries / homotheties / the symmetry-to-mobility kernel at n=2
    kil = killing_system(spec2, AnsatzSpace(spec2.chart, total_degree=2),
                         stabilize=False)
    c.check("holomorphic isometry dimension (n=2)", 6, kil.dim)
    hom = homothety_system(spec2, AnsatzSpace(spec2.chart, total_degree=2),
                           stabilize=False)
    c.check("homothety dimension (n=2)", 7, hom.dim)
    _, res = solved("submax-metric", 2)
    ginv = metric_inverse(spec2.metric)
    span = SpanSolver()
    ident = tc.Tensor(
        spec2.chart, (1, 1),
        {(i, i): spec2.chart.const(1) for i in range(spec2.chart.dim)},
    )
    span.insert(field_coordinates(ident.comps))
    base = span.dim()
    for v in res.basis:
        span.insert(field_coordinates(phi_map(v, spec2.metric, ginv).comps))
    ker = res.dim - (span.dim() - base)
    c.check("kernel of the projected symmetry-to-mobility map", 7, ker)
    c.check("dimension chain 8 <= 7 + 2 - 1", True, res.dim <= hom.dim + 2 - 1)
    elapsed = time.time() - t0
    c.check("runtime < 120 s", True, elapsed < 120, elapsed < 120)
    c.finish()


def test_criterion_8_lie_algebra_suite():
    c = Criterion("criterion 8: structure-constant algebra suite")
    for name in ("s", "s-prime", "s-double-prime"):
        alg = builtin_algebra(name)
        c.check(f"{name}: Jacobi residual empty", True, not alg.jacobi_residual())
        ok, _ = alg.check_z2()
        c.check(f"{name}: Z2 grading", True, ok)
    fam = builtin_algebra("lambda-family")
    c.check("parameter family: Jacobi identically zero", True, not fam.jacobi_residual())
    c.check(
        "isometry-algebra derived series",
        (6, 5, 3, 0),
        builtin_algebra("s-prime").derived_series(),
    )
    # the stated series (8,5,3,0) for the 8-dim algebra is refuted by the
    # printed constants; see the companion xfail test below
    c.check(
        "8-dim algebra derived series (recomputed)",
        (8, 6, 3, 0),
        builtin_algebra("s").derived_series(),
    )
    for n in range(2, 6):
        res = deform_by_cochain(*subalgebra_with_cochain("II", n))
        c.check(f"linear-type cochain closes (n={n})", True, not res.residual)
        c.check(f"residual equals the cochain square (n={n})", True,
                res.matches_prediction)
    res = deform_by_cochain(*subalgebra_with_cochain("III", 2))
    c.check("antiholomorphic-type cochain fails at n=2", True, bool(res.residual))
    c.check("failing residual equals the cochain square", True, res.matches_prediction)
    c.finish()


@pytest.mark.xfail(
    strict=True,
    reason="stated series (8,5,3,0) is refuted by the printed structure "
    "constants and by the solver-computed symmetry algebra, both giving "
    "(8,6,3,0); see notes",
)
def test_criterion_8_derived_series_as_stated():
    assert builtin_algebra("s").derived_series() == (8, 5, 3, 0)


def test_criterion_8_derived_series_from_the_model_algebra():
    # independent route: derive the series from the solver's kernel algebra
    # of the submaximal symmetric-connection model itself
    from cprojver.symsolve import bracket_fields, field_coordinates

    spec, res = solved("type2", 2)
    dims = [res.dim]
    cur = res.basis
    while True:
        span = SpanSolver()
        nxt = []
        for i in range(len(cur)):
            for j in range(i + 1, len(cur)):
                br = bracket_fields(spec.chart, cur[i], cur[j])
                if br and span.insert(field_coordinates(br)):
                    nxt.append(br)
        dims.append(span.dim())
        if span.dim() in (0, dims[-2]):
            break
        cur = nxt
    assert tuple(dims) == (8, 6, 3, 0)
    assert builtin_algebra("s").derived_series() == tuple(dims)


@pytest.mark.xfail(
    strict=True,
    reason="the printed parallel-form labels (second direction onward) "
    "contradict the pinned Levi-Civita connection; the true parallel span "
    "is the first and the k>=3 directions",
)
def test_criterion_7_parallel_labels_as_stated():
    spec = builtin("submax-metric", 2)
    pf = parallel_forms(spec)
    dirs = {k[0] for b in pf for k in b.comps}
    assert dirs == {2, 3}


def test_out_of_scope_exclusions_documented():
    # excluded at desk scale: cohomology-from-scratch derivations, the
    # normal-connection extraction for the exceptional four-dimensional
    # model, and search-based uniqueness classifications
    spec = builtin("type3-n2", 2)
    assert spec.expect("curvature_type") == "(1,1)"
    print("\n[exclusions] harmonic (1,1)-component of the exceptional model: "
          "not verifiable (out of scope); uniqueness searches: out of scope")
