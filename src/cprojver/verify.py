"""Check batteries: the full verification runs behind the CLI and the
acceptance suite.  Each battery returns a list of report.Check records."""

from __future__ import annotations

from fractions import Fraction
from functools import partial

from .algebras import builtin_algebra
from .catalog import builtin, expected_symmetries, model_ansatz
from .metric import (
    covariant_derivative_02,
    equivalent_metric_family,
    gram_signature_at,
    kahler_check,
    mobility_dimension,
    mobility_equation_holds,
    origin_point,
    parallel_complex_indices,
    parallel_forms,
    parallel_forms_hold,
)
from .linalg import SpanSolver
from .prolong import (
    CURV_TYPES,
    DIAGONAL_CONDITIONS,
    annihilator_closed_form,
    bound_closed_form,
    diagonal_condition_holds,
    flat_dimension,
    subalgebra_with_cochain,
    submax_closed_form,
    submax_overall,
    theorem_table,
    upper_bound,
)
from .report import Check
from .symsolve import (
    AnsatzSpace,
    cproj_equations,
    cproj_operator,
    cproj_system,
    affine_system,
    field_coordinates,
    homothety_system,
    killing_system,
    phi_map,
    solve_field_system,
    span_equals,
    verify_fields,
)
from .structlie import deform_by_cochain
from . import tensorcalc as tc

MODEL_TYPE = {
    "type1": "I",
    "type1-n2": "I",
    "type2": "II",
    "type3": "III",
    "type3-n2": "III",
    "nonminimal": "IV",
    "submax-metric": "II",
}


def _prov(spec, key):
    if key in spec.expected:
        return spec.expected[key][1]
    return "definition"


def _matches(spec, key, check, anchor, computed):
    """A check of `computed` against the manifest's expected value `key`."""
    return Check(check, anchor, spec.expect(key), computed, provenance=_prov(spec, key))


def _holds(check, anchor, value, provenance="definition"):
    """A check that expects the bool `value` to be True."""
    return Check(check, anchor, True, value, provenance=provenance)


def _reverified(what, res):
    return _holds(f"{what} re-verified exactly", "post-hoc-verification", res.verified)


def model_battery(spec):
    """Tensor battery for one model."""
    checks = []
    J, G = spec.J, spec.gamma
    checks.append(
        _holds("J.J = -Id", "almost-complex-structure", tc.is_almost_complex(J))
    )
    nj_zero = tc.covariant_derivative_J(G, J).is_zero()
    checks.append(_holds("nabla J = 0", "complex-connection", nj_zero))
    T = tc.torsion(G)
    R = tc.curvature(G)
    N = tc.nijenhuis(J)
    for key, got in (
        ("torsion_zero", T.is_zero()),
        ("curvature_zero", R.is_zero()),
        ("nijenhuis_zero", N.is_zero()),
    ):
        if spec.expect(key) is not None:
            checks.append(_matches(spec, key, key, "model-tensor-flags", got))
    # four-projection completeness and (anti)linearity typing
    parts = {
        (e1, e2): tc.torsion_projection(T, J, e1, e2)
        for e1 in (1, -1)
        for e2 in (1, -1)
    }
    total = parts[(1, 1)] + parts[(1, -1)] + parts[(-1, 1)] + parts[(-1, -1)]
    checks.append(
        _holds(
            "torsion projections sum to torsion",
            "torsion-type-decomposition",
            (total - T).is_zero(),
        )
    )
    minimal = (T - parts[(-1, -1)]).is_zero()
    if spec.expect("minimal") is not None:
        checks.append(
            _matches(
                spec,
                "minimal",
                "minimal (torsion equals its totally antilinear part)",
                "minimal-connection",
                minimal,
            )
        )
    if not N.is_zero() and minimal:
        quarter_nj = (T - N.scale(Fraction(1, 4))).is_zero()
        checks.append(_holds("torsion = Nijenhuis/4", "minimal-connection", quarter_nj))
    k4 = tc.traceless_mixed_torsion(T, J)
    if spec.expect("kappa4_zero") is not None:
        checks.append(
            _matches(
                spec,
                "kappa4_zero",
                "traceless mixed torsion vanishes",
                "minimality-obstruction",
                k4.is_zero(),
            )
        )
    if spec.name == "nonminimal":
        for (e1, e2), label in (((1, 1), "++"), ((-1, -1), "--")):
            z = parts[(e1, e2)].is_zero()
            checks.append(
                _holds(
                    f"torsion {label}-part vanishes",
                    "torsion-type-decomposition",
                    z,
                    "published",
                )
            )
        mixed = not parts[(-1, 1)].is_zero() and not parts[(1, -1)].is_zero()
        checks.append(
            _holds(
                "mixed torsion parts nonzero",
                "torsion-type-decomposition",
                mixed,
                "published",
            )
        )
    ctype = spec.expect("curvature_type")
    if ctype is not None:
        bid = tc.curvature_bidegree(R, J)
        if ctype == "(1,1)":
            ok = bid["(2,0)+(0,2)"].is_zero() and not bid["(1,1)"].is_zero()
        else:
            ok = bid["(1,1)"].is_zero() and not bid["(2,0)+(0,2)"].is_zero()
        checks.append(
            _matches(spec, "curvature_type", "curvature bidegree type", "curvature-bidegree",
                     ctype if ok else "other")
        )
    for kind, computed in (
        ("expected_curvature", R),
        ("expected_torsion", T),
        ("expected_nijenhuis", N),
    ):
        if kind not in spec.golden:
            continue
        gold, scalar_ok = spec.golden[kind]
        if scalar_ok:
            ratio = computed.proportional_to(gold)
            ok = bool(ratio)
            got = f"ratio {ratio}" if ratio is not None else "no constant ratio"
        else:
            ok = computed == gold
            got = "equal" if ok else "different"
        checks.append(
            Check(
                f"{kind.replace('expected_', '')} matches printed value",
                "printed-tensor",
                "match",
                got,
                ok,
                "published",
            )
        )
    if spec.name == "type3-n2":
        scope = "not verifiable (out of scope)"
        checks.append(
            Check(
                "harmonic (1,1)-curvature component",
                "harmonic-curvature-type",
                scope,
                scope,
                note="normal-connection extraction is outside this artifact",
            )
        )
    return checks


def symmetry_battery(spec, stabilize=True):
    """c-projective (and affine) symmetry battery."""
    name, n = spec.name, spec.n
    checks = []
    ansatz = model_ansatz(spec)
    res = cproj_system(spec, ansatz, stabilize=stabilize)
    checks.append(
        _matches(
            spec,
            "symmetry_dim",
            "c-projective symmetry dimension",
            "symmetry-kernel",
            res.dim,
        )
    )
    if stabilize:
        checks.append(
            _holds(
                "kernel dimension stabilized",
                "degree-stabilization",
                res.stabilized,
            )
        )
    checks.append(_reverified("kernel fields", res))
    checks.append(
        _holds(
            "kernel closed under bracket",
            "bracket-closure",
            res.closed_under_bracket,
        )
    )
    if name == "flat":
        bound, anchor = flat_dimension(n), "flat-dimension"
    elif name == "cp1xc":
        bound, anchor = 2 * n * n - 2 * n + 3, "kahler-bound"
    elif name in MODEL_TYPE:
        bound, anchor = submax_closed_form(MODEL_TYPE[name], n), "algebraic-bound"
    else:
        bound = None
    if bound is not None:
        checks.append(
            Check("kernel equals the published bound (exactness certificate)", anchor,
                  bound, res.dim, provenance="published")
        )
    try:
        fields = expected_symmetries(spec)
    except KeyError:
        fields = None
    if fields is not None:
        equations = partial(cproj_equations, spec)
        bad = []
        if not verify_fields(equations, [f for _, f in fields]):
            bad = [lbl for lbl, f in fields if not verify_fields(equations, [f])]
        checks.append(
            Check("every printed generator satisfies the equations", "printed-generators",
                  0, len(bad), provenance="published")
        )
        spans = span_equals(spec.chart, res.basis, [f for _, f in fields])
        checks.append(
            _holds(
                "printed generators span the kernel",
                "printed-generators",
                spans,
                "published",
            )
        )
    if spec.expect("affine_dim") is not None:
        aff = affine_system(spec, ansatz)
        checks.append(
            _matches(
                spec,
                "affine_dim",
                "affine symmetry dimension",
                "affine-symmetries",
                aff.dim,
            )
        )
        checks.append(_reverified("affine fields", aff))
    return checks


def metric_battery(name, n, signs=None, stabilize=True):
    """Pseudo-Kahler battery for a catalog metric model."""
    spec = builtin(name, n, signs=signs)
    if spec.metric is None:
        raise ValueError(f"model {name!r} declares no [metric] section")
    return metric_checks(spec, stabilize)


def metric_checks(spec, stabilize=True):
    """Pseudo-Kahler battery: metric, mobility, parallel forms and, for
    submax-metric at n=2, isometries and homotheties."""
    name, n = spec.name, spec.n
    checks = []
    g, J = spec.metric, spec.J
    lc = spec.gamma  # the Levi-Civita connection of g
    if name == "submax-metric":
        conn = builtin("type2", n)
        same = lc == conn.gamma
        checks.append(
            _holds(
                "Levi-Civita equals the type2 connection",
                "metrizability",
                same,
                "published",
            )
        )
    tf = tc.torsion(lc).is_zero()
    checks.append(_holds("Levi-Civita is torsion-free", "levi-civita", tf))
    par = covariant_derivative_02(lc, g).is_zero()
    checks.append(_holds("metric is parallel", "levi-civita", par))
    flags = kahler_check(g, J, lc)
    checks.append(
        Check(
            "Kahler flags (hermitian, closed, parallel J, integrable)",
            "kahler-check",
            (True, True, True, True),
            (flags.hermitian, flags.closed, flags.parallel_J, flags.integrable),
            provenance="published",
        )
    )
    mob = None
    if spec.expect("mobility") is not None:
        mob = mobility_dimension(spec, stabilize=stabilize)
        checks.append(
            _matches(spec, "mobility", "degree of mobility", "mobility-kernel", mob.dim)
        )
        checks.append(
            _holds(
                "identity solution included",
                "mobility-kernel",
                mob.identity_included,
            )
        )
        if stabilize:
            checks.append(
                _holds(
                    "mobility kernel stabilized",
                    "degree-stabilization",
                    mob.stabilized,
                )
            )
        checks.append(
            Check(
                "unconstrained symmetric kernel (reported)",
                "mobility-kernel",
                mob.dim_unconstrained,
                mob.dim_unconstrained,
                provenance="recomputed",
                note="J-invariance side condition dropped",
            )
        )
        checks.append(_reverified("mobility solutions", mob))
    if spec.expect("parallel_forms_dim") is not None:
        pf = parallel_forms(spec)
        checks.append(
            _matches(
                spec,
                "parallel_forms_dim",
                "parallel 1-form space dimension",
                "parallel-forms",
                len(pf),
            )
        )
        checks.append(
            _holds(
                "parallel forms re-verified exactly",
                "post-hoc-verification",
                parallel_forms_hold(spec, pf),
            )
        )
        if name == "submax-metric":
            # the submax directions: another model's parallel forms span others
            expected_dirs = sorted({d for a in parallel_complex_indices(n)
                                    for d in (2 * (a - 1), 2 * (a - 1) + 1)})
            got_dirs = sorted({k[0] for b in pf for k in b.comps})
            checks.append(
                Check(
                    "parallel forms span the first and the k>=3 complex directions",
                    "parallel-forms",
                    expected_dirs,
                    got_dirs,
                    provenance="recomputed",
                    note="printed list is index-swapped; see corrected family",
                )
            )
            checks.extend(_family_checks(spec, n))
    if name == "cp1xc":
        # the Kahler gap value is certified on a Riemannian metric
        sig = gram_signature_at(g, origin_point(spec.chart))
        checks.append(
            Check("metric is positive definite", "signature", f"({2 * n},0)",
                  f"({sig[0]},{sig[1]})", provenance="recomputed")
        )
    if name == "submax-metric":
        sig = gram_signature_at(g, origin_point(spec.chart))
        non_riem = sig[0] > 0 and sig[1] > 0 and sig[2] == 0
        checks.append(
            Check(
                "signature excludes the Riemannian case",
                "signature",
                "mixed signature",
                f"({sig[0]},{sig[1]})",
                non_riem,
                "published",
            )
        )
        if n == 2:
            # stabilized even under --fast, since the `catalog` bench workload's
            # structure lists both enlarged solves; no check reads the flag, and
            # each re-solve costs assembly and elimination only (no basis)
            iso = killing_system(spec, AnsatzSpace(spec.chart, total_degree=2), stabilize=True)
            checks.append(
                Check("holomorphic isometry dimension", "isometries", 6, iso.dim,
                      provenance="published")
            )
            checks.append(_reverified("isometry fields", iso))
            hom = homothety_system(spec, AnsatzSpace(spec.chart, total_degree=2), stabilize=True)
            checks.append(
                Check("homothety dimension", "homotheties", 7, hom.dim, provenance="recomputed")
            )
            checks.append(_reverified("homothety fields", hom))
            basis, _ = solve_field_system(spec, cproj_operator(spec), model_ansatz(spec))
            ginv = spec.metric_inverse
            span = SpanSolver()
            ident = {(i, i): spec.chart.const(1) for i in range(spec.chart.dim)}
            span.insert(field_coordinates(ident))
            base = span.dim()
            for v in basis:
                span.insert(field_coordinates(phi_map(v, g, ginv).comps))
            ker = len(basis) - (span.dim() - base)
            checks.append(
                Check("kernel of the mobility projection of the symmetry map",
                      "symmetry-to-mobility", 7, ker, provenance="recomputed")
            )
            if mob is not None:  # a manifest may expect no mobility
                chain_ok = len(basis) <= hom.dim + mob.dim - 1
                checks.append(
                    _holds("dimension chain cp <= homothety + mobility - 1",
                           "symmetry-to-mobility", chain_ok, "published")
                )
    return checks


def _family_checks(spec, n):
    checks = []
    par = parallel_complex_indices(n)
    params = [(k, k) for k in par] + [
        (par[i], par[j]) for i in range(len(par)) for j in range(i + 1, len(par))
    ]
    count = len(par) ** 2 + 1  # hermitian parameters + the scaling of g
    if spec.expect("mobility") is not None:  # a manifest may expect no mobility
        checks.append(
            Check("family parameter count equals the degree of mobility", "equivalent-metrics",
                  spec.expect("mobility"), count, provenance="published")
        )
    val = 2
    for (k, l) in params:
        trial = {(k, l): (val, 0) if k == l else (val, 1)}
        _, _, B = equivalent_metric_family(spec, trial)
        ok = mobility_equation_holds(spec, B)
        checks.append(
            _holds(
                f"family member c[{k},{l}] solves the mobility equation",
                "equivalent-metrics",
                ok,
                "recomputed",
            )
        )
        val += 1
    return checks


def table_battery(n_min=2, n_max=6):
    checks = []
    rows = theorem_table(n_min, n_max)
    for row in rows:
        checks.append(
            Check(
                f"n={row.n}: computed bounds equal closed forms",
                "bound-table",
                {t: row.closed[t] for t in CURV_TYPES},
                {t: row.bounds[t] for t in CURV_TYPES},
                provenance="published",
            )
        )
        checks.append(
            Check(f"n={row.n}: overall submaximal dimension", "bound-table",
                  submax_overall(row.n), row.overall, provenance="published")
        )
        checks.append(
            _holds(
                f"n={row.n}: prolongation rigidity",
                "prolongation-rigidity",
                row.rigid,
                "published",
            )
        )
        for note in row.advisories:
            checks.append(
                Check(f"n={row.n}: advisory", "bound-table", note, note,
                      provenance="published", note=note)
            )
    return rows, checks


def prolong_battery(ctype, n):
    checks = []
    total, pr = upper_bound(ctype, n)
    checks.append(
        Check(f"type {ctype}, n={n}: annihilator dimension", "annihilator",
              annihilator_closed_form(ctype, n), pr.ann_dim, provenance="published")
    )
    if n >= 3:
        holds = diagonal_condition_holds(ctype, n, pr.ann)
        checks.append(
            _holds(f"type {ctype}, n={n}: diagonal condition "
                f"[{DIAGONAL_CONDITIONS[ctype]}]", "annihilator", holds, "published")
        )
    checks.append(
        Check(f"type {ctype}, n={n}: degree-one prolongation vanishes", "prolongation-rigidity",
              0, pr.plus_dim, provenance="published")
    )
    checks.append(
        Check(f"type {ctype}, n={n}: algebraic bound", "algebraic-bound",
              bound_closed_form(ctype, n), total, provenance="published")
    )
    return checks


def jacobi_check(name, alg, provenance):
    """The record of `alg`'s Jacobi identity, named after `name`."""
    res = alg.jacobi_residual()
    got = f"{len(res)} nonzero triples" if res else "empty residual"
    return Check(f"{name}: Jacobi identity", "jacobi", "empty residual", got,
                 provenance=provenance)


def algebra_battery(name, lam=None):
    alg = builtin_algebra(name)
    if lam is not None and not alg.has_params():
        raise ValueError(f"algebra {name!r} has no parameters; lam={lam} does not apply")
    checks = [jacobi_check(name, alg, "published")]
    if alg.has_params() and lam is not None and lam != "symbolic":
        alg = alg.specialize({alg.params.names[0]: Fraction(lam)})
    if not alg.has_params():
        dims = alg.derived_series()
        checks.append(
            Check(f"{name}: derived series", "derived-series", dims, dims, provenance="recomputed")
        )
        if alg.z2:
            ok, _ = alg.check_z2()
            checks.append(_holds(f"{name}: Z2 grading", "grading", ok, "published"))
        if alg.grading:
            okg, wit = alg.check_grading()
            okf, _ = alg.check_filtration()
            checks.append(
                Check(
                    f"{name}: integer grading / filtration",
                    "grading",
                    "see note",
                    f"grading {okg}, filtration {okf}",
                    okf,
                    "published",
                    note=f"violating triple {wit}" if wit else "",
                )
            )
    return checks


def deformation_battery(ctype, n):
    res = deform_by_cochain(*subalgebra_with_cochain(ctype, n))
    should_close = not (ctype == "III" and n == 2)
    checks = [
        Check(
            f"type {ctype}, n={n}: deformed bracket satisfies Jacobi",
            "cochain-deformation",
            should_close,
            not res.residual,
            provenance="published",
        ),
        _holds(
            f"type {ctype}, n={n}: residual equals the cyclic cochain square",
            "cochain-deformation",
            res.matches_prediction,
            "published",
        ),
    ]
    return checks
