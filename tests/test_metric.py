"""Pseudo-Kahler machinery: Levi-Civita, Kahler flags, mobility, families."""

import dataclasses
from fractions import Fraction

import pytest

from cprojver import metric, verify
from cprojver.catalog import builtin
from cprojver.linalg import LinearSystem, SpanSolver
from cprojver.metric import (
    _hermitian_defect,
    _mobility_closures,
    _mobility_operator,
    covariant_derivative_02,
    equivalent_metric_family,
    KahlerFlags,
    gram_signature_at,
    kahler_check,
    levi_civita,
    metric_inverse,
    mobility_dimension,
    mobility_equation_holds,
    origin_point,
    parallel_complex_indices,
    parallel_forms,
    parallel_forms_hold,
)
from cprojver.poly import LaurentPoly, pack
from cprojver.symsolve import AnsatzSpace, field_coordinates
from cprojver.verify import metric_battery
from cprojver import tensorcalc as tc
from cprojver.tensorcalc import Tensor
from conftest import emitted_half, without_direction


def _sym_tensor_basis(chart, exps, a, b):
    p = LaurentPoly(chart.table, {pack(exps): 1})
    comps = {(a, b): p}
    if a != b:
        comps[(b, a)] = p
    return Tensor(chart, (0, 2), comps)


def nabla_one_form(gamma, alpha):
    """The nonzero (b, a) entries of d_b alpha_a - Gamma^c_ba alpha_c."""
    chart = alpha.chart
    out = {}
    for a in range(chart.dim):
        for b in range(chart.dim):
            tot = alpha.get(a).derivative(chart.table.names[b])
            for c in range(chart.dim):
                G = gamma.comps.get((c, b, a))
                if G is not None:
                    tot = tot - G * alpha.get(c)
            if not tot.is_zero():
                out[(b, a)] = tot
    return out


def real_rank(rows):
    """Rank of a dense rational matrix."""
    sys = LinearSystem()
    for r in rows:
        row = {j: c for j, c in enumerate(r) if c}
        if row:
            sys.add_row(row)
    return sys.rank()


@pytest.fixture(scope="module")
def submax2():
    return builtin("submax-metric", 2)


@pytest.fixture(scope="module")
def submax3():
    return builtin("submax-metric", 3)


class TestLeviCivita:
    def test_flat(self):
        spec = builtin("flat", 2)
        assert levi_civita(spec.metric, spec.metric_inverse).is_zero()

    @pytest.mark.parametrize("n,signs", [(2, None), (3, None), (3, (-1,))])
    def test_submax_equals_type2_connection(self, n, signs):
        spec = builtin("submax-metric", n, signs=signs)
        lc = levi_civita(spec.metric, spec.metric_inverse)
        assert lc == builtin("type2", n).gamma

    def test_characterization_oracle(self, submax2):
        # torsion-free и metric-parallel characterize the connection uniquely
        lc = levi_civita(submax2.metric, submax2.metric_inverse)
        assert tc.torsion(lc).is_zero()
        assert covariant_derivative_02(lc, submax2.metric).is_zero()

    def test_fubini_study_denominators(self):
        spec = builtin("cp1xc", 2)
        lc = levi_civita(spec.metric, spec.metric_inverse)
        assert any(any(p.den) for p in lc.comps.values())
        assert tc.torsion(lc).is_zero()
        assert covariant_derivative_02(lc, spec.metric).is_zero()

    def test_inverse_failure_advice(self):
        # a degenerate symmetric tensor cannot be inverted over the ring
        spec = builtin("flat", 2)
        bad = Tensor(spec.chart, (0, 2), {(0, 0): spec.chart.var("x1")})
        with pytest.raises(Exception) as ei:
            metric_inverse(bad)
        assert "denominator" in str(ei.value)

    @pytest.mark.parametrize("n", [2, 3])
    def test_computed_once_per_battery(self, monkeypatch, n):
        # once for the model's metric, once for each family member's g-hat
        # (one member at n=2, three at n=3)
        calls = []
        original = metric.levi_civita

        def counted(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(metric, "levi_civita", counted)
        metric_battery("submax-metric", n, stabilize=False)
        assert len(calls) == {2: 2, 3: 4}[n]


class TestKahlerFlags:
    def test_submax(self, submax2):
        flags = kahler_check(submax2.metric, submax2.J, submax2.gamma)
        assert flags == KahlerFlags(True, True, True, True)

    def test_flat(self):
        spec = builtin("flat", 2)
        assert kahler_check(spec.metric, spec.J, spec.gamma) == KahlerFlags(True, True, True, True)

    def test_perturbed_metric_fails_hermitian(self, submax2):
        comps = dict(submax2.metric.comps)
        # drop the conjugate pairing of the |z1|^2 block
        comps[(1, 1)] = submax2.chart.const(1)
        bad = Tensor(submax2.chart, (0, 2), comps)
        flags = kahler_check(bad, submax2.J, levi_civita(submax2.metric, submax2.metric_inverse))
        assert not flags.hermitian

    @pytest.mark.parametrize("term", ["d_a w_bc", "d_b w_ca", "d_c w_ab"])
    def test_hermitian_metric_that_is_not_closed(self, term):
        # a Hermitian polynomial metric whose d omega, on a < b < c, is read
        # in the one cyclic term `term` alone, at (0,2,3), (0,1,2) and (0,1,2);
        # gamma = 0 is passed, so no inverse is taken, and J is constant
        chart = tc.Chart(["x1", "x2", "x3", "x4"])
        one, x1, x2, x3 = (chart.const(1), *map(chart.var, ("x1", "x2", "x3")))
        comps = {(a, a): one for a in range(4)}
        comps.update({
            "d_a w_bc": {(2, 2): one + x1 * x1, (3, 3): one + x1 * x1},
            "d_b w_ca": {(0, 3): x2, (3, 0): x2, (1, 2): -x2, (2, 1): -x2},
            "d_c w_ab": {(0, 0): one + x3 * x3, (1, 1): one + x3 * x3},
        }[term])
        g = Tensor(chart, (0, 2), comps)
        flags = kahler_check(g, tc.standard_J(chart), Tensor(chart, (1, 2), {}))
        assert flags == KahlerFlags(True, False, True, True)


class TestMobility:
    def test_submax_n2(self, submax2):
        mob = mobility_dimension(submax2)
        assert mob.dim == 2
        assert mob.identity_included and mob.stabilized

    def test_submax_n3_all_signs(self):
        for signs in [(1,), (-1,)]:
            spec = builtin("submax-metric", 3, signs=signs)
            mob = mobility_dimension(spec, stabilize=False)
            assert mob.dim == 5

    def test_flat_n2(self):
        spec = builtin("flat", 2)
        mob = mobility_dimension(spec)
        assert mob.dim == 9
        assert mob.identity_included and mob.stabilized

    def test_solutions_verified(self, submax2):
        mob = mobility_dimension(submax2, stabilize=False)
        for B in mob.basis:
            assert mobility_equation_holds(submax2, B)

    def test_unconstrained_dimension_reported(self, submax2):
        mob = mobility_dimension(submax2, stabilize=False)
        assert mob.dim_unconstrained >= mob.dim

    def test_dimension_chain_reads_the_computed_mobility(self, monkeypatch):
        # cp <= homothety + mobility - 1 is 8 <= 7 + 2 - 1 at n=2; with the
        # mobility solve made to return dim 1 it must fail
        chain = "dimension chain cp <= homothety + mobility - 1"

        def passed(checks):
            return next(c.passed for c in checks if c.check == chain)

        assert passed(metric_battery("submax-metric", 2, stabilize=False))
        solve = verify.mobility_dimension

        def one(*args, **kwargs):
            return dataclasses.replace(solve(*args, **kwargs), dim=1)

        monkeypatch.setattr(verify, "mobility_dimension", one)
        assert not passed(metric_battery("submax-metric", 2, stabilize=False))



class TestMobilityColumns:
    """The mobility operators' symbols and uses (per-pair symbols) against
    the generic route: `_mobility_operator` through
    `covariant_derivative_02`, and `_hermitian_defect`, on the column
    x^e E_ab.  A column's value is rebuilt from the uses of a one-monomial
    ansatz, where column p is pairs[p].  EQ is symmetric in its last two
    indices and emitted for a <= b; the generic route's other components
    must equal their mirrors."""

    @pytest.mark.parametrize("name,n", [("flat", 2), ("submax-metric", 2), ("submax-metric", 3)])
    def test_columns_equal_generic_route(self, name, n, canonical):
        spec = builtin(name, n)
        g, J = spec.metric, spec.J
        chart = g.chart
        ginv = metric_inverse(g)
        gamma = levi_civita(g, ginv)
        op = _mobility_operator(g, ginv, J, gamma)
        pairs, with_herm, eq_only = _mobility_closures(g, ginv, J, gamma)
        assert pairs == [(a, b) for a in range(chart.dim) for b in range(a, chart.dim)]
        deg = max(2, spec.degrees.get("degree", 2))
        big = AnsatzSpace(chart, total_degree=deg).enlarged()
        for exps in big.monomials:
            columns = [(exps, ab) for ab in pairs]
            both, eqs = with_herm(columns), eq_only(columns)
            for p, (a, b) in enumerate(pairs):
                B = _sym_tensor_basis(chart, exps, a, b)
                eq = ("EQ", emitted_half(op(B).comps, True))
                herm = ("HERM", _hermitian_defect(B, J).comps)
                got = canonical(chart.table, both, p, ("EQ", "HERM"))
                assert got == [eq, herm], (exps, a, b)
                assert canonical(chart.table, eqs, p, ("EQ",)) == [eq], (exps, a, b)

    @pytest.mark.parametrize("name", ["flat", "submax-metric"])
    def test_reverification_shares_no_code_with_the_symbols(self, monkeypatch, name):
        # the generic route computes theta, d theta and the right-hand side
        # on `contract`, so it runs with the symbol route's helpers made to
        # raise: from the start for `mobility_equation_holds`, and from the
        # check on, after the solves, for `mobility_dimension`
        spec = builtin(name, 2)
        chart = spec.chart

        def boom(*args):
            raise AssertionError("the re-verification ran a symbol helper")

        def break_helpers():
            monkeypatch.setattr(metric, "_theta", boom)
            monkeypatch.setattr(metric, "_subtract_lambda_terms", boom)

        operator = metric._mobility_operator

        def checked(*args):
            break_helpers()
            return operator(*args)

        monkeypatch.setattr(metric, "_mobility_operator", checked)
        res = mobility_dimension(spec)
        assert res.verified is True and res.identity_included
        monkeypatch.undo()
        break_helpers()
        assert mobility_equation_holds(spec, spec.metric)
        x = chart.var(chart.table.names[0])
        assert not mobility_equation_holds(spec, spec.metric.scale(x))

    @pytest.mark.parametrize("dropped", [0, 1])  # with_herm, eq_only
    def test_wrong_closure_fails_verification(self, monkeypatch, dropped):
        # an operator that drops every symbol of the pair (0, 0) leaves every
        # x^e E_00 in that solve's kernel; only the generic route can see it
        spec = builtin("flat", 2)
        good = mobility_dimension(spec)
        assert (good.dim, good.dim_unconstrained) == (9, 15) and good.verified
        closures = metric._mobility_closures

        def wrong(*args):
            pairs, *ops = closures(*args)
            ops[dropped] = without_direction(ops[dropped], (0, 0))
            return (pairs, *ops)

        monkeypatch.setattr(metric, "_mobility_closures", wrong)
        bad = mobility_dimension(spec)
        assert (bad.dim, bad.dim_unconstrained)[dropped] > (9, 15)[dropped]
        assert bad.verified is False

    def test_identity_check_uses_every_coordinate(self, monkeypatch):
        # one extra equation pinning the constant E_00 column of the
        # hermitian solve to zero removes g from its kernel; the span check
        # must see every monomial of every component, not one per component
        spec = builtin("flat", 2)
        chart = spec.chart
        assert spec.metric.get(0, 0) == chart.const(1)
        origin = (0,) * chart.dim
        closures = metric._mobility_closures

        def pinned(*args):
            pairs, with_herm, eq_only = closures(*args)

            def op(columns):
                symbols, uses = with_herm(columns)
                col = columns.index((origin, (0, 0)))  # x^0 E_00
                symbols = {**symbols, "pin": [("PIN", 0, chart.const(1))]}
                return symbols, {**uses, "pin": {1: [(col, 0)]}}

            return pairs, op, eq_only

        monkeypatch.setattr(metric, "_mobility_closures", pinned)
        res = mobility_dimension(spec)
        assert res.dim == 8 and res.verified
        assert res.identity_included is False


class TestParallelForms:
    @pytest.mark.parametrize("n", [2, 3])
    def test_forms_are_parallel(self, n):
        # d_b alpha_a - Gamma^c_ba alpha_c = 0 for every returned form
        spec = builtin("submax-metric", n)
        gamma = levi_civita(spec.metric, spec.metric_inverse)
        forms = parallel_forms(spec)
        assert len(forms) == 2 * (n - 1)
        for alpha in forms:
            assert alpha.valence == (0, 1) and not alpha.is_zero()
            assert nabla_one_form(gamma, alpha) == {}

    @pytest.mark.parametrize("n", [2, 3])
    def test_reverification_shares_no_code_with_the_symbols(self, n, monkeypatch):
        # parallel_forms_hold accepts the solved forms with the symbol route
        # disabled, and refuses dx^2 (its Gamma term) and x1 times a solved
        # form (its derivative term)
        spec = builtin("submax-metric", n)
        forms = parallel_forms(spec)

        def disabled(*args, **kwargs):
            raise AssertionError("the re-verification ran the symbol route")

        monkeypatch.setattr(metric, "_column_operator", disabled)
        assert parallel_forms_hold(spec, forms)
        chart = spec.chart
        dx2 = Tensor(chart, (0, 1), {(2,): chart.const(1)})
        assert not parallel_forms_hold(spec, [*forms, dx2])
        x1 = chart.var(chart.table.names[0])
        assert not parallel_forms_hold(spec, [forms[0].scale(x1)])

    def test_submax_n2(self, submax2):
        pf = parallel_forms(submax2)
        assert len(pf) == 2
        dirs = {k[0] for b in pf for k in b.comps}
        assert dirs == {0, 1}  # the first complex direction, re and im

    def test_submax_n3(self, submax3):
        pf = parallel_forms(submax3)
        assert len(pf) == 4
        dirs = {k[0] for b in pf for k in b.comps}
        assert dirs == {0, 1, 4, 5}

    def test_flat_constants(self):
        spec = builtin("flat", 2)
        pf = parallel_forms(spec)
        assert len(pf) == 4
        for b in pf:
            for p in b.comps.values():
                assert p.is_constant()

    def test_second_direction_form_not_parallel(self, submax2):
        # alpha = dx^2, dual to the second complex direction, has
        # (nabla alpha)_ba = d_b alpha_a - Gamma^c_ba alpha_c nonzero
        chart = submax2.chart
        alpha = Tensor(chart, (0, 1), {(2,): chart.const(1)})
        assert nabla_one_form(levi_civita(submax2.metric, submax2.metric_inverse), alpha)
        # and alpha is not in the span of the parallel forms
        span = SpanSolver()
        for form in parallel_forms(submax2):
            span.insert(field_coordinates(form.comps))
        assert span.dim() == 2
        assert not span.contains(field_coordinates(alpha.comps))


class TestFamily:
    def test_zero_parameters_give_base_metric(self, submax2):
        ghat, A, B = equivalent_metric_family(submax2, {})
        assert ghat == submax2.metric
        ratio = B.proportional_to(submax2.metric)
        assert ratio == 1

    def test_members_solve_mobility(self, submax2):
        for c in ((1, 0), (-3, 0), (Fraction(2, 5), 0)):
            ghat, A, B = equivalent_metric_family(submax2, {(1, 1): c})
            assert mobility_equation_holds(submax2, B)

    def test_n3_offdiagonal_member(self, submax3):
        ghat, A, B = equivalent_metric_family(submax3, {(1, 3): (1, 2)})
        assert mobility_equation_holds(submax3, B)

    def test_parameter_count_matches_mobility(self, submax3):
        par = parallel_complex_indices(3)
        count = len(par) ** 2 + 1
        assert count == 5 == mobility_dimension(submax3, stabilize=False).dim

    def test_family_shares_levi_civita(self, submax2):
        ghat, _, _ = equivalent_metric_family(submax2, {(1, 1): (7, 0)})
        lc = levi_civita(submax2.metric, submax2.metric_inverse)
        assert levi_civita(ghat, metric_inverse(ghat)) == lc

    def test_nonparallel_direction_rejected(self, submax2):
        with pytest.raises(ValueError):
            equivalent_metric_family(submax2, {(2, 2): (1, 0)})

    def test_family_never_riemannian(self, submax2):
        pt = origin_point(submax2.chart)
        for c in ((0, 0), (5, 0), (-5, 0)):
            ghat, _, _ = equivalent_metric_family(submax2, {(1, 1): c})
            pos, neg, zero = gram_signature_at(ghat, pt)
            assert zero == 0 and pos > 0 and neg > 0


class TestFullIsometries:
    def test_full_isometry_algebra_is_eight_dimensional(self, submax2):
        # without the holomorphy constraint the Killing algebra grows from 6
        # to 8 (two non-holomorphic generators with cubic coefficients),
        # matching the printed semidirect-product presentation
        from cprojver.symsolve import killing_system

        full = killing_system(
            submax2,
            AnsatzSpace(submax2.chart, total_degree=3),
            holomorphic=False,
        )
        assert full.dim == 8
        assert full.stabilized and full.verified
        holo = killing_system(
            submax2, AnsatzSpace(submax2.chart, total_degree=3), stabilize=False
        )
        assert holo.dim == 6

    def test_full_isometry_algebra_matches_printed_presentation(self, submax2):
        # transitive (isotropy dimension 4) with perfect derived algebra,
        # like the printed sl(2,R) semidirect sum
        from fractions import Fraction

        from cprojver.algebras import builtin_algebra
        from cprojver.linalg import SpanSolver
        from cprojver.symsolve import (
            bracket_fields,
            field_coordinates,
            killing_system,
        )

        full = killing_system(
            submax2,
            AnsatzSpace(submax2.chart, total_degree=3),
            stabilize=False,
            holomorphic=False,
        )
        pt = {n: Fraction(0) for n in submax2.chart.table.names}
        rows = [
            [
                (f[i].evaluate(pt) if i in f else Fraction(0))
                for i in range(submax2.chart.dim)
            ]
            for f in full.basis
        ]
        assert real_rank(rows) == submax2.chart.dim
        span = SpanSolver()
        for i in range(len(full.basis)):
            for j in range(i + 1, len(full.basis)):
                br = bracket_fields(submax2.chart, full.basis[i], full.basis[j])
                if br:
                    span.insert(field_coordinates(br))
        assert span.dim() == 8  # perfect, so not solvable
        assert builtin_algebra("s-double-prime").derived_series() == (8, 8)


class TestTransitivity:
    @pytest.mark.parametrize(
        "name,n,point",
        [
            ("type2", 2, {"x1": 0, "x2": 0, "x3": 0, "x4": 0}),
            ("type1-n2", 2, {"x1": 1, "x2": 0, "x3": 0, "x4": 0}),
            ("type3-n2", 2, {"x": 0, "y": 0, "s": 1, "q": 0}),
            ("nonminimal", 2, {"x1": 0, "x2": 0, "x3": 0, "x4": 0}),
        ],
    )
    def test_submaximal_models_act_transitively(self, name, n, point):
        from fractions import Fraction

        from cprojver.catalog import model_ansatz
        from cprojver.symsolve import cproj_system

        spec = builtin(name, n)
        res = cproj_system(spec, model_ansatz(spec), stabilize=False)
        pt = {k: Fraction(v) for k, v in point.items()}
        rows = [
            [
                (f[i].evaluate(pt) if i in f else Fraction(0))
                for i in range(spec.chart.dim)
            ]
            for f in res.basis
        ]
        assert real_rank(rows) == spec.chart.dim


class TestSignature:
    @pytest.mark.parametrize("signs", [(1,), (-1,)])
    def test_submax_n3_indefinite(self, signs):
        spec = builtin("submax-metric", 3, signs=signs)
        pos, neg, zero = gram_signature_at(spec.metric, origin_point(spec.chart))
        assert zero == 0 and pos > 0 and neg > 0

    def test_flat_definite(self):
        spec = builtin("flat", 2)
        assert gram_signature_at(spec.metric, origin_point(spec.chart)) == (4, 0, 0)
