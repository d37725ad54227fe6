"""Symmetry PDE kernels: ansatz spaces, solvers, the symmetry-to-mobility map."""

from functools import partial
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cprojver.catalog import builtin, expected_symmetries, model_ansatz
from cprojver.cli import MODEL_NS
from cprojver.linalg import LinearSystem, SpanSolver
from cprojver.metric import metric_inverse, mobility_equation_holds
from cprojver.poly import LaurentPoly, PolyError, VarTable
from cprojver.symsolve import (
    AnsatzSpace,
    SystemBuilder,
    _LIMIT,
    _column_operator,
    _pack,
    affine_operator,
    affine_system,
    bracket_fields,
    cp_projection,
    cproj_equations,
    cproj_operator,
    cproj_system,
    field_coordinates,
    homothety_equations,
    homothety_system,
    killing_operator,
    killing_system,
    phi_map,
    solve_field_system,
    span_equals,
    verify_fields,
)
from cprojver import tensorcalc as tc
from cprojver.tensorcalc import Chart, Tensor
from conftest import unpack


class TestAnsatz:
    def test_total_degree_enumeration(self):
        spec = builtin("flat", 2)
        ans = AnsatzSpace(spec.chart, total_degree=2)
        assert len(ans) == 15  # C(4+2,2)

    def test_laurent_bounds(self):
        spec = builtin("type3-n2", 2)
        ans = AnsatzSpace(
            spec.chart, bounds={"x": (0, 1), "y": (0, 1), "q": (0, 1), "s": (-2, 2)}
        )
        assert len(ans) == 2 * 2 * 2 * 5

    def test_negative_bound_on_ordinary_var_rejected(self):
        spec = builtin("flat", 2)
        with pytest.raises(PolyError):
            AnsatzSpace(spec.chart, bounds={"x1": (-1, 1)})

    def test_enlarged(self):
        spec = builtin("type3-n2", 2)
        ans = AnsatzSpace(
            spec.chart, bounds={"x": (0, 1), "y": (0, 1), "q": (0, 1), "s": (-2, 2)}
        )
        big = ans.enlarged()
        assert len(big) == 3 * 3 * 3 * 7


@st.composite
def ansatz_cases(draw):
    """A chart of 1-4 variables (some laurent), per-variable bounds (negative
    lower bounds on laurent variables only) and an optional total degree;
    with a total degree, variables may be left without a bound."""
    nvars = draw(st.integers(1, 4))
    names = [f"v{i}" for i in range(nvars)]
    laurent = [name for name in names if draw(st.booleans())]
    total_degree = draw(st.none() | st.integers(0, 4))
    bounds = {}
    for name in names:
        if total_degree is not None and draw(st.booleans()):
            continue
        lo = draw(st.integers(-3 if name in laurent else 0, 2))
        bounds[name] = (lo, draw(st.integers(lo, lo + 3)))
    return Chart(names, laurent=laurent), total_degree, bounds


class TestAnsatzEnumeration:
    @settings(max_examples=200, deadline=None)
    @given(ansatz_cases())
    def test_equals_filtered_box(self, case):
        chart, total_degree, bounds = case
        ranges = []
        for name in chart.table.names:
            lo, hi = bounds.get(name, (0, total_degree))
            ranges.append(range(lo, hi + 1))
        box = [
            e for e in product(*ranges)
            if total_degree is None or sum(x for x in e if x > 0) <= total_degree
        ]
        ans = AnsatzSpace(chart, total_degree=total_degree, bounds=bounds)
        assert ans.monomials == sorted(box)


CATALOG = [(name, n) for name, ns in MODEL_NS.items() for n in ns]


def _vectors(nv):
    entry = st.integers(-_LIMIT + 1, _LIMIT - 1)
    vector = st.lists(entry, min_size=nv, max_size=nv).map(tuple)
    return st.tuples(vector, vector)


exponent_vectors = st.integers(1, 6).flatmap(_vectors)


class TestPackedKeys:
    """Monomials from the column closures to `SystemBuilder` are packed ints."""

    @settings(max_examples=200, deadline=None)
    @given(exponent_vectors)
    def test_order_and_round_trip(self, pair):
        # negative entries stand for Laurent exponents; sorting rows by key
        # must give the tuple order, and the key must determine the vector
        a, b = pair
        ka, kb = _pack(a), _pack(b)
        assert (ka < kb) == (a < b) and (ka == kb) == (a == b)
        assert unpack(ka, len(a)) == a and unpack(kb, len(b)) == b
        # a shift multiplies by a monomial, within the admitted range
        s = tuple(x // 3 for x in b)
        c = tuple(x // 3 for x in a)
        assert unpack(_pack(c) + _pack(s, 0), len(a)) == tuple(map(sum, zip(c, s)))

    def test_exponent_at_the_slot_limit_raises(self):
        spec = builtin("type3-n2", 2)  # x, y, the Laurent variable s, and q
        table = spec.chart.table
        op = cproj_operator(spec)
        assert op((0, 0, _LIMIT - 1, 0), 0)  # the largest admitted exponent
        for exps in [(0, 0, _LIMIT, 0), (0, 0, -_LIMIT, 0), (_LIMIT, 0, 0, 0)]:
            with pytest.raises(PolyError, match="packed range"):
                op(exps, 0)
        # a symbol term at the limit fails when its symbol is built
        for e in (_LIMIT, -_LIMIT):
            big = LaurentPoly(table, {(0, 0, e, 0): 1})
            op = _column_operator(("T",), lambda a: ({(0,): big},), lambda a, l: ({},))
            with pytest.raises(PolyError, match="packed range"):
                op((0, 0, 0, 0), 0)


class TestColumnSymbols:
    """The column closures (per-direction symbols) against the generic route:
    tensorcalc's Lie derivatives of the field x^e d_a, each computed once per
    column and shared by the three operators' equations."""

    @pytest.mark.parametrize("name,n", CATALOG)
    def test_columns_equal_generic_route(self, name, n, canonical):
        spec = builtin(name, n)
        table = spec.chart.table
        J, G, g = spec.J, spec.gamma, spec.metric
        base = model_ansatz(spec)
        big = base.enlarged()
        # the enlarged columns include every column of the base solve
        assert set(base.monomials) <= set(big.monomials)
        cproj, affine = cproj_operator(spec), affine_operator(spec)
        if g is not None:
            killing = killing_operator(spec)
            isometry = killing_operator(spec, holomorphic=False)
        for exps in big.monomials:
            mono = LaurentPoly(table, {exps: 1})
            for a in range(spec.chart.dim):
                v = {a: mono}
                lj = ("LJ", tc.lie_derivative_J(v, J).comps)
                om = tc.lie_derivative_connection(v, G).comps
                cp = ("CP", cp_projection(J, om))
                assert canonical(table, cproj(exps, a)) == [lj, cp], (exps, a)
                assert canonical(table, affine(exps, a)) == [lj, ("LG", om)], (exps, a)
                if g is not None:
                    lg = ("LG", tc.lie_derivative_metric(v, g).comps)
                    assert canonical(table, killing(exps, a)) == [lj, lg], (exps, a)
                    assert canonical(table, isometry(exps, a)) == [lg], (exps, a)

    @pytest.mark.parametrize("name,n", CATALOG)
    def test_builder_clears_denominators_of_either_route(self, name, n):
        # the closures hand over shifted references to unreduced rational
        # symbols per (component, denominator), the generic route reduced
        # LaurentPoly components, packed here as unshifted parts;
        # SystemBuilder sums the terms and brings each equation to one
        # denominator, so both must give the same kernel, of the published
        # dimension
        spec = builtin(name, n)
        table = spec.chart.table
        closure = cproj_operator(spec)
        generic, fed = SystemBuilder(table), SystemBuilder(table)
        for exps in model_ansatz(spec).monomials:
            mono = LaurentPoly(table, {exps: 1})
            for a in range(spec.chart.dim):
                col = generic.column()
                assert fed.column() == col
                for tag, t in cproj_equations(spec, {a: mono}):
                    symbol = [
                        (comp, p.den, [(_pack(e), c) for e, c in p.terms.items()])
                        for comp, p in t.comps.items()
                    ]
                    generic.add_output(col, tag, [(0, symbol)])
                for tag, parts in closure(exps, a):
                    fed.add_output(col, tag, parts)
        kernel, _ = generic.kernel()
        assert kernel == fed.kernel()[0]
        assert len(kernel) == spec.expect("symmetry_dim")

    def test_wrong_closure_fails_verification(self):
        spec = builtin("type2", 2)
        good = cproj_operator(spec)

        def wrong(exps, a):
            return [] if a == 0 else good(exps, a)

        equations = partial(cproj_equations, spec)
        basis, _ = solve_field_system(spec, good, model_ansatz(spec))
        assert len(basis) == 8 and verify_fields(equations, basis)
        basis, _ = solve_field_system(spec, wrong, model_ansatz(spec))
        assert len(basis) > 8
        assert not verify_fields(equations, basis)

    def test_non_real_symbol_coefficient_raises(self):
        # the linear systems are over Q: a polynomial refuses a complex
        # coefficient, as a Python complex or an (re, im) pair, when it is
        # built, so no symbol term can carry one
        table = builtin("flat", 2).chart.table
        with pytest.raises(PolyError, match="int or Fraction"):
            LaurentPoly.const(table, 1j)
        with pytest.raises(PolyError, match="int or Fraction"):
            LaurentPoly(table, {(0,) * table.nvars(): (1, 0)})


@st.composite
def planted_matrices(draw):
    """(ncols, rows): a sparse integer matrix, rows as {col: int}, with
    planted one-entry rows and chains.  Chain row k holds column c_k and
    some of c_0..c_(k-1), so it has one entry only once those are known to
    be zero.  The rows come shuffled, so a chain row may arrive before the
    rows that settle its other columns."""
    ncols = draw(st.integers(1, 8))
    col = st.integers(0, ncols - 1)
    entry = st.integers(-3, 3).filter(bool)
    rows = draw(st.lists(st.dictionaries(col, entry, max_size=4), max_size=8))
    for _ in range(draw(st.integers(1, 3))):
        chain = draw(st.lists(col, min_size=1, max_size=4, unique=True))
        for k, c in enumerate(chain):
            before = draw(st.sets(st.sampled_from(chain[:k]), min_size=1)) if k else ()
            rows.append({c: draw(entry), **{b: draw(entry) for b in before}})
    return ncols, draw(st.permutations(rows))


class TestZeroColumnPass:
    """`SystemBuilder.kernel` settles the columns that one-entry rows force
    to zero before the elimination; the plain `LinearSystem` fed the raw
    rows in their natural order is the reference route."""

    TABLE = VarTable(["x"])

    @settings(max_examples=200, deadline=None)
    @given(planted_matrices())
    def test_same_kernel_and_rank_as_raw_rows(self, case):
        ncols, rows = case
        # row i is component i of one tag at one packed key, so the builder
        # meets the rows in their natural order
        builder = SystemBuilder(self.TABLE)
        for _ in range(ncols):
            builder.column()
        key = _pack((0,))
        for i, row in enumerate(rows):
            for col, c in row.items():
                builder.add_output(col, "T", [(0, [(i, (), [(key, c)])])])
        kernel, system = builder.kernel()
        ref = LinearSystem()
        ref.register_columns(range(ncols))
        for row in rows:
            if row:
                ref.add_row(row)
        assert kernel == ref.kernel()
        assert system.rank() == ref.rank()
        assert system.nrows <= ref.nrows

    def test_second_kernel_call_raises(self):
        builder = SystemBuilder(self.TABLE)
        builder.add_output(builder.column(), "T", [(0, [(0, (), [(_pack((0,)), 1)])])])
        kernel, _ = builder.kernel()
        assert kernel == []
        with pytest.raises(RuntimeError, match="already consumed"):
            builder.kernel()


class TestFlatModel:
    def test_dimension(self):
        spec = builtin("flat", 2)
        res = cproj_system(spec, AnsatzSpace(spec.chart, total_degree=2))
        assert res.dim == 16
        assert res.stabilized and res.verified and res.closed_under_bracket

    def test_monotone_in_ansatz(self):
        spec = builtin("flat", 2)
        d1 = cproj_system(
            spec, AnsatzSpace(spec.chart, total_degree=1), stabilize=False
        ).dim
        d2 = cproj_system(
            spec, AnsatzSpace(spec.chart, total_degree=2), stabilize=False
        ).dim
        d3 = cproj_system(
            spec, AnsatzSpace(spec.chart, total_degree=3), stabilize=False
        ).dim
        assert d1 <= d2 <= d3
        assert d2 == d3 == 16

    def test_flat_killing_dimension(self):
        # u(n) + translations: n^2 + 2n holomorphic isometries
        spec = builtin("flat", 2)
        res = killing_system(spec, AnsatzSpace(spec.chart, total_degree=1))
        assert res.dim == 8


class TestBrackets:
    def test_antisymmetric(self):
        spec = builtin("flat", 2)
        x1 = spec.chart.var("x1")
        v = {0: x1 * x1}
        w = {1: spec.chart.var("x2")}
        b1 = bracket_fields(spec.chart, v, w)
        b2 = bracket_fields(spec.chart, w, v)
        for k in set(b1) | set(b2):
            assert (b1.get(k, spec.chart.zero()) + b2.get(k, spec.chart.zero())).is_zero()

    def test_kernel_brackets_decompose_over_basis(self):
        spec = builtin("type2", 2)
        res = cproj_system(spec, model_ansatz(spec), stabilize=False)
        span = SpanSolver()
        for f in res.basis:
            span.insert(field_coordinates(f))
        for i in range(len(res.basis)):
            for j in range(i + 1, len(res.basis)):
                br = bracket_fields(spec.chart, res.basis[i], res.basis[j])
                if br:
                    assert span.decompose(field_coordinates(br)) is not None


class TestVerification:
    def test_all_kernel_fields_satisfy_equations(self):
        spec = builtin("type3", 3)
        res = cproj_system(spec, model_ansatz(spec), stabilize=False)
        assert res.verified

    def test_printed_fields_individually(self):
        spec = builtin("type2", 3)
        for label, f in expected_symmetries(spec):
            assert all(t.is_zero() for _, t in cproj_equations(spec, f)), label

    def test_span_equality(self):
        spec = builtin("nonminimal", 2)
        res = cproj_system(spec, model_ansatz(spec), stabilize=False)
        fields = [f for _, f in expected_symmetries(spec)]
        assert span_equals(spec.chart, res.basis, fields)


@pytest.fixture(scope="module")
def submax2():
    return builtin("submax-metric", 2)


@pytest.fixture(scope="module")
def setup():
    spec = builtin("submax-metric", 2)
    return spec, metric_inverse(spec.metric)


class TestMetricSystems:

    def test_isometries(self, submax2):
        res = killing_system(submax2, AnsatzSpace(submax2.chart, total_degree=2))
        assert res.dim == 6
        assert res.stabilized
        assert res.verified

    def test_homotheties(self, submax2):
        res = homothety_system(submax2, AnsatzSpace(submax2.chart, total_degree=2))
        assert res.dim == 7
        assert res.verified
        # a genuine non-isometric homothety exists: some scale factor nonzero
        assert any(c != 0 for c in res.extra["scales"])

    def test_homothety_check_uses_each_fields_own_scale(self, submax2):
        res = homothety_system(
            submax2, AnsatzSpace(submax2.chart, total_degree=2), stabilize=False
        )
        pairs = list(zip(res.basis, res.extra["scales"]))
        equations = partial(homothety_equations, submax2)
        assert len(pairs) == 7 and verify_fields(equations, pairs)
        assert not any(verify_fields(equations, [(f, c + 1)]) for f, c in pairs)

    def test_affine_on_type3_n2(self):
        spec = builtin("type3-n2", 2)
        res = affine_system(spec, model_ansatz(spec), stabilize=False)
        assert res.dim == 8


class TestPhiMap:
    def test_isometry_maps_to_zero(self, setup):
        spec, ginv = setup
        kil = killing_system(spec, AnsatzSpace(spec.chart, total_degree=2), stabilize=False)
        for v in kil.basis:
            assert phi_map(v, spec.metric, ginv).is_zero()

    def test_phi_lands_in_the_mobility_space(self, setup):
        # the image of every symmetry solves the mobility equation; its trace
        # comes out constant (solutions have constant trace here)
        spec, ginv = setup
        res = cproj_system(spec, model_ansatz(spec), stabilize=False)
        for v in res.basis:
            A = phi_map(v, spec.metric, ginv)
            tr = spec.chart.zero()
            for (i, j), p in A.comps.items():
                if i == j:
                    tr = tr + p
            assert tr.is_constant()
            B = {}
            for (c, a), p in A.comps.items():
                for (c2, b), q in spec.metric.comps.items():
                    if c2 != c:
                        continue
                    key = (a, b)
                    cur = B.get(key, spec.chart.zero())
                    B[key] = cur + p * q
            assert mobility_equation_holds(spec, Tensor(spec.chart, (0, 2), B))

    def test_euler_type_field_solves_mobility(self, setup):
        # the non-affine generator maps to a nonzero mobility solution
        spec, ginv = setup
        fields = dict(expected_symmetries(builtin("type2", 2)))
        v = fields["e.re"]
        A = phi_map(v, spec.metric, ginv)
        assert not A.is_zero()
        B = {}
        for (c, a), p in A.comps.items():
            for (c2, b), q in spec.metric.comps.items():
                if c2 != c:
                    continue
                key = (a, b)
                cur = B.get(key, spec.chart.zero())
                B[key] = cur + p * q
        Bt = Tensor(spec.chart, (0, 2), B)
        assert mobility_equation_holds(spec, Bt)
