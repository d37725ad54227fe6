"""Symmetry PDE kernels: ansatz spaces, solvers, the symmetry-to-mobility map."""

import dataclasses
import hashlib
from contextlib import contextmanager
from fractions import Fraction
from functools import partial
from itertools import product

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cprojver.catalog import builtin, expected_symmetries, model_ansatz
from cprojver import cli, verify
from cprojver.cli import MODEL_NS
from cprojver.linalg import LinearSystem, SpanSolver
from cprojver.metric import metric_inverse, mobility_equation_holds
from cprojver.poly import _LIMIT, LaurentPoly, PolyError, VarTable, accumulate, pack, unpack
from cprojver.symsolve import (
    AnsatzSpace,
    SystemBuilder,
    _column_operator,
    _symmetric_tags,
    affine_equations,
    affine_operator,
    affine_system,
    bracket_fields,
    check_bracket_closure,
    cp_projection,
    cproj_equations,
    cproj_operator,
    cproj_system,
    field_coordinates,
    homothety_equations,
    homothety_system,
    killing_equations,
    killing_operator,
    killing_system,
    phi_map,
    solve_field_system,
    span_equals,
    verify_fields,
)
from cprojver import tensorcalc as tc
from cprojver.tensorcalc import Chart, Tensor
from conftest import emitted_half, without_direction


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
    """Every monomial, from a polynomial's terms to `SystemBuilder`'s rows,
    is a packed int (`poly.pack`)."""

    @settings(max_examples=200, deadline=None)
    @given(exponent_vectors)
    @example(((_LIMIT - 1, 1 - _LIMIT, 0), (1 - _LIMIT, _LIMIT - 1, _LIMIT - 1)))
    def test_order_and_round_trip(self, pair):
        # negative entries stand for Laurent exponents; sorting rows by key
        # must give the tuple order, and the key must determine the vector
        a, b = pair
        ka, kb = pack(a), pack(b)
        assert (ka < kb) == (a < b) and (ka == kb) == (a == b)
        assert unpack(ka, len(a)) == a and unpack(kb, len(b)) == b
        # a shift multiplies by a monomial, within the admitted range
        s = tuple(x // 3 for x in b)
        c = tuple(x // 3 for x in a)
        assert unpack(pack(c) + pack(s, 0), len(a)) == tuple(map(sum, zip(c, s)))

    def test_exponent_at_the_slot_limit_raises(self):
        spec = builtin("type3-n2", 2)  # x, y, the Laurent variable s, and q
        table = spec.chart.table
        op = cproj_operator(spec)
        assert op([((0, 0, _LIMIT - 1, 0), 0)])  # the largest admitted exponent
        for exps in [(0, 0, _LIMIT, 0), (0, 0, -_LIMIT, 0), (_LIMIT, 0, 0, 0)]:
            with pytest.raises(PolyError, match="packed range"):
                op([(exps, 0)])
        # a symbol term at the limit fails when its polynomial is built
        for e in (_LIMIT, -_LIMIT):
            with pytest.raises(PolyError, match="packed range"):
                LaurentPoly.var(table, "s", e)


# The catalog models whose Gamma is symmetric (torsion-free): their CP and
# L_v Gamma equations are symmetric in the lower indices, and the operators
# emit one component of each mirrored pair.  Every metric is symmetric.
SYMMETRIC_GAMMA = {"flat", "type1", "type1-n2", "type2", "submax-metric", "cp1xc"}


def _asymmetric_type2():
    """type2 at n=2 with Gamma^3_10 negated, so that Gamma^3_01 = x1 and
    Gamma^3_10 = -x1: a connection with torsion whose kernel a halved CP
    equation gets wrong (7 fields against 6)."""
    spec = builtin("type2", 2)
    comps = dict(spec.gamma.comps)
    assert comps[(3, 0, 1)] == comps[(3, 1, 0)] != 0
    comps[(3, 1, 0)] = -comps[(3, 1, 0)]
    return dataclasses.replace(spec, gamma=Tensor(spec.chart, (1, 2), comps))


class TestColumnSymbols:
    """The operators' symbols and uses against the generic route:
    tensorcalc's Lie derivatives of the field x^e d_a, and CP of L_v Gamma as
    `cproj_equations` writes it on `contract`.  A column's value is rebuilt
    from the uses of the columns of one monomial, where column a is the
    direction a.  Where an equation is symmetric in its last two indices,
    the operator emits the components whose last two indices ascend; the
    generic route's other components must equal their mirrors."""

    @pytest.mark.parametrize("name,n", CATALOG)
    def test_columns_equal_generic_route(self, name, n, canonical):
        spec = builtin(name, n)
        table = spec.chart.table
        dim = spec.chart.dim
        J, G, g = spec.J, spec.gamma, spec.metric
        sym = name in SYMMETRIC_GAMMA
        base = model_ansatz(spec)
        big = base.enlarged()
        # the enlarged columns include every column of the base solve
        assert set(base.monomials) <= set(big.monomials)
        cproj, affine = cproj_operator(spec), affine_operator(spec)
        if g is not None:
            killing = killing_operator(spec)
            isometry = killing_operator(spec, holomorphic=False)
        for exps in big.monomials:
            mono = LaurentPoly(table, {pack(exps): 1})
            columns = [(exps, a) for a in range(dim)]
            outputs = {"cproj": cproj(columns), "affine": affine(columns)}
            if g is not None:
                outputs["killing"] = killing(columns)
                outputs["isometry"] = isometry(columns)
            for a in range(dim):
                v = {a: mono}
                lj = ("LJ", tc.lie_derivative_J([v], J)[0].comps)
                om = tc.lie_derivative_connection([v], G)[0].comps
                cp = ("CP", emitted_half(dict(cproj_equations(spec, [v])[0])["CP"].comps, sym))
                got = canonical(table, outputs["cproj"], a, ("LJ", "CP"))
                assert got == [lj, cp], (exps, a)
                got = canonical(table, outputs["affine"], a, ("LJ", "LG"))
                assert got == [lj, ("LG", emitted_half(om, sym))], (exps, a)
                if g is not None:
                    lg = ("LG", emitted_half(tc.lie_derivative_metric([v], g)[0].comps, True))
                    got = canonical(table, outputs["killing"], a, ("LJ", "LG"))
                    assert got == [lj, lg], (exps, a)
                    got = canonical(table, outputs["isometry"], a, ("LG",))
                    assert got == [lg], (exps, a)

    @pytest.mark.parametrize("name,n", CATALOG)
    def test_second_order_cp_symbols_equal_cp_projection(self, name, n):
        # the operator skips CP where S2(a, l, k) has no trace (k != a) and
        # adds one correction per l where it has; every exponent 2 makes a
        # column take every S2(a, l, k).  S2(a, l, k) alone is not symmetric
        # (its mirror S2(a, k, l) is), so the cut is taken without a check.
        spec = builtin(name, n)
        dim = spec.chart.dim
        one = spec.chart.const(1)
        sym = name in SYMMETRIC_GAMMA
        symbols, _ = cproj_operator(spec)([((2,) * dim, a) for a in range(dim)])
        for a, l, k in product(range(dim), repeat=3):
            got = {comp: p for tag, comp, p in symbols.get((a, l, k), ()) if tag == "CP"}
            want = {comp: p for comp, p in cp_projection(spec.J, {(a, l, k): one}).items()
                    if not sym or comp[1] <= comp[2]}
            assert got == want, (a, l, k)

    @pytest.mark.parametrize("name,n", CATALOG)
    def test_gamma_symmetry_decides_the_cut(self, name, n):
        spec = builtin(name, n)
        expected = ("CP",) if name in SYMMETRIC_GAMMA else ()
        assert _symmetric_tags("CP", spec.gamma) == expected
        if spec.metric is not None:
            assert _symmetric_tags("LG", spec.metric) == ("LG",)

    @pytest.mark.parametrize("name,n", [("type3", 3), ("nonminimal", 2), ("asymmetric", 2)])
    def test_connection_with_torsion_emits_both_halves(self, name, n):
        spec = _asymmetric_type2() if name == "asymmetric" else builtin(name, n)
        columns = model_ansatz(spec).columns(range(spec.chart.dim))
        for operator, tag in ((cproj_operator, "CP"), (affine_operator, "LG")):
            symbols, _ = operator(spec)(columns)
            comps = {comp for parts in symbols.values() for t, comp, *_ in parts if t == tag}
            assert any(j > k for _, j, k in comps), tag
            assert {(i, k, j) for i, j, k in comps} == comps, tag

    def test_connection_with_torsion_keeps_the_generic_kernel(self):
        # one Gamma entry made asymmetric: the operator must not halve CP,
        # which here would add a seventh field
        spec = _asymmetric_type2()
        generic, fed = self._kernels(spec)
        assert generic == fed and len(generic) == 6

    @staticmethod
    def _kernels(spec):
        """The kernels of the model ansatz from the generic route, each
        column's `cproj_equations` as one unshifted symbol used once, and
        from `cproj_operator`."""
        table = spec.chart.table
        columns = model_ansatz(spec).columns(range(spec.chart.dim))
        symbols, uses = {}, {}
        for col, (exps, a) in enumerate(columns):
            mono = LaurentPoly(table, {pack(exps): 1})
            symbols[col] = [
                (tag, comp, p)
                for tag, t in cproj_equations(spec, [{a: mono}])[0]
                for comp, p in t.comps.items()
            ]
            uses[col] = {1: [(col, 0)]}
        generic, fed = SystemBuilder(len(columns)), SystemBuilder(len(columns))
        generic.add(symbols, uses)
        fed.add(*cproj_operator(spec)(columns))
        return generic.kernel()[0], fed.kernel()[0]

    @pytest.mark.parametrize("name,n", CATALOG)
    def test_builder_clears_denominators_of_either_route(self, name, n):
        # the operator hands over shifted, scaled uses of unreduced rational
        # symbols per (component, denominator), the generic route reduced
        # LaurentPoly components, fed here as one symbol per column, used
        # once and unshifted, with both halves of every symmetric equation;
        # SystemBuilder sums the terms and brings each equation to one
        # denominator, so both must give the same kernel, of the published
        # dimension
        spec = builtin(name, n)
        generic, fed = self._kernels(spec)
        assert generic == fed
        assert len(generic) == spec.expect("symmetry_dim")

    def test_wrong_closure_fails_verification(self):
        spec = builtin("type2", 2)
        good = cproj_operator(spec)
        wrong = without_direction(good, 0)
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
            LaurentPoly(table, {table.zero: (1, 0)})


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


ZERO_TABLE = VarTable(["x"])


@st.composite
def part_equations(draw):
    """(ncols, {(tag, comp): [(LaurentPoly, {scale: [(col, shift)]})]}):
    equations in x of one to four parts each, every part one or two terms
    in 1, x used by one to three columns at shift 1 or x.  The counts of
    parts differ, so the fewest-parts order is not the sorted one, and the
    one-part equations often give one-entry rows."""
    ncols = draw(st.integers(2, 6))
    term = st.sampled_from([pack((0,)), pack((1,))])
    use = st.tuples(st.integers(0, ncols - 1), st.sampled_from([pack((0,), 0), pack((1,), 0)]))
    part = st.builds(
        lambda terms, used: (LaurentPoly(ZERO_TABLE, terms), used),
        st.dictionaries(term, st.sampled_from([1, -1, 2, -3]), min_size=1, max_size=2),
        st.dictionaries(st.sampled_from([1, -1, 2]), st.lists(use, min_size=1, max_size=3),
                        min_size=1, max_size=2),
    )
    keys = draw(st.lists(st.tuples(st.sampled_from("AB"), st.integers(0, 3)),
                         min_size=2, max_size=6, unique=True))
    return ncols, {key: draw(st.lists(part, min_size=1, max_size=4)) for key in keys}


def _plain_rows(eqs):
    """The rows `LinearSystem` should get for `eqs`, by the plain route:
    every equation scattered in sorted (tag, comp) order with no column
    skipped, its rows in ascending key order; the rows stripped of the
    columns that one-entry rows force to zero until that set stops
    growing; then a unit row per such column, ascending, and the stripped
    rows of two or more entries in their order."""
    raw = []
    for key in sorted(eqs):
        rows = {}
        for p, used in eqs[key]:
            for scale, cols in used.items():
                for e, c in p.terms.items():
                    for col, shift in cols:
                        row = rows.setdefault(e + shift, {})
                        row[col] = row.get(col, 0) + scale * c
        raw += [rows[e] for e in sorted(rows)]
    zero = set()
    grew = True
    while grew:
        grew = False
        for row in raw:
            left = [col for col, c in row.items() if c and col not in zero]
            if len(left) == 1:
                zero.update(left)
                grew = True
    stripped = [{col: c for col, c in row.items() if c and col not in zero} for row in raw]
    return [{col: 1} for col in sorted(zero)] + [row for row in stripped if len(row) > 1]


@contextmanager
def recorded_rows():
    """Yields a list that collects list(row.items()) of every
    `LinearSystem.add_row` call inside the block, in call order."""
    rows = []
    add_row = LinearSystem.add_row

    def recorded(self, row):
        rows.append(list(row.items()))
        return add_row(self, row)

    LinearSystem.add_row = recorded
    try:
        yield rows
    finally:
        LinearSystem.add_row = add_row


class TestZeroColumnPass:
    """`SystemBuilder.kernel` settles the columns that one-entry rows force
    to zero before the elimination; the plain `LinearSystem` fed the raw
    rows in their natural order is the reference route."""

    TABLE = ZERO_TABLE

    @settings(max_examples=200, deadline=None)
    @given(planted_matrices())
    def test_same_kernel_and_rank_as_raw_rows(self, case):
        ncols, rows = case
        # row i is component i of one tag at one packed key, each entry a
        # symbol of its own used by one column, so the builder meets the
        # rows in their natural order
        key = self.TABLE.zero
        symbols, uses = {}, {}
        for i, row in enumerate(rows):
            for col, c in row.items():
                symbols[(i, col)] = [("T", i, LaurentPoly(self.TABLE, {key: c}))]
                uses[(i, col)] = {1: [(col, 0)]}
        builder = SystemBuilder(ncols)
        builder.add(symbols, uses)
        kernel, system = builder.kernel()
        ref = LinearSystem()
        ref.register_columns(range(ncols))
        for row in rows:
            if row:
                ref.add_row(row)
        assert kernel == ref.kernel()
        assert system.rank() == ref.rank()
        assert system.nrows <= ref.nrows

    @settings(max_examples=200, deadline=None)
    @given(part_equations())
    def test_rows_reach_the_system_as_by_the_plain_route(self, case):
        # the scatter runs fewest parts first, which settles more columns
        # before the many-part equations; `LinearSystem` still gets the rows
        # of the sorted, unskipped scatter, in their order and key order
        ncols, eqs = case
        symbols, uses = {}, {}
        for key, parts in eqs.items():
            for j, (p, used) in enumerate(parts):
                symbols[(key, j)] = [(*key, p)]
                uses[(key, j)] = used
        builder = SystemBuilder(ncols)
        builder.add(symbols, uses)
        with recorded_rows() as rows:
            builder.kernel()
        assert rows == [list(row.items()) for row in _plain_rows(eqs)]

    def test_second_kernel_call_raises(self):
        builder = SystemBuilder(1)
        builder.add({"s": [("T", 0, LaurentPoly.const(self.TABLE, 1))]}, {"s": {1: [(0, 0)]}})
        kernel, _ = builder.kernel()
        assert kernel == []
        with pytest.raises(RuntimeError, match="already consumed"):
            builder.kernel()


# The number of rows and the sha256 over repr(list(row.items())) of every
# `LinearSystem.add_row` call, in call order, of stabilized `cli._verify_one`
# on every `MODEL_NS` model and `verify.metric_battery("submax-metric", 3)`.
# Recorded at commit 6eb4b4f, before the scatter skipped settled columns,
# with the same digest under PYTHONHASHSEED=0 and =1, by
#   cd tests && PYTHONPATH=../src python -c \
#     "import test_symsolve as t; print(t.row_digest())"
ROW_PIN = (26151, "cd65fdd21942634a7d136bfe4071ed99b99a1882d704ed74214d7dfff0eb7e7d")


def row_digest():
    with recorded_rows() as rows:
        for name, n in CATALOG:
            cli._verify_one(name, n, False)
        verify.metric_battery("submax-metric", 3)
    return len(rows), hashlib.sha256("".join(map(repr, rows)).encode()).hexdigest()


def test_row_pin():
    # the builder hands `LinearSystem` the same rows, in the same order and
    # with the same key order, as before the scatter skipped settled columns
    assert row_digest() == ROW_PIN


COEFFICIENTS = (1, -1, 2, Fraction(1, 2), Fraction(-1, 2), Fraction(-2, 3))
SYMBOL_TAGS = ("A", "B")


@st.composite
def symbol_tables(draw):
    """(chart, columns, symbols): a chart in x, y with or without the
    declared denominator D = 1 + x^2, the columns of a small total-degree
    ansatz in one or two directions, and a table key -> (comps dict per
    tag) for the symbol keys (a,), (a, l) and,
    unless the operator stops at first order, (a, l, k).  Symbols are
    sparse, of one or two terms from four monomials, with coefficients that
    often cancel, and each carries its own denominator multiplicity on the
    denominator chart, so that columns often share monomials and one
    equation alone has a kernel."""
    denominators = {"D": {(0, 0): 1, (2, 0): 1}} if draw(st.booleans()) else None
    chart = Chart(["x", "y"], denominators=denominators)
    table = chart.table
    monomial = st.tuples(st.integers(0, 1), st.integers(0, 1))
    den = st.tuples(st.integers(0, 2)) if denominators else st.just(())
    poly = st.builds(
        lambda terms, d: LaurentPoly(table, {pack(e): c for e, c in terms.items()}, d),
        st.dictionaries(monomial, st.sampled_from(COEFFICIENTS), min_size=1, max_size=2),
        den,
    )
    comps = st.dictionaries(st.integers(0, 1), poly, max_size=1)
    directions = range(draw(st.integers(1, 2)))
    keys = [(a,) for a in directions] + [(a, l) for a in directions for l in range(2)]
    if draw(st.booleans()):
        keys += [(a, l, k) for a in directions for l in range(2) for k in range(2)]
    symbols = {key: tuple(draw(comps) for _ in SYMBOL_TAGS) for key in keys}
    columns = AnsatzSpace(chart, total_degree=draw(st.integers(1, 3))).columns(directions)
    return chart, columns, symbols


def _table_operator(symbols):
    """The `_column_operator` of a `symbol_tables` table."""
    return _column_operator(
        SYMBOL_TAGS,
        lambda a: symbols[(a,)],
        lambda a, l: symbols[(a, l)],
        (lambda a, l, k: symbols[(a, l, k)]) if (0, 0, 0) in symbols else None,
    )


def _column_major_rows(chart, columns, symbols):
    """{(tag, comp): rows} of the operator given by `symbols`, assembled
    naively: each column's value per (tag, comp) as a LaurentPoly, then each
    equation multiplied by D^M, M the largest multiplicity among its
    columns' reduced values, and split into one row per monomial."""
    table = chart.table
    second = any(len(key) == 3 for key in symbols)
    eqs = {}  # (tag, comp) -> {col: LaurentPoly}
    for col, (exps, a) in enumerate(columns):
        terms = [((), exps, 1)]
        for l, el in enumerate(exps):
            if el:
                low = tuple(e - (i == l) for i, e in enumerate(exps))
                terms.append(((l,), low, el))
                for k, ek in enumerate(low):
                    if second and ek:
                        lower = tuple(e - (i == k) for i, e in enumerate(low))
                        terms.append(((l, k), lower, el * ek))
        for suffix, e, scale in terms:
            mono = LaurentPoly(table, {pack(e): scale})
            for tag, comps in zip(SYMBOL_TAGS, symbols[(a, *suffix)]):
                for comp, p in comps.items():
                    accumulate(eqs.setdefault((tag, comp), {}), col, mono * p)
    out = {}
    for key in sorted(eqs):
        polys = eqs[key]
        top = tuple(map(max, zip(*(p.den for p in polys.values()))))
        by_monomial = {}
        for col, p in polys.items():
            num = LaurentPoly(table, p.terms, q=p.q)
            for k, m in enumerate(top):
                for _ in range(m - p.den[k]):
                    num = num * table.denominator_poly(k)
            for e, c in num.rational_terms().items():
                by_monomial.setdefault(e, {})[col] = c
        out[key] = [by_monomial[e] for e in sorted(by_monomial)]
    return out


class TestEquationMajorAssembly:
    """`SystemBuilder` fed an operator's symbols and uses against a plain
    `LinearSystem` fed the same operator assembled column by column: the
    whole system, and each equation (tag, comp) alone, whose kernel is
    large enough to show a wrong scale, shift, sum or denominator."""

    @staticmethod
    def _reference(ncols, rows):
        ref = LinearSystem()
        ref.register_columns(range(ncols))
        for row in rows:
            ref.add_row(row)
        return ref

    @settings(max_examples=150, deadline=None)
    @given(symbol_tables())
    def test_same_kernel_and_rank_as_column_major(self, case):
        chart, columns, symbols = case
        ncols = len(columns)
        got, uses = _table_operator(symbols)(columns)
        naive = _column_major_rows(chart, columns, symbols)
        equations = {(tag, comp) for parts in got.values() for tag, comp, *_ in parts}
        for eq in [None, *sorted(equations)]:  # None: the whole system
            builder = SystemBuilder(ncols)
            builder.add(
                {key: [p for p in parts if eq in (None, p[:2])] for key, parts in got.items()},
                uses,
            )
            kernel, system = builder.kernel()
            rows = [r for key, rs in naive.items() if eq in (None, key) for r in rs]
            ref = self._reference(ncols, rows)
            assert kernel == ref.kernel(), eq
            assert system.rank() == ref.rank(), eq

    @settings(
        max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(symbol_tables(), st.data())
    def test_sub_list_gives_each_column_its_value(self, canonical, case, data):
        # a graded solve applies one operator to blocks of a solve's columns;
        # a column keeps its value in any sub-list, in any order, at its
        # place in that list
        chart, columns, symbols = case
        operator = _table_operator(symbols)
        full = operator(columns)
        picked = data.draw(st.lists(st.sampled_from(range(len(columns))), min_size=1, unique=True))
        sub = operator([columns[c] for c in picked])
        used = {c for by_scale in sub[1].values() for cols in by_scale.values() for c, _ in cols}
        assert used <= set(range(len(picked)))
        for i, c in enumerate(picked):
            got = canonical(chart.table, sub, i, SYMBOL_TAGS)
            assert got == canonical(chart.table, full, c, SYMBOL_TAGS), (i, columns[c])

    def test_column_that_cancels_stays_free(self):
        # on x d_x, x^1 S0 + 1 * S1 = x - x: the column's only raw row holds
        # one entry whose terms sum to zero, which must not mark it as zero
        chart = Chart(["x"])
        x = chart.var("x")
        symbols = {(0,): ({0: chart.const(1)},), (0, 0): ({0: -x},)}
        operator = _column_operator(("A",), lambda a: symbols[(a,)], lambda a, l: symbols[(a, l)])
        columns = AnsatzSpace(chart, total_degree=1).columns([0])
        builder = SystemBuilder(2)
        builder.add(*operator(columns))
        kernel, system = builder.kernel()
        assert kernel == [{1: 1}] and system.rank() == 1


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

    def test_closure_fails_on_a_field_whose_bracket_leaves_the_span(self):
        # x1^3 d_x1 is independent of the type2 kernel, so only a bracket
        # can fail "kernel closed under bracket"
        spec = builtin("type2", 2)
        res = cproj_system(spec, model_ansatz(spec), stabilize=False)
        x1 = spec.chart.var("x1")
        assert check_bracket_closure(spec.chart, res.basis)
        assert not check_bracket_closure(spec.chart, res.basis + [{0: x1 * x1 * x1}])


class TestVerification:
    def test_all_kernel_fields_satisfy_equations(self):
        spec = builtin("type3", 3)
        res = cproj_system(spec, model_ansatz(spec), stabilize=False)
        assert res.verified

    def test_printed_fields_individually(self):
        spec = builtin("type2", 3)
        for label, f in expected_symmetries(spec):
            assert all(t.is_zero() for _, t in cproj_equations(spec, [f])[0]), label

    def test_cp_check_does_not_run_cp_projection(self, monkeypatch):
        # `cproj_equations` writes CP on `contract`, so the check of the
        # kernel fields runs with the symbols' CP map made to raise
        spec = builtin("type2", 2)
        basis, _ = solve_field_system(spec, cproj_operator(spec), model_ansatz(spec))

        def boom(*args):
            raise AssertionError("the re-verification ran cp_projection")

        monkeypatch.setattr("cprojver.symsolve.cp_projection", boom)
        monkeypatch.setattr("cprojver.symsolve._trace_correction", boom)
        assert len(basis) == 8 and verify_fields(partial(cproj_equations, spec), basis)

    @staticmethod
    def _corrupted(chart, fields, at):
        """`fields` with x^3 d_0 added to the entries at the positions `at`,
        x the chart's first coordinate: none of them stays a symmetry."""
        x = chart.var(chart.table.names[0])
        out = []
        for k, f in enumerate(fields):
            if k in at:
                f = {**f, 0: f.get(0, chart.zero()) + x * x * x}
            out.append(f)
        return out

    @pytest.mark.parametrize("kind", ["cproj", "affine", "killing", "homothety"])
    def test_one_corrupted_field_in_a_batch_fails(self, kind, submax2):
        # the equations take the whole list in one call, so a bad field in
        # the middle of it must still fail the batch
        if kind == "cproj":
            spec = builtin("type2", 2)
            res = cproj_system(spec, model_ansatz(spec), stabilize=False)
            equations = partial(cproj_equations, spec)
        elif kind == "affine":
            spec = builtin("flat", 2)
            res = affine_system(spec, AnsatzSpace(spec.chart, total_degree=1))
            equations = partial(affine_equations, spec)
        else:
            spec = submax2
            system = killing_system if kind == "killing" else homothety_system
            res = system(spec, AnsatzSpace(spec.chart, total_degree=2), stabilize=False)
            equations = partial(killing_equations, spec)
        fields = res.basis
        bad = self._corrupted(spec.chart, fields, {len(fields) // 2})
        if kind == "homothety":
            equations = partial(homothety_equations, spec)
            fields = list(zip(fields, res.extra["scales"]))
            bad = list(zip(bad, res.extra["scales"]))
        assert len(fields) >= 3 and res.verified
        assert verify_fields(equations, fields)
        assert not verify_fields(equations, bad)

    def test_printed_generator_count_names_each_bad_field(self, monkeypatch):
        # the battery checks the printed list in one call and, when that
        # fails, counts the failing generators one by one
        spec = builtin("type2", 2)
        labels, fields = zip(*expected_symmetries(spec))
        bad = list(zip(labels, self._corrupted(spec.chart, fields, {1, len(fields) - 2})))
        monkeypatch.setattr(verify, "expected_symmetries", lambda s: bad)
        [check] = [c for c in verify.symmetry_battery(spec, stabilize=False)
                   if c.check == "every printed generator satisfies the equations"]
        assert (check.expected, check.computed, check.passed) == (0, 2, False)

    def test_span_equality(self):
        spec = builtin("nonminimal", 2)
        res = cproj_system(spec, model_ansatz(spec), stabilize=False)
        fields = [f for _, f in expected_symmetries(spec)]
        assert span_equals(spec.chart, res.basis, fields)

    def test_span_equality_fails_without_one_generator(self):
        # "printed generators span the kernel" fails on a printed list
        # missing one generator, and on one with a non-symmetry in its place
        spec = builtin("nonminimal", 2)
        res = cproj_system(spec, model_ansatz(spec), stabilize=False)
        fields = [f for _, f in expected_symmetries(spec)]
        x1 = spec.chart.var("x1")
        assert not span_equals(spec.chart, res.basis, fields[:-1])
        assert not span_equals(spec.chart, res.basis, fields[:-1] + [{0: x1 * x1 * x1}])


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

    def test_homothety_scales_follow_the_kept_fields(self, submax2):
        # on g = 0 the scale column alone is a kernel vector with no field;
        # it is dropped from the basis, and so must its scale be
        zero = dataclasses.replace(submax2, metric=Tensor(submax2.chart, (0, 2), {}))
        res = homothety_system(zero, AnsatzSpace(zero.chart, total_degree=1), stabilize=False)
        assert res.dim == len(res.basis) == len(res.extra["scales"]) == 12
        assert all(res.basis) and res.verified

    def test_affine_on_type3_n2(self):
        spec = builtin("type3-n2", 2)
        res = affine_system(spec, model_ansatz(spec))
        assert res.dim == 8


class TestPhiMap:
    @pytest.mark.parametrize("n", [2, 3])
    def test_homothety_maps_to_its_closed_form(self, n):
        # L_v g = 2g for the Euler field on the flat metric, so g^{-1} L_v g
        # = 2 Id has trace 4n and phi = 2 Id - 4n/(2(n+1)) Id = 2/(n+1) Id
        spec = builtin("flat", n)
        chart = spec.chart
        euler = {a: chart.var(name) for a, name in enumerate(chart.table.names)}
        want = Tensor(chart, (1, 1), {(i, i): chart.const(Fraction(2, n + 1))
                                      for i in range(chart.dim)})
        assert phi_map(euler, spec.metric, spec.metric_inverse) == want

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
