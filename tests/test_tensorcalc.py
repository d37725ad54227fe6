"""Chart tensor calculus: expansions, projections, frames, Lie derivatives."""

import hashlib
import itertools
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cprojver.catalog import builtin
from cprojver.cli import MODEL_NS
from cprojver.parse import parse_poly
from cprojver.poly import LaurentPoly, ProductSum, accumulate, pack, unpack
from cprojver.symsolve import bracket_fields
from cprojver import tensorcalc as tc
from cprojver.tensorcalc import (
    Chart,
    Tensor,
    contract,
    curvature,
    curvature_bidegree,
    complex_tensor_to_real,
    complex_table,
    invert_matrix_ring,
    is_almost_complex,
    lie_derivative_J,
    lie_derivative_connection,
    nijenhuis,
    partials,
    standard_J,
    torsion,
    torsion_projection,
    traceless_mixed_torsion,
)


def frame_roundtrip_check(chart, frame_cols, omega, gamma: Tensor):
    """Recompute nabla e_i in the frame from the coordinate Christoffels."""
    d = chart.dim
    names = chart.table.names
    A = [[frame_cols[i].get(r, chart.zero()) for i in range(d)] for r in range(d)]
    B = invert_matrix_ring(A, chart)
    for i in range(d):
        for a in range(d):
            # nabla_{d_a} e_i = sum_c [ d_a A^c_i + Gamma^c_{a b} A^b_i ] d_c
            for c in range(d):
                tot = A[c][i].derivative(names[a])
                for b in range(d):
                    g = gamma.comps.get((c, a, b))
                    if g is not None:
                        tot = tot + g * A[b][i]
                # expected: sum_j omega^j_i(d_a) A^c_j
                exp = chart.zero()
                for (j, i2, k), w in omega.items():
                    if i2 != i:
                        continue
                    exp = exp + A[c][j] * w * B[k][a]
                if not (tot - exp).is_zero():
                    return False
    return True


def chart4():
    return Chart(["x1", "x2", "x3", "x4"])


class TestAlmostComplex:
    def test_standard_J_squares_to_minus_id(self):
        assert is_almost_complex(standard_J(chart4()))

    def test_standard_J_integrable(self):
        assert nijenhuis(standard_J(chart4())).is_zero()

    def test_catalog_models_J(self):
        for name, n in [("type3", 3), ("type3-n2", 2)]:
            spec = builtin(name, n)
            assert is_almost_complex(spec.J)

    def test_type3_real_J_matches_printed_expansion(self):
        # J d1 = d2 + x3 d5 - x4 d6 ; J d2 = -d1 - x4 d5 - x3 d6
        spec = builtin("type3", 3)
        t = spec.chart.table
        x3, x4 = spec.chart.var("x3"), spec.chart.var("x4")
        assert spec.J.get(1, 0) == spec.chart.const(1)
        assert spec.J.get(4, 0) == x3
        assert spec.J.get(5, 0) == -x4
        assert spec.J.get(0, 1) == spec.chart.const(-1)
        assert spec.J.get(4, 1) == -x4
        assert spec.J.get(5, 1) == -x3


class TestRealExpansion:
    def test_type1_real_christoffels_match_printed(self):
        spec = builtin("type1", 3)
        c = spec.chart
        x3, x4 = c.var("x3"), c.var("x4")
        G = spec.gamma
        # printed: G^1_{35} = G^2_{36} = G^2_{45} = -G^1_{46} = x3 (1-based)
        assert G.get(0, 2, 4) == x3
        assert G.get(1, 2, 5) == x3
        assert G.get(1, 3, 4) == x3
        assert G.get(0, 3, 5) == -x3
        # printed: G^2_{35} = -G^1_{36} = -G^1_{45} = -G^2_{46} = x4
        assert G.get(1, 2, 4) == x4
        assert G.get(0, 2, 5) == -x4
        assert G.get(0, 3, 4) == -x4
        assert G.get(1, 3, 5) == -x4
        # symmetric connection
        for (i, j, k), p in G.comps.items():
            assert G.get(i, k, j) == p

    def test_type3_real_christoffels_match_printed(self):
        spec = builtin("type3", 3)
        G = spec.gamma
        mh = spec.chart.const(Fraction(-1, 2))
        # printed: G^6_{31} = G^5_{32} = G^5_{41} = -G^6_{42} = -1/2
        assert G.get(5, 2, 0) == mh
        assert G.get(4, 2, 1) == mh
        assert G.get(4, 3, 0) == mh
        assert G.get(5, 3, 1) == -mh
        # and the transposed orders vanish
        for key in [(5, 0, 2), (4, 1, 2), (4, 0, 3), (5, 1, 3)]:
            assert G.get(*key).is_zero()


# A chart whose first complex coordinate carries |z1|^2 as a declared
# denominator, so z1 and zb1 may take negative powers.
ZCHART = Chart(
    ["x1", "x2", "x3", "x4"], denominators={"Q1": {(2, 0, 0, 0): 1, (0, 2, 0, 0): 1}}
)
ZTAB = complex_table(2, laurent_z=(0,))
_SMALL_Q = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def complex_poly(draw):
    """A poly over ZTAB (z1, z2, zb1, zb2, I) with powers of I and negative
    powers of z1 and zb1."""
    exps = st.tuples(
        st.integers(-2, 2), st.integers(0, 2), st.integers(-2, 2), st.integers(0, 2),
        st.integers(0, 5),
    )
    terms = draw(st.dictionaries(exps, _SMALL_Q, max_size=4))
    return LaurentPoly(ZTAB, {pack(e): c for e, c in terms.items()})


def _gauss_times(u, v):
    return u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0]


def _gauss_over(u, v):
    """u / v = u conj(v) / |v|^2."""
    n = v[0] * v[0] + v[1] * v[1]
    re, im = _gauss_times(u, (v[0], -v[1]))
    return Fraction(re) / n, Fraction(im) / n


def gauss_value(p, point):
    """p at {name: (re, im)}, by exact Gaussian arithmetic on pairs alone."""
    acc = (0, 0)
    for exps, c in p.monomials():
        t = (c, 0)
        for name, e in zip(p.table.names, exps):
            for _ in range(abs(e)):
                t = _gauss_times(t, point[name]) if e > 0 else _gauss_over(t, point[name])
        acc = (acc[0] + t[0], acc[1] + t[1])
    return acc


def _swap_bars(p: LaurentPoly) -> LaurentPoly:
    """The conjugate polynomial: z <-> zb and I -> -I."""
    nv = p.table.nvars()
    n = (nv - 1) // 2
    out = {}
    for key, c in p.terms.items():
        exps = unpack(key, nv)
        out[pack(exps[n : 2 * n] + exps[:n] + exps[2 * n :])] = -c if exps[2 * n] % 2 else c
    return LaurentPoly(p.table, out, p.den, p.q)


def _real_poly_from_complex(p: LaurentPoly, chart: Chart):
    """(real part, imaginary part) of p under z_a -> x_{2a} + i x_{2a+1},
    zb_a -> its conjugate and I -> i, a quarter turn per power of I.
    Negative exponents become conjugate powers over the declared denominator
    x_{2a}^2 + x_{2a+1}^2."""
    re = im = chart.zero()
    for den, terms in tc._gaussian_expansion(chart)(p).items():
        re += LaurentPoly(chart.table, {k: g[0] for k, g in terms.items()}, den, p.q)
        im += LaurentPoly(chart.table, {k: g[1] for k, g in terms.items()}, den, p.q)
    return re, im


class TestComplexRealification:
    """The one place that reads I^2 = -1 against plain Gaussian evaluation."""

    @settings(max_examples=200, deadline=None)
    @given(complex_poly(), st.tuples(*[_SMALL_Q] * 4))
    def test_pair_matches_gaussian_evaluation(self, p, xs):
        assume(xs[0] or xs[1])
        pt = dict(zip(ZCHART.table.names, xs))
        z1, z2 = (xs[0], xs[1]), (xs[2], xs[3])
        zb1, zb2 = (xs[0], -xs[1]), (xs[2], -xs[3])
        want = gauss_value(p, {"z1": z1, "z2": z2, "zb1": zb1, "zb2": zb2, "I": (0, 1)})
        re, im = _real_poly_from_complex(p, ZCHART)
        assert (re.evaluate(pt), im.evaluate(pt)) == want
        # the conjugate polynomial realifies to the conjugate value
        cre, cim = _real_poly_from_complex(_swap_bars(p), ZCHART)
        assert (cre.evaluate(pt), cim.evaluate(pt)) == (want[0], -want[1])


_HALF = Fraction(1, 2)
_VALENCES = [(1, 0), (1, 1), (0, 2), (1, 2)]


def complex_comps(valence):
    """{complex index tuple: complex_poly} for a tensor of `valence` on ZCHART."""
    idx = st.tuples(*[st.integers(0, 3)] * sum(valence))
    return st.dictionaries(idx, complex_poly(), max_size=3)


def slot_factors(valence, idx):
    """{real index tuple: Gaussian coefficient}: a vector slot is
    1/2 (d_x - i d_y), barred 1/2 (d_x + i d_y); a form slot is dx + i dy,
    barred dx - i dy."""
    out = {(): (1, 0)}
    for pos, a in enumerate(idx):
        sign = 1 if a >= 2 else -1
        base = 2 * (a % 2)
        if pos < valence[0]:
            pair = ((base, (_HALF, 0)), (base + 1, (0, sign * _HALF)))
        else:
            pair = ((base, (1, 0)), (base + 1, (0, -sign)))
        out = {r + (b,): _gauss_times(g, c) for r, g in out.items() for b, c in pair}
    return out


def gauss_tensor(valence, comps, xs):
    """{real index tuple: Gaussian value} of the complex tensor `comps` at the
    real point xs, from the slot rule and Gaussian evaluation alone."""
    z1, z2 = (xs[0], xs[1]), (xs[2], xs[3])
    point = {"z1": z1, "z2": z2, "zb1": (z1[0], -z1[1]), "zb2": (z2[0], -z2[1]), "I": (0, 1)}
    out = {r: (0, 0) for r in itertools.product(range(4), repeat=sum(valence))}
    for idx, p in comps.items():
        value = gauss_value(p, point)
        for r, g in slot_factors(valence, idx).items():
            v = _gauss_times(g, value)
            out[r] = (out[r][0] + v[0], out[r][1] + v[1])
    return out


class TestComplexTensorToReal:
    """complex_tensor_to_real against the slot rule on Gaussian values."""

    @settings(max_examples=120, deadline=None)
    @given(st.data(), st.tuples(*[_SMALL_Q] * 4))
    def test_components_match_gaussian_evaluation(self, data, xs):
        assume(xs[0] or xs[1])
        valence = data.draw(st.sampled_from(_VALENCES))
        comps = data.draw(complex_comps(valence))
        pt = dict(zip(ZCHART.table.names, xs))
        # S + conj(S): twice the real part of S's values
        real = complex_tensor_to_real(ZCHART, valence, comps)
        for r, (re, _) in gauss_tensor(valence, comps, xs).items():
            assert real.get(*r).evaluate(pt) == 2 * re


# sha256 over format_poly of every ingested component (J, Gamma, metric,
# golden tensors) and every printed-generator field of each built-in model
# at n = 2..4, with the number of lines hashed.  Recorded at commit f7f9871,
# before the binomial expansion, with
#   cd tests && PYTHONPATH=../src python -c \
#     "import test_tensorcalc as t; print(t.ingestion_digest())"
INGESTION_PIN = (1124, "82df05f888e5fa455ad15266cacd11e43772405444ae52632501dc855e818a09")


def ingestion_digest():
    from cprojver.catalog import MODEL_NAMES, ManifestError, expected_symmetries
    from cprojver.parse import format_poly

    lines = []
    for name in MODEL_NAMES:
        for n in (2, 3, 4):
            try:
                spec = builtin(name, n)
            except ManifestError:  # n outside the model's nrange
                continue
            tensors = [("J", spec.J), ("gamma", spec.gamma), ("metric", spec.metric)]
            tensors += [(k, t) for k, (t, _) in sorted(spec.golden.items())]
            for label, t in tensors:
                if t is not None:
                    lines += [f"{name} {n} {label} {k} {format_poly(t.comps[k])}"
                              for k in sorted(t.comps)]
            try:
                fields = expected_symmetries(spec)
            except KeyError:  # no printed generator list
                continue
            for label, f in fields:
                lines += [f"{name} {n} {label} {r} {format_poly(f[r])}" for r in sorted(f)]
    digest = hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()
    return len(lines), digest


def test_ingestion_pin():
    assert ingestion_digest() == INGESTION_PIN


def apply_J_value(J: Tensor, T: Tensor) -> Tensor:
    """(J T)(X, Y) on the value slot of a (1,2)-tensor."""
    return Tensor(T.chart, (1, 2), contract("ajk,ia->ijk", T, J))


def pull_J_slot(T: Tensor, J: Tensor, slot) -> Tensor:
    """T(JX, Y) (slot=1) or T(X, JY) (slot=2) for a (1,2)-tensor."""
    spec = "ijk,jb->ibk" if slot == 1 else "ijk,kb->ijb"
    return Tensor(T.chart, (1, 2), contract(spec, T, J))


class TestTorsionProjections:
    @pytest.fixture()
    def nonmin(self):
        spec = builtin("nonminimal", 2)
        return spec, torsion(spec.gamma)

    def test_completeness(self, nonmin):
        spec, T = nonmin
        total = None
        for e1 in (1, -1):
            for e2 in (1, -1):
                p = torsion_projection(T, spec.J, e1, e2)
                total = p if total is None else total + p
        assert (total - T).is_zero()

    def test_idempotent_and_orthogonal(self, nonmin):
        spec, T = nonmin
        parts = {
            (e1, e2): torsion_projection(T, spec.J, e1, e2)
            for e1 in (1, -1)
            for e2 in (1, -1)
        }
        for key, p in parts.items():
            again = torsion_projection(p, spec.J, *key)
            assert (again - p).is_zero()
            for other in parts:
                if other != key:
                    cross = torsion_projection(p, spec.J, *other)
                    assert cross.is_zero()

    def test_linearity_identity(self, nonmin):
        # P(JX, Y) = e1 J P(X, Y) componentwise
        spec, T = nonmin
        for e1 in (1, -1):
            for e2 in (1, -1):
                P = torsion_projection(T, spec.J, e1, e2)
                lhs = pull_J_slot(P, spec.J, 1)
                rhs = apply_J_value(spec.J, P).scale(e1)
                assert (lhs - rhs).is_zero()

    def test_minimality_flags_across_catalog(self):
        for name, n, minimal in [
            ("type1", 3, True),
            ("type2", 2, True),
            ("type3", 3, True),
            ("type3-n2", 2, True),
            ("nonminimal", 2, False),
        ]:
            spec = builtin(name, n)
            T = torsion(spec.gamma)
            mm = torsion_projection(T, spec.J, -1, -1)
            assert (T - mm).is_zero() == minimal

    def test_projection_identities_on_random_tensors(self):
        # defining (anti)linearity on pseudo-random (1,2)-tensors, not just
        # the catalog ones
        import random

        from cprojver.poly import LaurentPoly

        rng = random.Random(11)
        chart = chart4()
        J = standard_J(chart)
        for _ in range(5):
            comps = {}
            for _ in range(6):
                key = (rng.randrange(4), rng.randrange(4), rng.randrange(4))
                c = rng.randrange(-5, 6)
                if not c:
                    continue
                e = [0, 0, 0, 0]
                e[rng.randrange(4)] = rng.randrange(3)
                p = LaurentPoly(chart.table, {pack(e): c})
                comps[key] = comps.get(key, chart.zero()) + p
            T = Tensor(chart, (1, 2), comps)
            total = None
            for e1 in (1, -1):
                for e2 in (1, -1):
                    P = torsion_projection(T, J, e1, e2)
                    lhs = pull_J_slot(P, J, 1)
                    assert (lhs - apply_J_value(J, P).scale(e1)).is_zero()
                    lhs2 = pull_J_slot(P, J, 2)
                    assert (lhs2 - apply_J_value(J, P).scale(e2)).is_zero()
                    total = P if total is None else total + P
            assert (total - T).is_zero()

    def test_pure_trace_tensor_has_no_traceless_part(self):
        # A(X,Y) = phi(X) Y + phi(JX) JY with phi = dx1
        chart = chart4()
        J = standard_J(chart)
        comps = {}
        one = chart.const(1)
        for k in range(4):
            comps[(k, 0, k)] = one  # phi(X) Y with phi = dx1
        for (i, k), q in J.comps.items():
            for (a, j), p in J.comps.items():
                if a != 0:
                    continue
                key = (i, j, k)
                cur = comps.get(key, chart.zero())
                comps[key] = cur + p * q
        A = Tensor(chart, (1, 2), comps)
        assert traceless_mixed_torsion(A, J).is_zero()


class TestCurvature:
    def test_flat(self):
        spec = builtin("flat", 2)
        assert curvature(spec.gamma).is_zero()
        assert torsion(spec.gamma).is_zero()

    def test_bidegree_parts_sum(self):
        spec = builtin("type2", 3)
        R = curvature(spec.gamma)
        bid = curvature_bidegree(R, spec.J)
        assert (bid["(1,1)"] + bid["(2,0)+(0,2)"] - R).is_zero()

    def test_type1_n2_typing(self):
        spec = builtin("type1-n2", 2)
        R = curvature(spec.gamma)
        assert not R.is_zero()
        bid = curvature_bidegree(R, spec.J)
        assert bid["(1,1)"].is_zero()

    @pytest.mark.parametrize("name,n", [("type1", 3), ("type2", 2), ("type3-n2", 2)])
    def test_bidegree_parts_satisfy_their_invariance(self, name, n):
        # the (1,1)-part is invariant, the rest anti-invariant, under pulling
        # the complex structure through both form slots
        spec = builtin(name, n)
        R = curvature(spec.gamma)
        bid = curvature_bidegree(R, spec.J)
        p11, p20 = bid["(1,1)"], bid["(2,0)+(0,2)"]
        assert (tc.curvature_J_pulled(p11, spec.J) - p11).is_zero()
        assert (tc.curvature_J_pulled(p20, spec.J) + p20).is_zero()


class TestLieDerivative:
    def test_translation_of_constant_connection(self):
        spec = builtin("type3", 3)  # Christoffels constant in x1
        v = {0: spec.chart.const(1)}
        assert lie_derivative_connection([v], spec.gamma)[0].is_zero()

    def test_linear_field_on_flat(self):
        spec = builtin("flat", 2)
        v = {0: spec.chart.var("x1")}
        assert lie_derivative_connection([v], spec.gamma)[0].is_zero()

    def test_quadratic_field_on_flat_is_not_affine(self):
        spec = builtin("flat", 2)
        v = {0: spec.chart.var("x1") * spec.chart.var("x1")}
        assert not lie_derivative_connection([v], spec.gamma)[0].is_zero()


CATALOG = [(name, n) for name, ns in MODEL_NS.items() for n in ns]


@cache
def catalog_J(name, n):
    return builtin(name, n).J


@st.composite
def polynomial_fields(draw, chart):
    """A random nonzero polynomial field on `chart`, with negative exponents
    on its laurent variables."""
    table = chart.table
    exps = st.tuples(*[st.integers(-1 if lau else 0, 2) for lau in table.laurent])
    coeff = st.integers(-3, 3).filter(bool)
    v = {}
    for a in draw(st.sets(st.integers(0, chart.dim - 1), min_size=1, max_size=3)):
        terms = draw(st.dictionaries(exps, coeff, min_size=1, max_size=3))
        v[a] = LaurentPoly(table, {pack(e): c for e, c in terms.items()})
    return v


def lie_J_by_brackets(v, J):
    """(L_v J)(d_j) = [v, J d_j] - J [v, d_j], from vector-field brackets
    and J applied to fields, as {(i, j): poly}."""
    chart = J.chart

    def apply_J(w):
        out = {}
        for (i, a), q in J.comps.items():
            if a in w:
                accumulate(out, i, q * w[a])
        return out

    out = {}
    for j in range(chart.dim):
        Jdj = {i: q for (i, a), q in J.comps.items() if a == j}
        for i, p in bracket_fields(chart, v, Jdj).items():
            accumulate(out, (i, j), p)
        for i, p in apply_J(bracket_fields(chart, v, {j: chart.const(1)})).items():
            accumulate(out, (i, j), -p)
    return out


class TestLieDerivativeOfJ:
    """`lie_derivative_J` against L_vJ(X) = [v, JX] - J[v, X]."""

    @pytest.mark.parametrize("name,n", CATALOG)
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_equals_bracket_formula(self, name, n, data):
        J = catalog_J(name, n)
        v = data.draw(polynomial_fields(J.chart))
        got = {k: p for k, p in lie_derivative_J([v], J)[0].comps.items() if not p.is_zero()}
        assert got == lie_J_by_brackets(v, J)


@cache
def catalog_gamma(name, n):
    return builtin(name, n).gamma


def nabla(G, X, Y):
    """(nabla_X Y)^i = X^a d_a Y^i + G^i_ab X^a Y^b for fields {index: poly}."""
    names = G.chart.table.names
    out = {}
    for a, p in X.items():
        for i, q in Y.items():
            accumulate(out, i, p * q.derivative(names[a]))
    for (i, a, b), g in G.comps.items():
        if a in X and b in Y:
            accumulate(out, i, g * X[a] * Y[b])
    return out


def lie_gamma_by_brackets(v, G):
    """(L_v nabla)(d_j, d_k) = [v, nabla_j d_k] - nabla_[v, d_j] d_k
    - nabla_j [v, d_k], from vector-field brackets and the connection applied
    to fields, as {(i, j, k): poly}."""
    chart = G.chart
    unit = [{j: chart.const(1)} for j in range(chart.dim)]
    moved = [bracket_fields(chart, v, d) for d in unit]
    out = {}
    for j in range(chart.dim):
        for k in range(chart.dim):
            for i, p in bracket_fields(chart, v, nabla(G, unit[j], unit[k])).items():
                accumulate(out, (i, j, k), p)
            for i, p in nabla(G, moved[j], unit[k]).items():
                accumulate(out, (i, j, k), -p)
            for i, p in nabla(G, unit[j], moved[k]).items():
                accumulate(out, (i, j, k), -p)
    return out


class TestLieDerivativeOfConnection:
    """`lie_derivative_connection` against
    (L_v nabla)(X, Y) = [v, nabla_X Y] - nabla_[v,X] Y - nabla_X [v, Y]."""

    @pytest.mark.parametrize("name,n", CATALOG)
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_equals_bracket_formula(self, name, n, data):
        G = catalog_gamma(name, n)
        v = data.draw(polynomial_fields(G.chart))
        got = {
            k: p for k, p in lie_derivative_connection([v], G)[0].comps.items() if not p.is_zero()
        }
        assert got == lie_gamma_by_brackets(v, G)


class TestFrames:
    def p_chart(self):
        return Chart(["x", "y", "p", "q"], laurent=("p",))

    def frame_cols(self, c):
        one = c.const(1)
        pinv = parse_poly("p^(-1)", c.table)
        return {
            0: {0: one},
            1: {1: one},
            2: {2: one},
            3: {
                3: one,
                0: parse_poly("-3/2*y*p^(-1)", c.table),
                1: parse_poly("-5/2*x*p^(-1)", c.table),
            },
        }

    def test_coframe_duality(self):
        # the inverse frame matrix reproduces the printed dual coframe
        c = self.p_chart()
        cols = self.frame_cols(c)
        A = [[cols[i].get(r, c.zero()) for i in range(4)] for r in range(4)]
        B = invert_matrix_ring(A, c)
        # theta^1 = dx + (3y/2p) dq, theta^2 = dy + (5x/2p) dq
        assert B[0][0] == c.const(1)
        assert B[0][3] == parse_poly("3/2*y*p^(-1)", c.table)
        assert B[1][3] == parse_poly("5/2*x*p^(-1)", c.table)
        assert B[2][2] == c.const(1) and B[3][3] == c.const(1)
        # duality <theta^i, e_j> = delta_ij
        for i in range(4):
            for j in range(4):
                tot = c.zero()
                for r in range(4):
                    tot = tot + B[i][r] * A[r][j]
                assert tot == (c.const(1) if i == j else c.zero())

    def test_frame_roundtrip_on_catalog_model(self):
        # rebuild the frame data and check the coordinate Christoffels
        # reproduce the frame covariant derivatives exactly
        c = self.p_chart()
        cols = self.frame_cols(c)
        omega = {
            (1, 0, 3): parse_poly("1/2*p^(-1)", c.table),
            (0, 2, 0): parse_poly("-p^(-1)", c.table),
            (1, 2, 1): parse_poly("p^(-1)", c.table),
            (2, 2, 2): parse_poly("-p^(-1)", c.table),
            (3, 2, 3): parse_poly("-p^(-1)", c.table),
            (0, 2, 2): parse_poly("-3/4*x*p^(-2)", c.table),
            (0, 2, 3): parse_poly("-3/4*y*p^(-2)", c.table),
            (1, 2, 2): parse_poly("-3/4*y*p^(-2)", c.table),
            (1, 2, 3): parse_poly("-13/4*x*p^(-2)", c.table),
        }
        jf = {
            (1, 0): c.const(1),
            (0, 1): c.const(-1),
            (3, 2): c.const(1),
            (2, 3): c.const(-1),
        }
        # complete columns 1 and 3 by J-linearity
        for src, dst in ((0, 1), (2, 3)):
            for (j, i, k), w in list(omega.items()):
                if i != src:
                    continue
                for (m, j2), jw in jf.items():
                    if j2 == j:
                        key = (m, dst, k)
                        omega[key] = omega.get(key, c.zero()) + w * jw
        gamma, J = tc.frame_to_coordinates(c, cols, omega, jf)
        assert is_almost_complex(J)
        assert frame_roundtrip_check(c, cols, omega, gamma)
        assert tc.covariant_derivative_J(gamma, J).is_zero()


# -- sparse contraction against a dense reference ------------------------------

RANGE = 3  # index values 0..2
XY = Chart(["x", "y"], laurent=["y"])
# a declared denominator D = x^2/2 + 1 (int numerators x^2 + 2 over 2): drawn
# values carry rational coefficients and a power of D, so one output
# component of a contraction sums products over several (den, q) pairs
XD = Chart(["x", "y"], laurent=["y"], denominators={"D": {(2, 0): Fraction(1, 2), (0, 0): 1}})


@st.composite
def small_laurent(draw, chart=XY):
    coeff = st.integers(-3, 3).filter(bool)
    if chart.table.den_names:
        coeff = st.fractions(-3, 3, max_denominator=4).filter(bool)
    terms = draw(st.dictionaries(
        st.tuples(st.integers(0, 2), st.integers(-2, 2)),
        coeff,
        min_size=1,
        max_size=3,
    ))
    den = [draw(st.integers(0, 2)) for _ in chart.table.den_names]
    return LaurentPoly(chart.table, {pack(e): c for e, c in terms.items()}, den)


def sparse_comps(rank, chart=XY):
    key = st.tuples(*[st.integers(0, RANGE - 1)] * rank)
    return st.dictionaries(key, small_laurent(chart), max_size=6)


def vector_fields(chart):
    return st.dictionaries(st.integers(0, chart.dim - 1), small_laurent(chart), max_size=2)


def slot_terms(comps, up, v, chart):
    """The terms of L_v T besides v^a d_a T, written out slot by slot:
    -T^(..a..) d_a v^i on each upper slot, +T_(..i..) d_a v^i on each lower
    slot, for T with `up` upper slots."""
    names = chart.table.names
    out = {}
    for key, p in comps.items():
        for s, idx in enumerate(key):
            for i, q in v.items():
                for a, name in enumerate(names):
                    if s < up and idx == a:
                        accumulate(out, (*key[:s], i, *key[s + 1:]), -(p * q.derivative(name)))
                    elif s >= up and idx == i:
                        accumulate(out, (*key[:s], a, *key[s + 1:]), p * q.derivative(name))
    return out


def dense_contract(spec, *operands, chart=XY):
    """Sum over every assignment of every letter, written out in full."""
    inputs, output = spec.split("->")
    inputs = inputs.split(",")
    letters = sorted(set("".join(inputs)))
    out = {}
    for values in itertools.product(range(RANGE), repeat=len(letters)):
        idx = dict(zip(letters, values))
        term = chart.const(1)
        for word, comps in zip(inputs, operands):
            p = comps.get(tuple(idx[c] for c in word))
            if p is None:
                break
            term = term * p
        else:
            key = tuple(idx[c] for c in output)
            out[key] = out.get(key, chart.zero()) + term
    return {k: p for k, p in out.items() if not p.is_zero()}


SPECS = (
    "ia,aj->ij",         # two operands
    "ijkl,ka,lb->ijab",  # three operands, two joins
    "ab,ac,ad->bcd",     # one letter shared by all three
    "ijk,kl->lji",       # permuted output
    "iji->j",            # diagonal of one operand
)


class TestContract:
    @pytest.mark.parametrize("chart,spec", [pytest.param(XY, s, id=s) for s in SPECS]
                             + [pytest.param(XD, s, id=f"XD-{s}") for s in SPECS])
    @settings(max_examples=32, deadline=None)  # 10 x 32 + 80 below = 400 cases
    @given(data=st.data())
    def test_matches_dense_sum(self, chart, spec, data):
        words = spec.split("->")[0].split(",")
        ops = [data.draw(sparse_comps(len(w), chart)) for w in words]
        first = Tensor(chart, (len(words[0]), 0), ops[0])
        assert contract(spec, first, *ops[1:]) == dense_contract(spec, *ops, chart=chart)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_partials_and_along_match_derivative(self, data):
        chart = data.draw(st.sampled_from([XY, XD]))
        comps = data.draw(sparse_comps(2, chart))
        fields = data.draw(st.lists(vector_fields(chart), min_size=1, max_size=3))
        names = chart.table.names
        want = {}
        for key, p in comps.items():
            for c, name in enumerate(names):
                if not p.derivative(name).is_zero():
                    want[(c,) + key] = p.derivative(name)
        assert partials(comps, chart) == want
        # the transport term v^a d_a T of L_v T, for T of valence (1,1) and
        # (0,2): L_v T less its slot terms
        for lie, up in ((lie_derivative_J, 1), (tc.lie_derivative_metric, 0)):
            T = Tensor(chart, (up, 2 - up), comps)
            for v, got in zip(fields, lie(fields, T), strict=True):
                slots = slot_terms(comps, up, v, chart)
                for key in set(comps) | set(got.comps) | set(slots):
                    tot = chart.zero()
                    for a, q in v.items():
                        tot = tot + comps.get(key, chart.zero()).derivative(names[a]) * q
                    assert got.get(*key) - slots.get(key, chart.zero()) == tot

    @pytest.mark.parametrize("chart", [XY, XD], ids=["XY", "XD"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_lie_derivatives_of_a_list_are_those_of_each_field(self, chart, data):
        fields = data.draw(st.lists(vector_fields(chart), max_size=4))
        for lie, valence in ((lie_derivative_J, (1, 1)), (tc.lie_derivative_metric, (0, 2)),
                             (lie_derivative_connection, (1, 2))):
            T = Tensor(chart, valence, data.draw(sparse_comps(sum(valence), chart)))
            got = lie(fields, T)
            assert len(got) == len(fields)
            for v, t in zip(fields, got):
                assert t.valence == valence and t == lie([v], T)[0]

    def test_sums_over_several_denominators_and_q(self):
        # one key takes products over den 0, 1 and 2 and over q 1, 2, 3 and
        # 6, in several buckets each; the result is their exact sum
        x, d = XD.var("x"), XD.table.denominator_poly(0)
        a = x + Fraction(1, 3)
        b = LaurentPoly(XD.table, {pack((1, -1)): Fraction(3, 2)}, (1,))
        c = LaurentPoly(XD.table, {pack((0, 1)): 1}, (2,))
        parts = [((a,), 1), ((a, b), 1), ((b, c), Fraction(-2, 3)), ((c,), 5), ((a, b, c), 1),
                 ((b,), Fraction(1, 2)), ((d, b), 1)]
        acc = ProductSum()
        want = XD.zero()
        for factors, scale in parts:
            acc.add((0,), factors, scale)
            prod = XD.const(scale)
            for f in factors:
                prod = prod * f
            want = want + prod
        assert acc.result() == {(0,): want}

    def test_terms_that_cancel_leave_no_component(self):
        x, y = XD.var("x"), XD.var("y")
        b = LaurentPoly(XD.table, {pack((1, -1)): Fraction(3, 2)}, (1,))
        acc = ProductSum()
        acc.add((0,), (x, b))
        acc.add((1,), (y,))
        acc.add((0,), (b, x * Fraction(1, 2)), -2)
        acc.add((1,), (y, y))
        acc.add((1,), (y * y,), -1)
        assert acc.result() == {(1,): y}
        assert contract("ia,ja->ij", {(0, 0): x, (1, 0): x}, {(0, 0): y, (1, 0): -y}) == {
            (0, 0): x * y, (0, 1): -(x * y), (1, 0): x * y, (1, 1): -(x * y),
        }
        assert contract("ia,a->i", {(0, 0): x, (0, 1): x}, {(0,): y, (1,): -y}) == {}

    def test_a_lone_factor_is_kept_and_never_mutated(self):
        p = LaurentPoly(XD.table, {pack((1, 0)): Fraction(1, 3), pack((0, 1)): 2}, (1,))
        terms, q, den = dict(p.terms), p.q, p.den
        acc = ProductSum()
        acc.add("k", (p,))
        assert acc.result()["k"] is p
        acc = ProductSum()
        acc.add("k", (p,))
        acc.add("k", (p,))
        acc.add("k", (p,), Fraction(1, 2))
        assert acc.result() == {"k": p * Fraction(5, 2)}
        assert (p.terms, p.q, p.den) == (terms, q, den)
