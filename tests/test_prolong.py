"""Curvature modules: extremal vectors, annihilators, prolongations, tables."""

import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cprojver import prolong
from cprojver.linalg import LinearSystem
from cprojver.prolong import (
    CURV_TYPES,
    CurvElement,
    annihilator,
    annihilator_closed_form,
    bound_closed_form,
    diagonal_condition_holds,
    flat_dimension,
    g0_action,
    lowest_weight_vector,
    module_span,
    submax_closed_form,
    submax_overall,
    subalgebra_with_cochain,
    tanaka_prolongation,
    theorem_table,
    upper_bound,
)
from cprojver.slpair import CD, Mat, SlPair, realify


def generic_element(ctype, n, seed=1):
    """A pseudo-random rational combination of the module span."""
    basis = module_span(ctype, n)
    out = CurvElement(n)
    state = seed
    for b in basis:
        state = (state * 48271 + 11) % 2147483647
        c = (state % 19) - 9
        if c:
            out = out + b.scale((c, 0))
    if out.is_zero():
        return basis[0]
    return out


class TestLowestWeightVectors:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_reality(self, n):
        # every (type, n) in `theorem_table`'s range, which holds the n = 2..5
        # that the deformation batteries use
        for t in CURV_TYPES:
            phi0, psi = lowest_weight_vector(t, n)
            assert not phi0.is_zero()
            assert psi.is_real()

    def test_invalid_type(self):
        with pytest.raises(ValueError):
            lowest_weight_vector("V", 3)

    @pytest.mark.parametrize(
        "ctype,n,expected",
        [("II", 2, 2), ("II", 4, 2), ("III", 3, 1), ("I", 3, 2), ("I", 2, 3), ("IV", 3, 1)],
    )
    def test_grading_homogeneity(self, ctype, n, expected):
        # Z acts on the extremal vector by its homogeneity
        g = SlPair(n)
        phi0, _ = lowest_weight_vector(ctype, n)
        acted = g0_action(g.Z, phi0)
        assert acted == phi0.scale((expected, 0))

    def test_diagonal_weight_zero_annihilates(self):
        # a diagonal element with mu(X)=0 kills phi0; Z - Z has weight 0 trivially
        g = SlPair(2)
        phi0, _ = lowest_weight_vector("II", 2)
        acted = g0_action(g.Z, phi0) - phi0.scale((2, 0))
        assert acted.is_zero()


class TestAnnihilators:
    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("ctype", CURV_TYPES)
    def test_closed_forms(self, ctype, n):
        _, psi = lowest_weight_vector(ctype, n)
        res = annihilator(psi)
        assert res.dim == annihilator_closed_form(ctype, n)

    def test_type1_n4_value(self):
        _, psi = lowest_weight_vector("I", 4)
        assert annihilator(psi).dim == 18  # 2(n^2-3n+5) at n=4

    def test_type2_n2_value(self):
        _, psi = lowest_weight_vector("II", 2)
        assert annihilator(psi).dim == 4

    def test_type4_n3_value(self):
        _, psi = lowest_weight_vector("IV", 3)
        assert annihilator(psi).dim == 10  # 2(n-1)^2+2 at n=3

    def test_every_basis_element_annihilates(self):
        _, psi = lowest_weight_vector("III", 3)
        res = annihilator(psi)
        for x in res.basis:
            assert g0_action(x, psi).is_zero()

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_type2_diagonal_condition(self, n):
        # 2 Re(a_0 - a_1) = a_1 - a_n on every annihilator basis element
        _, psi = lowest_weight_vector("II", n)
        res = annihilator(psi)
        for x in res.basis:
            a0, a1, an = x.at(0, 0), x.at(1, 1), x.at(n, n)
            lhs = (2 * (a0[0] - a1[0]), 0)
            assert lhs == (a1[0] - an[0], a1[1] - an[1])

    @pytest.mark.parametrize("ctype", CURV_TYPES)
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_published_diagonal_conditions(self, ctype, n):
        _, psi = lowest_weight_vector(ctype, n)
        res = annihilator(psi)
        assert diagonal_condition_holds(ctype, n, res)

    @pytest.mark.parametrize("ctype", CURV_TYPES)
    @pytest.mark.parametrize("shift", [(1, 0), (0, 1)])
    def test_diagonal_conditions_see_a_changed_entry(self, ctype, shift):
        # a_n enters every relation in both its real and its imaginary part,
        # so adding 1 or i to it on one basis element breaks the relation
        n = 3
        _, psi = lowest_weight_vector(ctype, n)
        res = annihilator(psi)
        bumped = res.basis[0] + Mat.unit(n + 1, n + 1, n + 1, shift)
        broken = dataclasses.replace(res, basis=[bumped] + res.basis[1:])
        assert not diagonal_condition_holds(ctype, n, broken)

    def test_scaling_invariance(self):
        _, psi = lowest_weight_vector("II", 3)
        base = annihilator(psi).dim
        for c in ((5, 0), (-2, 3), (0, 1)):
            phi0, _ = lowest_weight_vector("II", 3)
            scaled = phi0.scale(c)
            psi_c = scaled + scaled.conj()
            assert annihilator(psi_c).dim == base


class TestProlongation:
    @pytest.mark.parametrize("n", range(2, 7))
    @pytest.mark.parametrize("ctype", CURV_TYPES)
    def test_rigidity(self, ctype, n):
        _, psi = lowest_weight_vector(ctype, n)
        pr = tanaka_prolongation(psi)
        assert pr.plus_dim == 0
        assert pr.rigid
        assert pr.total == 2 * n + pr.ann_dim

    def test_type1_n3_total(self):
        total, pr = upper_bound("I", 3)
        assert total == 16
        assert pr.rigid

    def test_generic_element_rigid(self):
        # brute-force kernel for a generic module element, type II, n=2
        psi = generic_element("II", 2, seed=7)
        pr = tanaka_prolongation(psi)
        assert pr.plus_dim == 0

    def test_scaled_extremal_prolongation(self):
        phi0, _ = lowest_weight_vector("III", 2)
        scaled = phi0.scale((3, 2))
        psi = scaled + scaled.conj()
        pr = tanaka_prolongation(psi)
        assert pr.plus_dim == 0
        assert pr.ann_dim == annihilator_closed_form("III", 2)


class TestBounds:
    @pytest.mark.parametrize("n", range(2, 7))
    @pytest.mark.parametrize("ctype", CURV_TYPES)
    def test_two_routes_agree(self, ctype, n):
        total, _ = upper_bound(ctype, n)
        assert total == bound_closed_form(ctype, n)

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("ctype", CURV_TYPES)
    def test_bound_consistency_under_rigidity(self, ctype, n):
        # total = 2n + annihilator dimension whenever the plus-part vanishes
        _, psi = lowest_weight_vector(ctype, n)
        pr = tanaka_prolongation(psi)
        assert pr.rigid
        assert pr.total == 2 * n + pr.ann_dim

    def test_specific_bounds(self):
        assert upper_bound("III", 3)[0] == 18
        assert upper_bound("II", 6)[0] == 64
        # type I at n=2: algebraic bound 8, realizable submaximal is 6
        assert upper_bound("I", 2)[0] == 8
        assert submax_closed_form("I", 2) == 6

    def test_submax_table_values(self):
        expected = {
            2: (6, 8, 8),
            3: (16, 16, 18),
            4: (26, 28, 28),
            5: (40, 44, 42),
            6: (58, 64, 60),
        }
        for n, (s1, s2, s3) in expected.items():
            assert submax_closed_form("I", n) == s1
            assert submax_closed_form("II", n) == s2
            assert submax_closed_form("III", n) == s3
            assert submax_overall(n) == max(s1, s2, s3)

    def test_flat_dimension(self):
        assert flat_dimension(2) == 16
        assert flat_dimension(3) == 30


class TestTable:
    def test_rows(self):
        rows = theorem_table(2, 5)
        by_n = {r.n: r for r in rows}
        assert by_n[5].bounds["II"] == 44
        assert by_n[4].submax["III"] == 28
        assert by_n[3].overall == 18
        assert all(r.rigid for r in rows)
        assert by_n[2].advisories

    def test_range_validation(self):
        with pytest.raises(ValueError):
            theorem_table(1, 3)


class TestModuleSpan:
    def test_span_nontrivial(self):
        basis = module_span("II", 2)
        assert len(basis) >= 4


# -- the g_0 action and the prolongation rows against their direct forms --------


def dense_minus_part(m: Mat, n):
    """The full n x n matrix M with [m, u_j] = sum_k M[k][j] u_k on the -1
    block, entries as (re, im) pairs."""
    a0 = m.at(0, 0)
    M = [[m.at(k + 1, j + 1) for j in range(n)] for k in range(n)]
    for k in range(n):
        re, im = M[k][k]
        M[k][k] = (re - a0[0], im - a0[1])
    return M


def dense_g0_action(x: Mat, psi: CurvElement) -> CurvElement:
    """The tensorial action of the real element x read off the dense
    matrices of both copies of realify(x)."""
    n = psi.n
    xx = realify(x)
    M = (dense_minus_part(xx.u, n), dense_minus_part(xx.b, n))
    out = CurvElement(n)
    for (sA, sB), w in psi.entries.items():
        out = out + CurvElement(n, {(sA, sB): xx.bracket(w)})
        for k in range(n):
            re, im = M[sA[0]][sA[1] - 1][k]
            out = out + CurvElement(n, {((sA[0], k + 1), sB): w.scale((-re, -im))})
            re, im = M[sB[0]][sB[1] - 1][k]
            out = out + CurvElement(n, {(sA, (sB[0], k + 1)): w.scale((-re, -im))})
    return out


def random_grade0(g, rng):
    """A real grade-0 element with small rational coordinates; H1 is always
    present, so the (1,1) entry that every dual slot reads is nonzero."""
    x = g.element_of_label("H1")
    for lbl in g.basis_labels:
        if g.grade_of_label(lbl) == 0 and rng.random() < 0.6:
            c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            x = x + g.element_of_label(lbl).scale((c, 0))
    return x


def direct_prolongation_rows(psi, g):
    """The degree-one rows with one g_0 action per pair (v, X)."""
    plus = [l for l in g.basis_labels if g.grade_of_label(l) == 1]
    minus = [l for l in g.basis_labels if g.grade_of_label(l) == -1]
    rows = {}
    for col, lbl in enumerate(plus):
        x = g.element_of_label(lbl)
        for vl in minus:
            elem = g0_action(g.element_of_label(vl).bracket(x), psi)
            for key, val in prolong._real_coordinates(elem, (vl,)).items():
                rows.setdefault(key, {})[col] = val
    return list(rows.values())


class TestG0Action:
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("ctype", CURV_TYPES)
    def test_matches_the_dense_matrices(self, ctype, n):
        g = SlPair(n)
        rng = random.Random(f"{ctype}{n}")
        phi0, psi = lowest_weight_vector(ctype, n)
        for _ in range(4):
            x = random_grade0(g, rng)
            for elem in (psi, phi0):
                assert g0_action(x, elem) == dense_g0_action(x, elem)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("ctype", CURV_TYPES)
    def test_prolongation_rows_by_linearity(self, ctype, n, monkeypatch):
        systems = []

        class Recording(LinearSystem):
            def __init__(self):
                super().__init__()
                self.rows = []
                systems.append(self)

            def add_row(self, row):
                self.rows.append(dict(row))
                return super().add_row(row)

        monkeypatch.setattr(prolong, "LinearSystem", Recording)
        g = SlPair(n)
        _, psi = lowest_weight_vector(ctype, n)
        tanaka_prolongation(psi, g)
        assert len(systems) == 2  # the annihilator's, then the prolongation's
        assert systems[1].rows == direct_prolongation_rows(psi, g)

    def test_one_action_per_grade0_basis_element(self, monkeypatch):
        calls = []
        action = prolong.g0_action

        def counting(x, psi):
            calls.append(x)
            return action(x, psi)

        monkeypatch.setattr(prolong, "g0_action", counting)
        theorem_table(2, 4)
        dims = [sum(g.grade_of_label(l) == 0 for l in g.basis_labels)
                for g in map(SlPair, range(2, 5))]
        assert dims == [2 * n * n for n in range(2, 5)]
        assert len(calls) == len(CURV_TYPES) * sum(dims)


# -- a real element as one matrix against its realify image ---------------------


frac = st.fractions(min_value=-5, max_value=5, max_denominator=3)
# complex scalars as (re, im) pairs, real as often as not
gauss = st.tuples(frac, st.one_of(st.just(Fraction(0)), frac))


def sparse_mat(draw, n1):
    """A random sparse rational complex (n1 x n1) matrix."""
    pos = st.tuples(st.integers(1, n1), st.integers(1, n1))
    m = Mat(n1)
    for (j, k), c in draw(st.dictionaries(pos, gauss, max_size=2 * n1)).items():
        m = m + Mat.unit(n1, j, k, c)
    return m


@st.composite
def mats_and_module_element(draw):
    """(x, y, psi): two random sparse matrices and a random element of the
    curvature module with g_C values, all for one n in 2..4."""
    n = draw(st.integers(min_value=2, max_value=4))
    slot = st.tuples(st.integers(0, 1), st.integers(1, n))
    entries = {}
    for slots in draw(st.lists(st.tuples(slot, slot), max_size=4)):
        entries[slots] = CD(sparse_mat(draw, n + 1), sparse_mat(draw, n + 1))
    return sparse_mat(draw, n + 1), sparse_mat(draw, n + 1), CurvElement(n, entries)


def evaluate_through_realify(psi, a: Mat, b: Mat) -> CD:
    """psi(a, b), pairing each dual slot with its own copy of realify(a) and
    realify(b)."""
    a, b = realify(a), realify(b)
    out = CD(Mat(psi.n + 1), Mat(psi.n + 1))

    def pairing(slot, x: CD):
        copy, j = slot
        return (x.b if copy else x.u).at(j, 0)

    def mul(p, q):
        return p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0]

    for (sA, sB), w in psi.entries.items():
        p = mul(pairing(sA, a), pairing(sB, b))
        q = mul(pairing(sA, b), pairing(sB, a))
        out = out + w.scale((p[0] - q[0], p[1] - q[1]))
    return out


class TestOneMatrixForm:
    @settings(max_examples=150, deadline=None)
    @given(mats_and_module_element())
    def test_matches_the_realify_image(self, sample):
        x, y, psi = sample
        # the bracket of realify images is the realify image of one bracket
        assert realify(x).bracket(realify(y)) == realify(x.bracket(y))
        assert psi.evaluate(x, y) == evaluate_through_realify(psi, x, y)

    def test_cochain_refuses_a_non_real_value(self, monkeypatch):
        # psi = phi0 alone has unbarred values only, so psi(v_i, v_j) is not
        # the realify image of one matrix and cannot be expanded
        phi0, _ = lowest_weight_vector("II", 3)
        monkeypatch.setattr(prolong, "lowest_weight_vector", lambda t, n: (phi0, phi0))
        with pytest.raises(ValueError, match="real form"):
            subalgebra_with_cochain("II", 3)
