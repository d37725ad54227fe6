"""Graded real Lie algebra sl(n+1,C)_R: dimensions, grading, conjugation."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cprojver.slpair import CD, Mat, SlPair, _product, realify


def graded_parts(g):
    """The basis labels of `g` by grade."""
    parts = {-1: [], 0: [], 1: []}
    for lbl in g.basis_labels:
        parts[g.grade_of_label(lbl)].append(lbl)
    return parts


def root_vector(g, lo, hi, sign=+1, barred=False):
    """Root vector for +/-(alpha_lo + ... + alpha_hi) as a double element
    living in one copy only (lo..hi is a consecutive run, 1-based)."""
    if not (1 <= lo <= hi <= g.n):
        raise ValueError(f"not a root: indices {lo}..{hi} for n={g.n}")
    j, k = lo, hi + 1
    m = Mat.unit(g.n1, j, k) if sign > 0 else Mat.unit(g.n1, k, j)
    z = Mat(g.n1)
    return CD(z, m) if barred else CD(m, z)


def mat_mul(a, b):
    """The matrix product (A + iB)(C + iD), through the sparse kernel behind
    `Mat.bracket`."""
    re = _product(a.re, b.re, {}, 1)
    _product(a.im, b.im, re, -1)
    im = _product(a.re, b.im, {}, 1)
    _product(a.im, b.re, im, 1)
    return Mat(a.n1, re, im)


def grading_eigenvalue_check(g):
    """[Z, x] = j*x for x in g_j, for every basis element of `g`."""
    for lbl, x in zip(g.basis_labels, g.basis):
        j = g.grade_of_label(lbl)
        d = g.Z.bracket(x) - x.scale((j, 0))
        if not d.is_zero():
            return False, lbl
    return True, None


def weight_of_matrix_position(j, k, diag):
    """eps_j - eps_k evaluated on a diagonal matrix, as a pair."""
    (a, b), (c, d) = diag.at(j - 1, j - 1), diag.at(k - 1, k - 1)
    return a - c, b - d


def structure_constants(g):
    """Sparse real structure constants of `g` over its deterministic basis."""
    table = {}
    dim = g.dim()
    for i in range(dim):
        for j in range(i + 1, dim):
            br = g.basis[i].bracket(g.basis[j])
            if br.is_zero():
                continue
            vec = g.coordinates(br)
            if vec:
                table[(i, j)] = vec
    return table


def from_coordinates(g, coords):
    """The real element of `g` with the given {basis index: coordinate}."""
    x = Mat(g.n1)
    for i, c in coords.items():
        x = x + g.basis[i].scale((c, 0))
    return x


def trace(m):
    """The trace of the matrix `m`, as a pair."""
    diag = [m.at(j, j) for j in range(m.n1)]
    return sum(a for a, _ in diag), sum(b for _, b in diag)


class TestBuild:
    def test_n2_dimensions(self):
        g = SlPair(2)
        assert g.dim() == 16  # 2((n+1)^2 - 1)
        parts = graded_parts(g)
        assert (len(parts[-1]), len(parts[0]), len(parts[1])) == (4, 8, 4)

    def test_n3_dimensions(self):
        g = SlPair(3)
        assert g.dim() == 30
        assert len(graded_parts(g)[-1]) == 6  # dim g_{-1} = 2n

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_grading_eigenvalues(self, n):
        g = SlPair(n)
        ok, offender = grading_eigenvalue_check(g)
        assert ok, offender

    def test_rejects_n1(self):
        with pytest.raises(ValueError):
            SlPair(1)

    def test_grading_element_on_root_vector(self):
        # [Z, e_{alpha_1}] = e_{alpha_1} since e_{alpha_1} is in g_1
        g = SlPair(3)
        e = root_vector(g, 1, 1)
        z = realify(g.Z)
        assert z.bracket(e) == e


class TestRootVectors:
    def test_consecutive_sum_unbarred(self):
        # alpha_1 + alpha_2 at n=3 -> E_13 in the unbarred copy
        g = SlPair(3)
        e = root_vector(g, 1, 2)
        assert e.u == Mat.unit(4, 1, 3)
        assert e.b.is_zero()

    def test_negative_root(self):
        # -(alpha_2 + ... + alpha_n) -> E_{n+1,2}
        g = SlPair(3)
        e = root_vector(g, 2, 3, sign=-1)
        assert e.u == Mat.unit(4, 4, 2)

    def test_barred_copy(self):
        g = SlPair(3)
        e = root_vector(g, 1, 1, barred=True)
        assert e.u.is_zero()
        assert e.b == Mat.unit(4, 1, 2)

    def test_invalid_root(self):
        g = SlPair(3)
        with pytest.raises(ValueError):
            root_vector(g, 2, 5)

    def test_weight_check(self):
        # [diag, E_jk] = (eps_j - eps_k)(diag) * E_jk
        g = SlPair(2)
        d = Mat.diag(3, [1, 2, -3])
        e = Mat.unit(3, 1, 3)
        got = d.bracket(e)
        assert got == e.scale(weight_of_matrix_position(1, 3, d))


class TestConjugationAndExport:
    def test_realify_fixed_by_conjugation(self):
        g = SlPair(2)
        for x in g.basis:
            assert realify(x).conj() == realify(x)

    def test_conjugation_is_bracket_automorphism(self):
        g = SlPair(2)
        a = root_vector(g, 1, 2)
        b = root_vector(g, 1, 1, sign=-1, barred=True)
        lhs = a.bracket(b).conj()
        rhs = a.conj().bracket(b.conj())
        assert lhs == rhs

    def test_matrix_brackets_match_structure_constants(self):
        g = SlPair(2)
        table = structure_constants(g)
        for (i, j), vec in list(table.items())[:40]:
            br = g.basis[i].bracket(g.basis[j])
            assert from_coordinates(g, vec) == br

    @pytest.mark.parametrize("j", [2, 1])
    def test_coordinates_refuse_a_trace(self, j):
        # no label reads the (2,2) entry, so E22 would read as zero and E11
        # as H1 = E11 - E22
        with pytest.raises(ValueError, match="trace"):
            SlPair(2).coordinates(Mat.unit(3, j, j))

    def test_g0_block_shape(self):
        # every grade-0 basis element is block diagonal with the trace relation
        g = SlPair(3)
        for lbl in graded_parts(g)[0]:
            x = g.element_of_label(lbl)
            for (j, k), _ in x.entries():
                assert (j == 1 and k == 1) or (j > 1 and k > 1)
            assert trace(x) == (0, 0)


frac = st.fractions(min_value=-6, max_value=6, max_denominator=4)
# complex scalars as (re, im) pairs, real as often as not
gauss = st.tuples(frac, st.one_of(st.just(Fraction(0)), frac))
ZERO = (0, 0)


def _pmul(u, v):
    (a, b), (c, d) = u, v
    return a * c - b * d, a * d + b * c


def _padd(u, v):
    return u[0] + v[0], u[1] + v[1]


def _psub(u, v):
    return u[0] - v[0], u[1] - v[1]


@st.composite
def sparse_pair(draw):
    """Two random sparse matrices as (n1, dense A, dense B, Mat A, Mat B)."""
    n1 = draw(st.integers(min_value=2, max_value=5))
    pos = st.tuples(st.integers(0, n1 - 1), st.integers(0, n1 - 1))
    out = [n1]
    dense = []
    for _ in range(2):
        entries = draw(st.dictionaries(pos, gauss, max_size=2 * n1))
        dense.append(
            [[entries.get((j, k), ZERO) for k in range(n1)] for j in range(n1)]
        )
        m = Mat(n1)
        for (j, k), c in entries.items():  # zero values must not be stored
            m = m + Mat.unit(n1, j + 1, k + 1, c)
        out.append(m)
    return out[0], dense[0], dense[1], out[1], out[2]


def _dense_mul(a, b):
    n1 = len(a)
    out = [[ZERO] * n1 for _ in range(n1)]
    for i in range(n1):
        for j in range(n1):
            for k in range(n1):
                out[i][j] = _padd(out[i][j], _pmul(a[i][k], b[k][j]))
    return out


def _assert_matches(m, dense):
    """`m` stores exactly the nonzero entries of `dense`, yielded row-major."""
    assert all(m.re.values()) and all(m.im.values())
    keys = [key for key, _ in m.entries()]
    assert keys == sorted(keys)
    want = {
        (j + 1, k + 1): v
        for j, row in enumerate(dense)
        for k, v in enumerate(row)
        if v != ZERO
    }
    assert dict(m.entries()) == want


class TestSparseMatrices:
    @settings(max_examples=200, deadline=None)
    @given(sparse_pair(), gauss)
    def test_against_dense_formulas(self, pair, c):
        n1, a, b, ma, mb = pair
        idx = range(n1)
        _assert_matches(ma, a)
        _assert_matches(mb, b)
        _assert_matches(mat_mul(ma, mb), _dense_mul(a, b))
        ab, ba = _dense_mul(a, b), _dense_mul(b, a)
        bracket = [[_psub(ab[j][k], ba[j][k]) for k in idx] for j in idx]
        _assert_matches(ma.bracket(mb), bracket)
        _assert_matches(ma + mb, [[_padd(a[j][k], b[j][k]) for k in idx] for j in idx])
        _assert_matches(ma - mb, [[_psub(a[j][k], b[j][k]) for k in idx] for j in idx])
        _assert_matches(ma - ma, [[ZERO] * n1 for _ in idx])
        _assert_matches(-ma, [[_psub(ZERO, a[j][k]) for k in idx] for j in idx])
        _assert_matches(ma.scale(c), [[_pmul(a[j][k], c) for k in idx] for j in idx])
        _assert_matches(ma.conj(), [[(a[j][k][0], -a[j][k][1]) for k in idx] for j in idx])
        for j in idx:
            for k in idx:
                assert ma.at(j, k) == a[j][k]


@st.composite
def real_element(draw):
    """(g, x): a random real element x of g = SlPair(n), n = 2 or 3, from a
    random complex matrix whose (2,2) entry makes it trace-free."""
    n = draw(st.sampled_from([2, 3]))
    n1 = n + 1
    pos = st.tuples(st.integers(0, n1 - 1), st.integers(0, n1 - 1))
    entries = draw(st.dictionaries(pos, gauss, max_size=2 * n1))
    m = Mat(n1)
    for (j, k), c in entries.items():
        if (j, k) != (1, 1):
            m = m + Mat.unit(n1, j + 1, k + 1, c)
    return SlPair(n), m - Mat.unit(n1, 2, 2, trace(m))


class TestCoordinates:
    @settings(max_examples=100, deadline=None)
    @given(real_element())
    def test_round_trip(self, gx):
        g, x = gx
        coords = g.coordinates(x)
        assert list(coords) == sorted(coords)
        assert all(coords.values())
        assert from_coordinates(g, coords) == x
