"""Structure-constant algebras: Jacobi, series, gradings, deformations."""

import hashlib
import os
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cprojver.algebras import (
    ALGEBRA_FILES,
    builtin_algebra,
    data_dir,
    parse_algebra_manifest,
)
from cprojver.parse import ParseError
from cprojver.poly import LaurentPoly
from cprojver.prolong import subalgebra_with_cochain
from cprojver.structlie import StructAlgebra, deform_by_cochain
from cprojver.verify import jacobi_check


def same_table(a, b):
    """`a` and `b` have the same labels and structure constants."""
    return a.labels == b.labels and a.table == b.table


def transport(alg, scaling):
    """Structure constants of `alg` transported along the diagonal map
    e_i -> scaling[label]*e_i (an isomorphism test helper)."""
    s = {alg.index[l]: Fraction(v) for l, v in scaling.items()}
    for i in range(alg.dim()):
        s.setdefault(i, Fraction(1))
    out = {}
    for (i, j), vec in alg.table.items():
        nv = {}
        for k, c in vec.items():
            nv[k] = c * s[i] * s[j] / s[k]
        out[(i, j)] = nv
    return StructAlgebra(
        alg.labels, out, grading=alg.grading, z2=alg.z2, name=alg.name
    )


def sl2():
    return builtin_algebra("sl2")


class TestJacobi:
    def test_sl2(self):
        assert sl2().jacobi_residual() == {}

    def test_symmetry_algebra_8d(self):
        assert builtin_algebra("s").jacobi_residual() == {}

    def test_lambda_family_symbolic(self):
        # residual is the zero polynomial in the parameter
        assert builtin_algebra("lambda-family").jacobi_residual() == {}

    def test_isometry_algebras(self):
        assert builtin_algebra("s-prime").jacobi_residual() == {}
        assert builtin_algebra("s-double-prime").jacobi_residual() == {}

    def test_brute_force_over_all_triples(self):
        # jacobi_residual visits only the triples a cyclic term reaches;
        # re-check one algebra over every (i, j, k) by hand
        a = builtin_algebra("s-prime")
        n = a.dim()
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    r = a.bracket_vec(a.bracket_units(i, j), {k: 1})
                    for t, c in a.bracket_vec(a.bracket_units(j, k), {i: 1}).items():
                        r[t] = r.get(t, 0) + c
                    for t, c in a.bracket_vec(a.bracket_units(k, i), {j: 1}).items():
                        r[t] = r.get(t, 0) + c
                    assert not any(r.values())


def cyclic_sum(alg):
    """Every nonzero Jac(e_i,e_j,e_k), i<j<k, as the sum of the three
    [[e_a,e_b],e_c] computed through `bracket_vec` on unit vectors."""
    one = LaurentPoly.const(alg.params, 1) if alg.has_params() else 1
    out = {}
    dim = alg.dim()
    for i in range(dim):
        for j in range(i + 1, dim):
            for k in range(j + 1, dim):
                r = {}
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    inner = alg.bracket_vec({a: one}, {b: one})
                    for t, v in alg.bracket_vec(inner, {c: one}).items():
                        r[t] = r[t] + v if t in r else v
                r = {alg.labels[t]: v for t, v in r.items() if v}
                if r:
                    out[(alg.labels[i], alg.labels[j], alg.labels[k])] = r
    return out


def corrupted_s(target):
    """The 8-dimensional algebra `s` with [e5,e7] set to e_{target+1}."""
    a = builtin_algebra("s")
    table = {k: dict(v) for k, v in a.table.items()}
    table[(4, 6)] = {target: 1}
    return StructAlgebra(a.labels, table, z2=a.z2)


def later_term_only(term):
    """A 4-dimensional bracket whose only nonzero Jacobi sum, on (x0,x1,x2),
    comes from its second (term=2) or third (term=3) cyclic term alone."""
    one = 1
    if term == 2:  # [[x1,x2],x0] = [x3,x0] = x0
        table = {(1, 2): {3: one}, (3, 0): {0: one}}
    else:  # [[x2,x0],x1] = -[x3,x1] = -x1
        table = {(0, 2): {3: one}, (3, 1): {1: one}}
    return StructAlgebra(["x0", "x1", "x2", "x3"], table)


def corrupted_lambda_family():
    """lambda-family with [vp1,vq1] = 6*lam*a2 instead of 6*lam^2*a2."""
    path = os.path.join(data_dir(), ALGEBRA_FILES["lambda-family"])
    with open(path, encoding="ascii") as fh:
        text = fh.read()
    good = "bracket [vp1,vq1] = 6*lam^2*a2"
    assert good in text
    return parse_algebra_manifest(text.replace(good, "bracket [vp1,vq1] = 6*lam*a2"))


class TestJacobiAgainstCyclicSum:
    @pytest.mark.parametrize("name", sorted(ALGEBRA_FILES))
    def test_builtin(self, name):
        alg = builtin_algebra(name)
        assert alg.jacobi_residual() == cyclic_sum(alg) == {}

    @pytest.mark.parametrize(
        "alg",
        [
            corrupted_s(1),
            corrupted_s(5),
            corrupted_lambda_family(),
            later_term_only(2),
            later_term_only(3),
        ],
        ids=["s-e2", "s-e6", "lambda-family-lam", "second-term", "third-term"],
    )
    def test_corrupted(self, alg):
        # [e5,e7] = e3 or e4 would keep Jacobi, so those targets check nothing
        res = alg.jacobi_residual()
        assert res
        assert res == cyclic_sum(alg)

    def test_corrupted_parametric_residual_is_polynomial(self):
        alg = corrupted_lambda_family()
        res = alg.jacobi_residual()
        assert res
        assert all(
            isinstance(c, LaurentPoly) and not c.is_zero()
            for vec in res.values()
            for c in vec.values()
        )


@st.composite
def random_algebra(draw):
    """A random bracket table on 3-6 labels: a random subset of the pairs
    i < j, each with a sparse value vector of int and `Fraction` entries."""
    dim = draw(st.integers(min_value=3, max_value=6))
    value = st.one_of(
        st.integers(min_value=-3, max_value=3),
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
    )
    vector = st.dictionaries(st.integers(0, dim - 1), value, max_size=3)
    table = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            if draw(st.booleans()):
                table[(i, j)] = draw(vector)
    return StructAlgebra([f"x{i}" for i in range(dim)], table)


class TestJacobiRandomTables:
    @settings(max_examples=200, deadline=None)
    @given(random_algebra())
    def test_against_cyclic_sum(self, alg):
        assert alg.jacobi_residual() == cyclic_sum(alg)


class TestPairOrders:
    def test_pair_in_both_orders_rejected(self):
        with pytest.raises(ValueError, match=r"\(0, 1\) is given in both orders"):
            StructAlgebra(["x", "y", "z"], {(0, 1): {2: 1}, (1, 0): {2: 1}})


class TestDerivedSeries:
    def test_8d_symmetry_algebra(self):
        # stated series (8,5,3,0) is refuted by the printed structure
        # constants themselves: the bracket image contains e3..e8
        assert builtin_algebra("s").derived_series() == (8, 6, 3, 0)

    def test_6d_isometry_algebra(self):
        assert builtin_algebra("s-prime").derived_series() == (6, 5, 3, 0)

    def test_abelian(self):
        a = StructAlgebra(["x1", "x2", "x3", "x4"], {})
        assert a.derived_series() == (4, 0)

    def test_weakly_decreasing(self):
        for name in ("s", "s-prime"):
            dims = builtin_algebra(name).derived_series()
            assert all(a >= b for a, b in zip(dims, dims[1:]))

    def test_rejects_symbolic(self):
        with pytest.raises(ValueError):
            builtin_algebra("lambda-family").derived_series()


class TestGradings:
    def test_z2_pass(self):
        ok, _ = builtin_algebra("s").check_z2()
        assert ok

    def test_sl2_integer_grading(self):
        ok, _ = sl2().check_grading()
        assert ok

    def test_lambda_family_grading_vs_filtration(self):
        fam = builtin_algebra("lambda-family")
        at0 = fam.specialize({"lam": 0})
        ok0, _ = at0.check_grading()
        assert ok0
        at1 = fam.specialize({"lam": 1})
        ok1, witness = at1.check_grading()
        assert not ok1 and witness is not None
        okf, _ = at1.check_filtration()
        assert okf

    def test_lambda_rescaling_onto_lambda_one(self):
        # v -> lam^{-1} v, a and b fixed, is an isomorphism onto lam = 1
        fam = builtin_algebra("lambda-family")
        target = fam.specialize({"lam": 1})
        for lam in (Fraction(2), Fraction(-1, 3), Fraction(7, 5)):
            spec = fam.specialize({"lam": lam})
            scaling = {l: 1 / lam for l, d in fam.grading.items() if d == -1}
            moved = transport(spec, scaling)
            assert same_table(moved, target)


class TestVerifyFamily:
    def test_lambda_family(self):
        assert not builtin_algebra("lambda-family").jacobi_residual()

    def test_semidirect_product(self):
        assert not builtin_algebra("s-double-prime").jacobi_residual()

    def test_corruption_suggested_swap_still_lie(self):
        # swapping [e5,e7] from e3 to e4 happens to preserve Jacobi (the
        # brute-force oracle says the residual stays empty), because e4 acts
        # on e5 like e3 and no other relation involves the pair (5,7)
        corrupted = corrupted_s(3)  # [e5,e7] = e4
        assert corrupted.jacobi_residual() == {}

    def test_corruption_with_witness(self):
        # [e5,e7] = e6 does break Jacobi, with witness triple (e1,e5,e7)
        res = corrupted_s(5).jacobi_residual()
        assert res
        assert ("e1", "e5", "e7") in res


class TestDeformation:
    def test_zero_cochain(self):
        alg, _ = subalgebra_with_cochain("II", 2)
        res = deform_by_cochain(alg, {})
        assert same_table(res.deformed, alg)
        assert res.residual == {}

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_type2_deformation_closes(self, n):
        res = deform_by_cochain(*subalgebra_with_cochain("II", n))
        assert res.residual == {}
        assert res.matches_prediction

    def test_type3_n2_deformation_fails(self):
        res = deform_by_cochain(*subalgebra_with_cochain("III", 2))
        assert res.residual != {}
        assert res.matches_prediction

    def test_deform_then_undo(self):
        alg, cochain = subalgebra_with_cochain("III", 3)
        once = deform_by_cochain(alg, cochain)
        neg = {k: {t: -c for t, c in v.items()} for k, v in cochain.items()}
        back = deform_by_cochain(once.deformed, neg)
        assert same_table(back.deformed, alg)

    def test_cochain_pair_in_both_orders_rejected(self):
        alg, _ = subalgebra_with_cochain("II", 3)
        with pytest.raises(ValueError, match="both orders"):
            deform_by_cochain(alg, {(0, 1): {0: 1}, (1, 0): {0: 1}})

    def test_cochain_outside_minus_rejected(self):
        alg, _ = subalgebra_with_cochain("II", 2)
        with pytest.raises(ValueError):
            deform_by_cochain(alg, {(0, alg.dim() - 1): {0: 1}})

    @pytest.mark.parametrize("ctype", ["I", "II", "III", "IV"])
    def test_deformed_bracket_is_filtered_not_graded(self, ctype):
        # the cochain maps g_-1 x g_-1 into g_-1 + g_0, above grade -2
        alg, cochain = subalgebra_with_cochain(ctype, 3)
        assert alg.check_grading()[0]
        deformed = deform_by_cochain(alg, cochain).deformed
        assert deformed.grading == alg.grading
        assert deformed.check_filtration()[0]
        assert not deformed.check_grading()[0]


# The number of lines and the sha256 over the bracket table and the cochain
# of `subalgebra_with_cochain(t, n)` (as repr(list(...items())), so dict order
# counts), the sorted Jacobi residual of the deformation and its match with
# the prediction, for types I-IV at n = 2..5 (type I from n = 3).  Recorded
# at commit 271b40e, before the one-pass Jacobi and the sparse coordinates,
# with the same digest under PYTHONHASHSEED=0 and =1, by
#   cd tests && PYTHONPATH=../src python -c \
#     "import test_structlie as t; print(t.deformation_digest())"
DEFORMATION_PIN = (45, "7cf2a7f4abc8573e9e52cd0845fcb038f7e96a182e7d75ebc0273e5b63055e50")


def deformation_digest():
    lines = []
    for ctype in ("I", "II", "III", "IV"):
        for n in (2, 3, 4, 5):
            if (ctype, n) == ("I", 2):
                continue
            alg, cochain = subalgebra_with_cochain(ctype, n)
            res = deform_by_cochain(alg, cochain)
            residual = sorted((k, sorted(v.items())) for k, v in res.residual.items())
            lines += [
                f"{ctype} {n} table {list(alg.table.items())!r}",
                f"{ctype} {n} cochain {list(cochain.items())!r}",
                f"{ctype} {n} residual {residual!r} {res.residual == res.predicted}",
            ]
    digest = hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()
    return len(lines), digest


def test_deformation_pin():
    assert deformation_digest() == DEFORMATION_PIN


class TestManifest:
    def test_parse_error_line(self):
        text = "cproj-algebra v1\nname = t\nbasis = x y\nbracket [x,z] = y\n"
        with pytest.raises(ParseError) as ei:
            parse_algebra_manifest(text)
        assert "4" in str(ei.value)

    def test_nonlinear_value_rejected(self):
        text = "cproj-algebra v1\nbasis = x y\nbracket [x,y] = x*y\n"
        with pytest.raises(ParseError):
            parse_algebra_manifest(text)

    def test_jacobi_record_fails_on_one_changed_constant(self):
        # [e1,e3] = 2*e3 in s: Jac(e1,e3,e5) = 2e6 - 3e6 + 2e6 = e6
        path = os.path.join(data_dir(), ALGEBRA_FILES["s"])
        with open(path, encoding="ascii") as fh:
            text = fh.read()
        assert "bracket [e1,e3] = e3\n" in text
        for rhs, ok in (("e3", True), ("2*e3", False)):
            alg = parse_algebra_manifest(text.replace("[e1,e3] = e3", f"[e1,e3] = {rhs}"))
            assert jacobi_check("s", alg, "published").as_record()["pass"] is ok

    def test_unknown_builtin(self):
        with pytest.raises(KeyError):
            builtin_algebra("nope")
