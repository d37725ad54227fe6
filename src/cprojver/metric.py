"""Pseudo-Kahler machinery: Levi-Civita, mobility, parallel forms, families.

The mobility equation is solved in the lowered picture: the unknown is a
symmetric J-invariant (0,2)-tensor B = g(A., .) with

    (nabla_c B)_{ab} = g_{ac} l_b + g_{bc} l_a + w_{ac} (Jl)_b + w_{bc} (Jl)_a,

where l = d(theta), theta = (1/4) tr(g^{-1} B), and w(X,Y) = g(JX,Y).  The
solution space always contains B = g, and its dimension is the degree of
mobility.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .linalg import SpanSolver, signature
from .poly import LaurentPoly, accumulate
from .symsolve import (
    AnsatzSpace,
    _column_operator,
    field_coordinates,
    solve_field_system,
)
from .tensorcalc import (
    Tensor,
    complex_table,
    complex_tensor_to_real,
    contract,
    contract_sum,
    covariant_derivative_J,
    invert_matrix_ring,
    nijenhuis,
    partials,
)


def metric_inverse(g: Tensor) -> Tensor:
    d = g.chart.dim
    inv = invert_matrix_ring([[g.get(a, b) for b in range(d)] for a in range(d)], g.chart)
    comps = {(a, b): p for a, row in enumerate(inv) for b, p in enumerate(row)}
    return Tensor(g.chart, (2, 0), comps)


def levi_civita(g: Tensor, ginv: Tensor) -> Tensor:
    """G^i_jk = 1/2 g^ia (d_j g_ak + d_k g_aj - d_a g_jk), ginv the inverse of g."""
    dg = partials(g.comps, g.chart)  # (c, a, b) -> d_c g_ab
    h = Fraction(1, 2)
    return contract_sum(g.chart, (1, 2), ("ia,jak->ijk", (ginv, dg), h),
                        ("ia,kaj->ijk", (ginv, dg), h), ("ia,ajk->ijk", (ginv, dg), -h))


def kahler_form(g: Tensor, J: Tensor) -> Tensor:
    return Tensor(g.chart, (0, 2), contract("ca,cb->ab", J, g))


def covariant_derivative_02(G: Tensor, t: Tensor) -> Tensor:
    """(nabla t)_cab = d_c t_ab - G^d_ca t_db - G^d_cb t_ad."""
    return contract_sum(t.chart, (0, 3), ("cab->cab", (partials(t.comps, t.chart),), 1),
                        ("dca,db->cab", (G, t), -1), ("dcb,ad->cab", (G, t), -1))


@dataclass
class KahlerFlags:
    hermitian: bool
    closed: bool
    parallel_J: bool
    integrable: bool


def kahler_check(g: Tensor, J: Tensor, gamma: Tensor) -> KahlerFlags:
    """The flags of (g, J); d omega_abc = d_a omega_bc + d_b omega_ca + d_c omega_ab
    is read on a < b < c, where it is the exterior derivative whenever omega is
    a 2-form, that is, whenever g is Hermitian."""
    herm = _hermitian_defect(g, J).is_zero()
    dom = partials(kahler_form(g, J).comps, g.chart)  # (a, b, c) -> d_a omega_bc
    d_omega = contract_sum(g.chart, (0, 3), ("abc->abc", (dom,), 1), ("bca->abc", (dom,), 1),
                           ("cab->abc", (dom,), 1))
    closed = not any(a < b < c for a, b, c in d_omega.comps)
    parallel = covariant_derivative_J(gamma, J).is_zero()
    integrable = nijenhuis(J).is_zero()
    return KahlerFlags(herm, closed, parallel, integrable)


# -- mobility ------------------------------------------------------------------


@dataclass
class MobilityResult:
    dim: int
    basis: list  # list of Tensor (0,2)
    dim_unconstrained: int
    stabilized: bool
    identity_included: bool
    verified: bool = None


def _theta(ginv: Tensor, comps):
    """theta = (1/4) tr(g^{-1} B) for the (0,2) components `comps` of B."""
    tot = ginv.chart.zero()
    for (a, b), p in ginv.comps.items():
        q = comps.get((b, a))
        if q is not None:
            tot = tot + p * q
    return tot * Fraction(1, 4)


def _subtract_lambda_terms(out, g, om, J, lam):
    """out_{cab} -= g_ac l_b + g_bc l_a + w_ac (Jl)_b + w_bc (Jl)_a.

    The right-hand side of the mobility equation; `lam` maps a direction to
    the component of the 1-form l and is linear over the polynomial ring."""
    jlam = {}
    for (a, j), q in J.comps.items():
        la = lam.get(a)
        if la is None:
            continue
        accumulate(jlam, j, la * q)
    for (a, c), p in g.comps.items():
        for b, lb in lam.items():
            accumulate(out, (c, a, b), -(p * lb))
            accumulate(out, (c, b, a), -(p * lb))
    for (a, c), p in om.comps.items():
        for b, lb in jlam.items():
            accumulate(out, (c, a, b), -(p * lb))
            accumulate(out, (c, b, a), -(p * lb))


def _mobility_operator(g, ginv, J, gamma):
    """B -> nabla B minus the right-hand side of the mobility equation, all
    on `contract`: theta = (1/4) g^ab B_ab, l = d theta and the terms
    g_ac l_b + w_ac (Jl)_b, each added with its mirror in (a, b)."""
    chart = g.chart
    w = contract("ca,cb->ab", J, g)  # w(X, Y) = g(JX, Y)

    def apply(B: Tensor):
        theta = contract_sum(chart, (0, 0), ("ab,ab->", (ginv, B), Fraction(1, 4)))
        lam = partials(theta.comps, chart)
        jlam = contract("a,aj->j", lam, J)
        return contract_sum(chart, (0, 3), ("cab->cab", (covariant_derivative_02(gamma, B),), 1),
                            ("ac,b->cab", (g, lam), -1), ("bc,a->cab", (g, lam), -1),
                            ("ac,b->cab", (w, jlam), -1), ("bc,a->cab", (w, jlam), -1))

    return apply


def _hermitian_defect(B: Tensor, J: Tensor):
    """B(J., J.) - B on the components a <= b."""
    out = Tensor(B.chart, (0, 2), contract("ca,db,cd->ab", J, J, B)) - B
    return Tensor(B.chart, (0, 2), {k: p for k, p in out.comps.items() if k[0] <= k[1]})


# The mobility operator is of first order and linear over the polynomial
# ring, so on the column B = x^e E_ab (E_ab the symmetric unit, a <= b) it is
#
#     EQ(B) = x^e S0(ab) + sum_l e_l x^(e-1_l) S1(ab, l),    HERM(B) = x^e H(ab)
#
# with S0(ab) = -Gamma^d_cx E_dy - Gamma^d_cy E_xd + R(d theta_ab),
# S1(ab, l) = dx^l (x) E_ab + R(theta_ab dx^l), where theta_ab = theta(E_ab)
# and R is the right-hand side (`_subtract_lambda_terms`).  `SystemBuilder`
# shifts and scales these symbols over their uses; `_mobility_operator` and
# `_hermitian_defect` are the generic route that re-verifies the solutions,
# written on `contract` and sharing none of these helpers.


def _mobility_closures(g, ginv, J, gamma):
    """(pairs, with_herm, eq_only): the pairs a <= b in column order, and the
    operators apply(columns) of (EQ, HERM) and of EQ alone on the columns
    x^e E_ab, whose direction is the pair (a, b).

    Every column E_ab is symmetric, and so is each term of EQ in its last
    two indices: nabla_c keeps the symmetry of B, and the right-hand side
    adds its terms in mirrored pairs.  So only the EQ components (c, a, b)
    with a <= b are emitted; HERM lists a <= b already."""
    chart = g.chart
    d = chart.dim
    names = chart.table.names
    pairs = [(a, b) for a in range(d) for b in range(a, d)]
    om = kahler_form(g, J)
    one = chart.const(1)

    @cache
    def theta(ab):
        return _theta(ginv, {ab: one, ab[::-1]: one})

    @cache
    def symbol0(ab):
        E = {ab, ab[::-1]}
        eq = {}
        for u, v in E:
            for (i, c, k), G in gamma.comps.items():
                if i == u:
                    accumulate(eq, (c, k, v), -G)
                if i == v:
                    accumulate(eq, (c, u, k), -G)
        lam = {}
        for l, name in enumerate(names):
            q = theta(ab).derivative(name)
            if q:
                lam[l] = q
        _subtract_lambda_terms(eq, g, om, J, lam)
        herm = {}
        for (u, x), s in J.comps.items():
            for (v, y), t in J.comps.items():
                if x <= y and (u, v) in E:
                    accumulate(herm, (x, y), s * t)
        for x, y in E:
            if x <= y:
                accumulate(herm, (x, y), -one)
        return eq, herm

    @cache
    def symbol1(ab, l):
        eq = {(l, x, y): one for x, y in {ab, ab[::-1]}}
        th = theta(ab)
        if th:
            _subtract_lambda_terms(eq, g, om, J, {l: th})
        return eq, {}

    with_herm = _column_operator(("EQ", "HERM"), symbol0, symbol1, symmetric=("EQ",))
    eq_only = _column_operator(
        ("EQ",), lambda ab: symbol0(ab)[:1], lambda ab, l: symbol1(ab, l)[:1], symmetric=("EQ",)
    )
    return pairs, with_herm, eq_only


def mobility_dimension(spec, stabilize=True):
    """Exact solution space of the mobility equation over the total-degree
    ansatz of the manifest's `degree` (at least 2)."""
    g, J = spec.metric, spec.J
    chart = g.chart
    ginv, gamma = spec.metric_inverse, spec.gamma
    ansatz = AnsatzSpace(chart, total_degree=max(2, spec.degrees.get("degree", 2)))
    pairs, with_herm, eq_only = _mobility_closures(g, ginv, J, gamma)

    def solve(ans, operator):
        fields, _ = solve_field_system(spec, operator, ans, directions=pairs)
        return [
            Tensor(chart, (0, 2), {
                key: poly for ab, poly in f.items() for key in {ab, ab[::-1]}
            })
            for f in fields
        ]

    basis = solve(ansatz, with_herm)
    unconstrained = solve(ansatz, eq_only)
    hermitian = list(basis)
    stab = None
    if stabilize:
        bigger = solve(ansatz.enlarged(), with_herm)
        stab = len(bigger) == len(basis)
        hermitian += bigger
    op = _mobility_operator(g, ginv, J, gamma)
    verified = all(op(B).is_zero() for B in hermitian + unconstrained) and all(
        _hermitian_defect(B, J).is_zero() for B in hermitian
    )
    span = SpanSolver()
    for B in basis:
        span.insert(field_coordinates(B.comps))
    ident = span.contains(field_coordinates(g.comps))
    return MobilityResult(
        dim=len(basis),
        basis=basis,
        dim_unconstrained=len(unconstrained),
        stabilized=stab,
        identity_included=ident,
        verified=verified,
    )


def mobility_equation_holds(spec, B: Tensor) -> bool:
    op = _mobility_operator(spec.metric, spec.metric_inverse, spec.J, spec.gamma)
    return op(B).is_zero()


# -- parallel forms -----------------------------------------------------------------


def parallel_forms(spec):
    """Exact kernel of nabla alpha = 0 on 1-forms over the total-degree ansatz
    of the manifest's `degree` (at least 2).

    On the column x^e dx^a, (nabla alpha)_bk = d_b alpha_k - G^c_bk alpha_c has
    the symbols S0(a) = -G^a_bk on (b, k) and S1(a, l) = 1 on (l, a)."""
    chart = spec.chart
    gamma = spec.gamma
    one = chart.const(1)

    def symbol0(a):
        return ({(b, k): -p for (c, b, k), p in gamma.comps.items() if c == a},)

    def symbol1(a, l):
        return ({(l, a): one},)

    ansatz = AnsatzSpace(chart, total_degree=max(2, spec.degrees.get("degree", 2)))
    forms, _ = solve_field_system(
        spec, _column_operator(("PAR",), symbol0, symbol1), ansatz
    )
    return [
        Tensor(chart, (0, 1), {(a,): poly for a, poly in f.items()}) for f in forms
    ]


def parallel_forms_hold(spec, forms):
    """Every 1-form alpha in `forms` has (nabla alpha)_ba = d_b alpha_a -
    Gamma^c_ba alpha_c = 0, written on `partials` and `contract`: the check
    shares no code with the symbols of `parallel_forms`."""
    chart, gamma = spec.chart, spec.gamma
    return all(
        Tensor(chart, (0, 2), partials(alpha.comps, chart))
        == Tensor(chart, (0, 2), contract("cba,c->ba", gamma, alpha))
        for alpha in forms
    )


# -- equivalent-metric family ----------------------------------------------------------


def parallel_complex_indices(n):
    """Complex coordinate directions whose dz is parallel for the submaximal
    metric: the first one and every direction from the third on (1-based)."""
    return [1] + list(range(3, n + 1))


def equivalent_metric_family(spec, c_matrix):
    """g-hat = g + sum c_kl dz_k dzbar_l over the parallel directions.

    `c_matrix` maps (k, l) in parallel-index pairs to the rational pair
    (re, im) of c_kl, with Hermitian symmetry c_lk = conj(c_kl); only
    k <= l entries need be given.  Returns (ghat tensor, A tensor,
    B = g(A.,.)) after verifying the member is parallel, shares the
    Levi-Civita connection, and solves the mobility equation exactly.
    """
    g, J = spec.metric, spec.J
    chart = g.chart
    n = chart.n_complex()
    par = parallel_complex_indices(n)
    unit = LaurentPoly.var(complex_table(n), "I")
    comps = {}
    for (k, l), (re, im) in c_matrix.items():
        if k not in par or l not in par:
            raise ValueError(f"({k},{l}) is not a parallel direction pair")
        comps[(k - 1, n + l - 1)] = re + unit * im
        if k != l:
            comps[(l - 1, n + k - 1)] = re - unit * im
    quad = complex_tensor_to_real(chart, (0, 2), comps) if comps else Tensor(
        chart, (0, 2), {}
    )
    ghat = g + quad
    gamma = spec.gamma
    # the added quadric must be parallel, so the connection is unchanged
    if not covariant_derivative_02(gamma, quad).is_zero():
        raise ValueError("family member is not parallel for the base connection")
    ghat_inv = metric_inverse(ghat)
    if levi_civita(ghat, ghat_inv) != gamma:
        raise ValueError("family member does not share the Levi-Civita connection")
    # A = ghat^{-1} g, lowered with g
    A = Tensor(chart, (1, 1), contract("ia,aj->ij", ghat_inv, g))
    B = Tensor(chart, (0, 2), contract("ca,cb->ab", A, g))
    return ghat, A, B


def gram_signature_at(g: Tensor, point):
    d = g.chart.dim
    return signature([[g.get(a, b).evaluate(point) for b in range(d)] for a in range(d)])


def origin_point(chart):
    return {name: Fraction(0) for name in chart.table.names}
