"""Pseudo-Kahler machinery: Levi-Civita, mobility, parallel forms, families.

The mobility equation is solved in the lowered picture: the unknown is a
symmetric J-invariant (0,2)-tensor B = g(A., .) with

    (nabla_c B)_{ab} = g_{ac} l_b + g_{bc} l_a + w_{ac} (Jl)_b + w_{bc} (Jl)_a,

where l = d(theta), theta = (1/4) tr(g^{-1} B), and w(X,Y) = g(JX,Y).  The
solution space always contains B = g, and its dimension is the degree of
mobility.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache

from .linalg import SpanSolver, signature
from .poly import LaurentPoly, PolyError, accumulate
from .scalars import GaussQ
from .symsolve import AnsatzSpace, _column_operator, solve_field_system
from .tensorcalc import (
    Tensor,
    complex_tensor_to_real,
    covariant_derivative_J,
    invert_matrix_ring,
    nijenhuis,
)


def metric_inverse(g: Tensor) -> Tensor:
    chart = g.chart
    d = chart.dim
    rows = [[g.get(a, b) for b in range(d)] for a in range(d)]
    inv = invert_matrix_ring(rows, chart)
    comps = {}
    for a in range(d):
        for b in range(d):
            if not inv[a][b].is_zero():
                comps[(a, b)] = inv[a][b]
    return Tensor(chart, (2, 0), comps)


def levi_civita(g: Tensor, ginv: Tensor = None) -> Tensor:
    chart = g.chart
    d = chart.dim
    names = chart.table.names
    if ginv is None:
        ginv = metric_inverse(g)
    dg = {}
    for (a, b), p in g.comps.items():
        for c in range(d):
            q = p.derivative(names[c])
            if not q.is_zero():
                dg[(c, a, b)] = q
    comps = {}
    half = GaussQ("1/2")
    for i in range(d):
        for j in range(d):
            for k in range(d):
                tot = chart.zero()
                for (a2, p) in [(a, q) for (i2, a), q in ginv.comps.items() if i2 == i]:
                    t1 = dg.get((j, a2, k))
                    t2 = dg.get((k, a2, j))
                    t3 = dg.get((a2, j, k))
                    s = chart.zero()
                    if t1 is not None:
                        s = s + t1
                    if t2 is not None:
                        s = s + t2
                    if t3 is not None:
                        s = s - t3
                    if not s.is_zero():
                        tot = tot + p * s
                if not tot.is_zero():
                    comps[(i, j, k)] = tot * half
    return Tensor(chart, (1, 2), comps)


def kahler_form(g: Tensor, J: Tensor) -> Tensor:
    comps = {}
    for (c, a), p in J.comps.items():
        for (c2, b), q in g.comps.items():
            if c2 != c:
                continue
            accumulate(comps, (a, b), p * q)
    return Tensor(g.chart, (0, 2), comps)


def covariant_derivative_02(G: Tensor, t: Tensor) -> Tensor:
    chart = t.chart
    d = chart.dim
    names = chart.table.names
    out = {}

    for (a, b), p in t.comps.items():
        for c in range(d):
            q = p.derivative(names[c])
            if not q.is_zero():
                accumulate(out, (c, a, b), q)
    for (dd, c, a), p in G.comps.items():
        for (d2, b), q in t.comps.items():
            if d2 != dd:
                continue
            accumulate(out, (c, a, b), -(p * q))
    for (dd, c, b), p in G.comps.items():
        for (a, d2), q in t.comps.items():
            if d2 != dd:
                continue
            accumulate(out, (c, a, b), -(p * q))
    return Tensor(chart, (0, 3), out)


@dataclass
class KahlerFlags:
    hermitian: bool
    closed: bool
    parallel_J: bool
    integrable: bool

    def all_pass(self):
        return self.hermitian and self.closed and self.parallel_J and self.integrable


def kahler_check(g: Tensor, J: Tensor, gamma: Tensor = None) -> KahlerFlags:
    chart = g.chart
    d = chart.dim
    herm = True
    for a in range(d):
        for b in range(a, d):
            tot = chart.zero()
            for (c, a2), p in J.comps.items():
                if a2 != a:
                    continue
                for (dd, b2), q in J.comps.items():
                    if b2 != b:
                        continue
                    gc = g.comps.get((c, dd))
                    if gc is not None:
                        tot = tot + p * q * gc
            if not (tot - g.get(a, b)).is_zero():
                herm = False
                break
        if not herm:
            break
    om = kahler_form(g, J)
    names = chart.table.names
    closed = True
    for a in range(d):
        for b in range(a + 1, d):
            for c in range(b + 1, d):
                tot = (
                    om.get(b, c).derivative(names[a])
                    + om.get(c, a).derivative(names[b])
                    + om.get(a, b).derivative(names[c])
                )
                if not tot.is_zero():
                    closed = False
    if gamma is None:
        gamma = levi_civita(g)
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
    records: list = field(default_factory=list)  # (theta, lam, grad) per solution
    verified: bool = None


def _sym_tensor_basis(chart, exps, a, b):
    p = LaurentPoly(chart.table, {exps: GaussQ(1)})
    comps = {(a, b): p}
    if a != b:
        comps[(b, a)] = p
    return Tensor(chart, (0, 2), comps)


def _theta(ginv: Tensor, comps):
    """theta = (1/4) tr(g^{-1} B) for the (0,2) components `comps` of B."""
    tot = ginv.chart.zero()
    for (a, b), p in ginv.comps.items():
        q = comps.get((b, a))
        if q is not None:
            tot = tot + p * q
    return tot * GaussQ("1/4")


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
    chart = g.chart
    d = chart.dim
    names = chart.table.names
    om = kahler_form(g, J)

    def apply(B: Tensor):
        nb = covariant_derivative_02(gamma, B)
        theta = _theta(ginv, B.comps)
        lam = {
            a: theta.derivative(names[a])
            for a in range(d)
            if not theta.derivative(names[a]).is_zero()
        }
        out = dict(nb.comps)
        _subtract_lambda_terms(out, g, om, J, lam)
        return Tensor(chart, (0, 3), out)

    return apply


def _hermitian_defect(B: Tensor, J: Tensor):
    chart = B.chart
    d = chart.dim
    out = {}
    for a in range(d):
        for b in range(a, d):
            tot = chart.zero() - B.get(a, b)
            for (c, a2), p in J.comps.items():
                if a2 != a:
                    continue
                for (dd, b2), q in J.comps.items():
                    if b2 != b:
                        continue
                    bc = B.comps.get((c, dd))
                    if bc is not None:
                        tot = tot + p * q * bc
            if not tot.is_zero():
                out[(a, b)] = tot
    return Tensor(chart, (0, 2), out)


# The mobility operator is of first order and linear over the polynomial
# ring, so on the column B = x^e E_ab (E_ab the symmetric unit, a <= b) it is
#
#     EQ(B) = x^e S0(ab) + sum_l e_l x^(e-1_l) S1(ab, l),    HERM(B) = x^e H(ab)
#
# with S0(ab) = -Gamma^d_cx E_dy - Gamma^d_cy E_xd + R(d theta_ab),
# S1(ab, l) = dx^l (x) E_ab + R(theta_ab dx^l), where theta_ab = theta(E_ab)
# and R is the right-hand side (`_subtract_lambda_terms`).  The column
# closures shift and scale these symbols; `_mobility_operator` and
# `_hermitian_defect` are the generic route that re-verifies the solutions.


def _mobility_closures(g, ginv, J, gamma):
    """(pairs, with_herm, eq_only): the pairs a <= b in column order, and the
    column closures apply(exps, p) of (EQ, HERM) and of EQ alone on the
    column x^e E_ab, (a, b) = pairs[p]."""
    chart = g.chart
    d = chart.dim
    names = chart.table.names
    pairs = [(a, b) for a in range(d) for b in range(a, d)]
    om = kahler_form(g, J)
    one = chart.const(1)

    def unit(p):
        a, b = pairs[p]
        return {(a, b), (b, a)}

    @cache
    def theta(p):
        return _theta(ginv, {key: one for key in unit(p)})

    @cache
    def symbol0(p):
        E = unit(p)
        eq = {}
        for u, v in E:
            for (i, c, k), G in gamma.comps.items():
                if i == u:
                    accumulate(eq, (c, k, v), -G)
                if i == v:
                    accumulate(eq, (c, u, k), -G)
        lam = {}
        for l, name in enumerate(names):
            q = theta(p).derivative(name)
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
    def symbol1(p, l):
        eq = {(l, x, y): one for x, y in unit(p)}
        th = theta(p)
        if th:
            _subtract_lambda_terms(eq, g, om, J, {l: th})
        return eq, {}

    with_herm = _column_operator(chart, ("EQ", "HERM"), symbol0, symbol1)
    eq_only = _column_operator(
        chart, ("EQ",), lambda p: symbol0(p)[:1], lambda p, l: symbol1(p, l)[:1]
    )
    return pairs, with_herm, eq_only


def mobility_dimension(spec, ansatz: AnsatzSpace = None, stabilize=True):
    """Exact solution space of the mobility equation over the ansatz."""
    g, J = spec.metric, spec.J
    chart = g.chart
    d = chart.dim
    ginv = metric_inverse(g)
    gamma = levi_civita(g, ginv)
    if ansatz is None:
        deg = max(2, spec.degrees.get("degree", 2))
        ansatz = AnsatzSpace(chart, total_degree=deg)
    pairs, with_herm, eq_only = _mobility_closures(g, ginv, J, gamma)

    def solve(ans, operator):
        fields, _ = solve_field_system(spec, operator, ans, ndirs=len(pairs))
        return [
            Tensor(chart, (0, 2), {
                key: poly for p, poly in f.items() for key in {pairs[p], pairs[p][::-1]}
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
        span.insert(tensor_coordinates(B))
    ident = span.contains(tensor_coordinates(g))
    names = chart.table.names
    records = []
    for B in basis:
        theta = _theta(ginv, B.comps)
        lam = {a: theta.derivative(names[a]) for a in range(d)}
        grad = {}
        for (i, a), p in ginv.comps.items():
            la = lam.get(a)
            if la is None or la.is_zero():
                continue
            accumulate(grad, i, p * la)
        records.append((theta, lam, grad))
    return MobilityResult(
        dim=len(basis),
        basis=basis,
        dim_unconstrained=len(unconstrained),
        stabilized=stab,
        identity_included=ident,
        records=records,
        verified=verified,
    )


def tensor_coordinates(t: Tensor):
    out = {}
    for key, p in t.comps.items():
        for e, c in p.terms.items():
            out[(key, e)] = c
    return out


def mobility_equation_holds(spec, B: Tensor) -> bool:
    g, J = spec.metric, spec.J
    ginv = metric_inverse(g)
    gamma = levi_civita(g, ginv)
    op = _mobility_operator(g, ginv, J, gamma)
    return op(B).is_zero()


# -- parallel forms -----------------------------------------------------------------


def parallel_forms(spec, ansatz: AnsatzSpace = None):
    """Exact kernel of nabla alpha = 0 on 1-forms over the ansatz."""
    g = spec.metric
    chart = g.chart
    gamma = levi_civita(g)
    d = chart.dim
    names = chart.table.names
    if ansatz is None:
        ansatz = AnsatzSpace(chart, total_degree=max(2, spec.degrees.get("degree", 2)))

    def apply(exps, a):
        mono = LaurentPoly(chart.table, {exps: GaussQ(1)})
        out = {}
        for b in range(d):
            q = mono.derivative(names[b])
            if not q.is_zero():
                out[(b, a)] = q
        for (c, b, k), p in gamma.comps.items():
            if c != a:
                continue
            accumulate(out, (b, k), -(p * mono))
        return [("PAR", out)]

    forms, _ = solve_field_system(spec, apply, ansatz)
    return [
        Tensor(chart, (0, 1), {(a,): poly for a, poly in f.items()}) for f in forms
    ]


# -- equivalent-metric family ----------------------------------------------------------


def parallel_complex_indices(n):
    """Complex coordinate directions whose dz is parallel for the submaximal
    metric: the first one and every direction from the third on (1-based)."""
    return [1] + list(range(3, n + 1))


def equivalent_metric_family(spec, c_matrix):
    """g-hat = g + sum c_kl dz_k dzbar_l over the parallel directions.

    `c_matrix` maps (k, l) in parallel-index pairs to GaussQ with Hermitian
    symmetry c_lk = conj(c_kl); only k <= l entries need be given.  Returns
    (ghat tensor, A tensor, B = g(A.,.)) after verifying the member is
    parallel, shares the Levi-Civita connection, and solves the mobility
    equation exactly.
    """
    g, J = spec.metric, spec.J
    chart = g.chart
    n = chart.n_complex()
    par = parallel_complex_indices(n)
    comps = {}
    for (k, l), c in c_matrix.items():
        c = GaussQ.of(c)
        if k not in par or l not in par:
            raise ValueError(f"({k},{l}) is not a parallel direction pair")
        comps[(k - 1, n + l - 1)] = LaurentPoly.const(
            _ztab_cache(n), c
        )
        if k != l:
            comps[(l - 1, n + k - 1)] = LaurentPoly.const(_ztab_cache(n), c.conj())
    quad = complex_tensor_to_real(chart, (0, 2), comps) if comps else Tensor(
        chart, (0, 2), {}
    )
    ghat = g + quad
    gamma = levi_civita(g)
    # the added quadric must be parallel, so the connection is unchanged
    if not covariant_derivative_02(gamma, quad).is_zero():
        raise ValueError("family member is not parallel for the base connection")
    ghat_inv = metric_inverse(ghat)
    if levi_civita(ghat, ghat_inv) != gamma:
        raise ValueError("family member does not share the Levi-Civita connection")
    # A = ghat^{-1} g, lowered with g
    A = {}
    for (i, a), p in ghat_inv.comps.items():
        for (a2, j), q in g.comps.items():
            if a2 != a:
                continue
            accumulate(A, (i, j), p * q)
    At = Tensor(chart, (1, 1), A)
    B = {}
    for (c2, a), p in At.comps.items():
        for (c3, b), q in g.comps.items():
            if c3 != c2:
                continue
            accumulate(B, (a, b), p * q)
    Bt = Tensor(chart, (0, 2), B)
    return ghat, At, Bt


_ZT = {}


def _ztab_cache(n):
    from .tensorcalc import complex_table

    if n not in _ZT:
        _ZT[n] = complex_table(n)
    return _ZT[n]


def gram_signature_at(g: Tensor, point):
    d = g.chart.dim
    rows = []
    for a in range(d):
        row = []
        for b in range(d):
            v = g.get(a, b).evaluate(point)
            if not v.is_real():
                raise PolyError("metric evaluation must be real")
            row.append(v.re)
        rows.append(row)
    return signature(rows)


def origin_point(chart):
    return {name: Fraction(0) for name in chart.table.names}
