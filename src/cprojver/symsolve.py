"""Exact kernels of symmetry PDE systems over finite ansatz spaces.

Every tensor equation is linear in the unknown vector field (or tensor), so a
finite ansatz turns it into exact linear algebra: the operator is applied to
each ansatz basis element, rows are matched monomial by monomial (after
clearing declared denominators row-wise), and the kernel is computed by sparse
exact elimination.  Kernel dimensions are lower bounds for the true solution
space; together with an algebraic upper bound and degree stabilization they
certify exactness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from .linalg import LinearSystem, SpanSolver
from .poly import LaurentPoly, PolyError, _mul_terms, accumulate
from .scalars import GaussQ
from .tensorcalc import (
    Tensor,
    lie_derivative_J,
    lie_derivative_connection,
    lie_derivative_metric,
)


class AnsatzSpace:
    """Finite monomial space from per-variable exponent bounds.

    `bounds` maps a variable name to (min, max); unlisted variables get
    (0, total_degree).  When `total_degree` is set, the sum of non-negative
    exponents is also capped.  Enumeration order is deterministic.
    """

    def __init__(self, chart, total_degree=None, bounds=None):
        self.chart = chart
        self.total_degree = total_degree
        self.bounds = dict(bounds or {})
        t = chart.table
        ranges = []
        for name, lau in zip(t.names, t.laurent):
            if name in self.bounds:
                lo, hi = self.bounds[name]
            elif total_degree is not None:
                lo, hi = 0, total_degree
            else:
                raise PolyError(f"no degree bound for variable {name}")
            if lo < 0 and not lau:
                raise PolyError(f"negative bound on ordinary variable {name}")
            ranges.append(range(lo, hi + 1))
        self.monomials = []
        for exps in product(*ranges):
            if total_degree is not None:
                if sum(e for e in exps if e > 0) > total_degree:
                    continue
            self.monomials.append(tuple(exps))
        self.monomials.sort()

    def enlarged(self, extra=1):
        td = None if self.total_degree is None else self.total_degree + extra
        bounds = {
            name: (lo - extra if lo < 0 else 0, hi + extra)
            for name, (lo, hi) in self.bounds.items()
        }
        return AnsatzSpace(self.chart, total_degree=td, bounds=bounds)

    def monomial_poly(self, exps):
        return LaurentPoly(self.chart.table, {exps: GaussQ(1)})

    def __len__(self):
        return len(self.monomials)


@dataclass
class SymmetryResult:
    dim: int
    basis: list  # list of field dicts {direction index: LaurentPoly}
    stabilized: bool = None
    closed_under_bracket: bool = None
    verified: bool = None
    extra: dict = field(default_factory=dict)


class SystemBuilder:
    """Collects operator outputs per unknown column, then emits exact rows."""

    def __init__(self):
        self.eqs = {}  # (tag, comp) -> {col: poly}
        self.ncols = 0

    def column(self):
        c = self.ncols
        self.ncols += 1
        return c

    def add_output(self, col, tag, tensor: Tensor):
        for comp, p in tensor.comps.items():
            self.eqs.setdefault((tag, comp), {})[col] = p

    def kernel(self):
        sys = LinearSystem()
        sys.register_columns(range(self.ncols))
        for (tag, comp), cols in sorted(
            self.eqs.items(), key=lambda kv: (kv[0][0], kv[0][1])
        ):
            den_max = None
            for p in cols.values():
                den_max = (
                    p.den
                    if den_max is None
                    else tuple(max(a, b) for a, b in zip(den_max, p.den))
                )
            rows = {}
            for col, p in cols.items():
                terms = _raise_denominator(p, den_max)
                for exps, c in terms.items():
                    if not c.is_real():
                        raise PolyError("system coefficients must be real")
                    if c.re:
                        rows.setdefault(exps, {})[col] = c.re
            for exps in sorted(rows):
                sys.add_row(rows[exps])
        return sys.kernel(), sys


def _raise_denominator(p: LaurentPoly, den_target):
    terms = dict(p.terms)
    for k, (have, want) in enumerate(zip(p.den, den_target)):
        for _ in range(want - have):
            dk = dict(p.table.den_terms[k])
            terms = _mul_terms(terms, dk)
    return terms


# -- operators -------------------------------------------------------------------


def cproj_operator(spec):
    """v -> (L_v J, the symmetry-equation tensor of the connection)."""
    chart = spec.chart
    n = chart.n_complex()
    J = spec.J
    G = spec.gamma
    dim = chart.dim
    scale = GaussQ(Fraction(1, 2 * (n + 1)))

    def apply(v):
        lj = lie_derivative_J(v, J)
        om = lie_derivative_connection(v, G)
        phi = {}
        for (i, j, k), p in om.comps.items():
            if k == i:
                s = phi.get(j)
                s = p if s is None else s + p
                if s.is_zero():
                    phi.pop(j, None)
                else:
                    phi[j] = s
        phi = {j: p * scale for j, p in phi.items()}
        sig = {}
        for (a, j), q in J.comps.items():
            pa = phi.get(a)
            if pa is None:
                continue
            s = sig.get(j)
            v2 = pa * q
            s = v2 if s is None else s + v2
            if s.is_zero():
                sig.pop(j, None)
            else:
                sig[j] = s
        out = dict(om.comps)

        for j, p in phi.items():
            for i in range(dim):
                accumulate(out, (i, j, i), -p)
                accumulate(out, (i, i, j), -p)
        for j, p in sig.items():
            for (i, k), q in J.comps.items():
                accumulate(out, (i, j, k), p * q)
                accumulate(out, (i, k, j), p * q)
        return [("LJ", lj), ("CP", Tensor(chart, (1, 2), out))]

    return apply


def killing_operator(spec, holomorphic=True):
    J, g = spec.J, spec.metric

    def apply(v):
        out = [("LG", lie_derivative_metric(v, g))]
        if holomorphic:
            out.insert(0, ("LJ", lie_derivative_J(v, J)))
        return out

    return apply


def affine_operator(spec):
    J, G = spec.J, spec.gamma

    def apply(v):
        return [("LJ", lie_derivative_J(v, J)), ("LG", lie_derivative_connection(v, G))]

    return apply


def solve_field_system(spec, operator, ansatz, extra_metric_scale=None):
    """Kernel of a linear operator on vector fields over the ansatz space.

    With `extra_metric_scale` (the metric tensor), one extra scalar unknown c
    is appended and the equation tagged "LG" becomes L_v g - c g = 0.
    """
    chart = spec.chart
    dim = chart.dim
    builder = SystemBuilder()
    cols = []
    for exps in ansatz.monomials:
        mono = ansatz.monomial_poly(exps)
        for i in range(dim):
            col = builder.column()
            cols.append((exps, i))
            for tag, tensor in operator({i: mono}):
                builder.add_output(col, tag, tensor)
    if extra_metric_scale is not None:
        col = builder.column()
        cols.append(("scale", None))
        builder.add_output(
            col, "LG", extra_metric_scale.scale(-1)
        )
    kernel, _ = builder.kernel()
    basis = []
    scales = []
    for vec in kernel:
        f = {}
        scale_c = Fraction(0)
        for c, val in vec.items():
            key = cols[c]
            if key[0] == "scale":
                scale_c = val
                continue
            exps, i = key
            cur = f.get(i)
            mono = LaurentPoly(chart.table, {exps: GaussQ(val)})
            f[i] = mono if cur is None else cur + mono
        basis.append({i: p for i, p in f.items() if not p.is_zero()})
        scales.append(scale_c)
    return basis, scales


def field_coordinates(f):
    out = {}
    for i, p in f.items():
        for exps, c in p.terms.items():
            out[(i, exps)] = c
    return out


def bracket_fields(chart, v, w):
    names = chart.table.names
    out = {}
    for a, p in v.items():
        for b, q in w.items():
            r = p * q.derivative(names[a])
            s = out.get(b)
            s = r if s is None else s + r
            if s.is_zero():
                out.pop(b, None)
            else:
                out[b] = s
    for a, p in w.items():
        for b, q in v.items():
            r = p * q.derivative(names[a])
            s = out.get(b)
            s = (-r) if s is None else s - r
            if s.is_zero():
                out.pop(b, None)
            else:
                out[b] = s
    return out


def check_bracket_closure(chart, basis):
    span = SpanSolver()
    for f in basis:
        if not span.insert(field_coordinates(f)):
            return False
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            br = bracket_fields(chart, basis[i], basis[j])
            if br and not span.contains(field_coordinates(br)):
                return False
    return True


def verify_fields(operator, basis):
    for f in basis:
        for _, tensor in operator(f):
            if not tensor.is_zero():
                return False
    return True


def cproj_system(spec, ansatz, stabilize=True, check_closure=True):
    op = cproj_operator(spec)
    basis, _ = solve_field_system(spec, op, ansatz)
    stab = None
    if stabilize:
        bigger, _ = solve_field_system(spec, op, ansatz.enlarged())
        stab = len(bigger) == len(basis)
    closed = check_bracket_closure(spec.chart, basis) if check_closure else None
    return SymmetryResult(
        dim=len(basis),
        basis=basis,
        stabilized=stab,
        closed_under_bracket=closed,
        verified=verify_fields(op, basis),
    )


def killing_system(spec, ansatz, stabilize=True, holomorphic=True):
    op = killing_operator(spec, holomorphic=holomorphic)
    basis, _ = solve_field_system(spec, op, ansatz)
    stab = None
    if stabilize:
        bigger, _ = solve_field_system(spec, op, ansatz.enlarged())
        stab = len(bigger) == len(basis)
    return SymmetryResult(
        dim=len(basis),
        basis=basis,
        stabilized=stab,
        verified=verify_fields(op, basis),
    )


def affine_system(spec, ansatz, stabilize=True):
    op = affine_operator(spec)
    basis, _ = solve_field_system(spec, op, ansatz)
    stab = None
    if stabilize:
        bigger, _ = solve_field_system(spec, op, ansatz.enlarged())
        stab = len(bigger) == len(basis)
    return SymmetryResult(
        dim=len(basis),
        basis=basis,
        stabilized=stab,
        verified=verify_fields(op, basis),
    )


def homothety_system(spec, ansatz, stabilize=True, holomorphic=True):
    op = killing_operator(spec, holomorphic=holomorphic)
    basis, scales = solve_field_system(
        spec, op, ansatz, extra_metric_scale=spec.metric
    )
    # drop pure-scale kernel vectors (c != 0 with zero field cannot occur
    # unless g = 0; keep fields only)
    fields = [f for f in basis if f]
    stab = None
    if stabilize:
        bigger, _ = solve_field_system(
            spec, op, ansatz.enlarged(), extra_metric_scale=spec.metric
        )
        stab = len(bigger) == len(basis)
    return SymmetryResult(
        dim=len(fields),
        basis=fields,
        stabilized=stab,
        extra={"scales": scales},
    )


def field_in_span(chart, basis, f):
    span = SpanSolver()
    for b in basis:
        span.insert(field_coordinates(b))
    return span.contains(field_coordinates(f))


def span_equals(chart, basis_a, basis_b):
    sa = SpanSolver()
    for b in basis_a:
        sa.insert(field_coordinates(b))
    sb = SpanSolver()
    for b in basis_b:
        sb.insert(field_coordinates(b))
    if sa.dim() != sb.dim():
        return False
    return all(sa.contains(field_coordinates(b)) for b in basis_b)


def phi_map(v, g: Tensor, ginv: Tensor):
    """Trace-free part of g^{-1} L_v g: the symmetry-to-mobility map."""
    chart = g.chart
    dim = chart.dim
    n = chart.n_complex()
    lg = lie_derivative_metric(v, g)
    A = {}
    for (i, a), p in ginv.comps.items():
        for (a2, b), q in lg.comps.items():
            if a2 != a:
                continue
            key = (i, b)
            s = A.get(key)
            v2 = p * q
            s = v2 if s is None else s + v2
            if s.is_zero():
                A.pop(key, None)
            else:
                A[key] = s
    tr = chart.zero()
    for (i, b), p in A.items():
        if i == b:
            tr = tr + p
    tr = tr * GaussQ(Fraction(1, 2 * (n + 1)))
    for i in range(dim):
        key = (i, i)
        s = A.get(key, chart.zero()) - tr
        if s.is_zero():
            A.pop(key, None)
        else:
            A[key] = s
    return Tensor(chart, (1, 1), A)
