"""Coordinate-chart tensor calculus over exact Laurent polynomial rings.

All computation happens in real coordinates, over rational coefficients.
Complex-notation input (models printed in z-coordinates, with the conjugate
half implied) is a polynomial in z, zb and the variable I; it is expanded at
ingestion through the fixed dictionary z^a = x^{2a-1} + i x^{2a}, by the
binomial theorem on Gaussian-int numerators, as S + conj(S): twice the real
part of the printed S, so every ingested tensor is real.

Every tensor formula of the generic route (torsion, curvature, the Nijenhuis
tensor, the torsion-type projections, the covariant derivatives, the moving
frame) is one `contract_sum`: a sum of scaled `contract` terms, a sparse
einsum over component dicts, added into one `ProductSum`.

Index conventions (all 0-based internally):

* connection: comp (i, j, k) is the coefficient of d_i in nabla_{d_j} d_k;
* torsion, Nijenhuis: comp (i, j, k) = value^i with arguments (d_j, d_k);
* curvature: comp (i, j, k, l) = coefficient of d_i in R(d_k, d_l) d_j;
* metric: comp (a, b) symmetric; J: comp (i, j) with J d_j = J^i_j d_i.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from operator import itemgetter

from .poly import LaurentPoly, PolyError, ProductSum, VarTable, accumulate, pack, unpack

_HALF = Fraction(1, 2)


class Chart:
    """Real coordinates with laurent flags, denominators, complex pairing."""

    def __init__(self, names, laurent=(), denominators=None):
        self.table = VarTable(names, laurent=laurent, denominators=denominators)
        self.dim = len(names)

    def zero(self):
        return LaurentPoly.zero(self.table)

    def const(self, c):
        return LaurentPoly.const(self.table, c)

    def var(self, name):
        return LaurentPoly.var(self.table, name)

    def n_complex(self):
        if self.dim % 2:
            raise PolyError("chart dimension is odd; no complex pairing")
        return self.dim // 2

    def __eq__(self, other):
        return isinstance(other, Chart) and self.table == other.table

    def __repr__(self):
        return f"Chart({' '.join(self.table.names)})"


@dataclass
class Tensor:
    """Sparse exact tensor: components keyed by full index tuples."""

    chart: Chart
    valence: tuple  # (upper, lower)
    comps: dict

    def __post_init__(self):
        self.comps = {k: v for k, v in self.comps.items() if not v.is_zero()}

    def get(self, *idx):
        return self.comps.get(tuple(idx), self.chart.zero())

    def is_zero(self):
        return not self.comps

    def __add__(self, other):
        out = dict(self.comps)
        for k, v in other.comps.items():
            accumulate(out, k, v)
        return Tensor(self.chart, self.valence, out)

    def __neg__(self):
        return Tensor(self.chart, self.valence, {k: -v for k, v in self.comps.items()})

    def __sub__(self, other):
        return self + -other

    def scale(self, c):
        return Tensor(self.chart, self.valence, {k: v * c for k, v in self.comps.items()})

    def __eq__(self, other):
        return (
            isinstance(other, Tensor)
            and self.valence == other.valence
            and (self - other).is_zero()
        )

    def proportional_to(self, other):
        """Exact constant ratio self = c*other, or None."""
        if other.is_zero():
            return Fraction(0) if self.is_zero() else None
        key = next(iter(other.comps))
        num = self.comps.get(key)
        if num is None:
            return None
        if not num.is_constant() and other.comps[key].is_constant():
            return None
        try:
            ratio = num / other.comps[key]
        except PolyError:
            return None
        if not ratio.is_constant():
            return None
        c = ratio.constant_value()
        return c if (other.scale(c) - self).is_zero() else None


# -- sparse index contraction ----------------------------------------------------


def contract(spec, *operands):
    """Sparse einsum: contract("ia,aj->ij", J, K) is sum_a J^i_a K^a_j.

    Each operand is a `Tensor` or a comps dict keyed by index tuples.  A
    letter shared by two operands is joined; a letter repeated in one operand
    takes its diagonal; a letter missing from the output is summed over.
    Returns the comps dict of the result, without zero entries: each output
    component is built once, by a `ProductSum` over the matches' factors.
    """
    acc = ProductSum()
    _contract_into(acc, spec, operands)
    return acc.result()


def contract_sum(chart, valence, *terms):
    """The tensor sum of scale * contract(spec, *operands) over the
    (spec, operands, scale) `terms`, each product added into one `ProductSum`:
    no term becomes a tensor of its own."""
    acc = ProductSum()
    for spec, operands, scale in terms:
        _contract_into(acc, spec, operands, scale)
    return Tensor(chart, valence, acc.result())


def _contract_into(acc, spec, operands, scale=1):
    """Add scale times the contraction `spec` of `operands` into the
    `ProductSum` acc, keyed by the output indices."""
    inputs, output = spec.split("->")
    # A row is the concatenated keys of one match of the operands so far and
    # the tuple of their values; `bound` is the concatenated index words.
    bound = ""
    rows = None
    for word, op in zip(inputs.split(","), operands, strict=True):
        items = (op.comps if isinstance(op, Tensor) else op).items()
        diag = [(p, word.index(c)) for p, c in enumerate(word) if word.index(c) != p]
        if diag:
            items = [(k, v) for k, v in items if all(k[p] == k[q] for p, q in diag)]
        if rows is None:
            rows = [(key, (val,)) for key, val in items]
        else:
            shared = [p for p, c in enumerate(word) if c in bound]
            key_of = _picker(shared)
            table = {}
            for key, val in items:
                table.setdefault(key_of(key), []).append((key, val))
            lookup = _picker([bound.index(word[p]) for p in shared])
            rows = [
                (env + key, vals + (val,))
                for env, vals in rows
                for key, val in table.get(lookup(env), ())
            ]
        bound += word
    out_key = _picker([bound.index(c) for c in output])
    for env, vals in rows:
        acc.add(out_key(env), vals, scale)


def _picker(positions):
    """key -> the tuple of the entries of `key` at `positions`."""
    if len(positions) == 1:
        (i,) = positions
        return lambda key: (key[i],)
    return itemgetter(*positions) if positions else lambda key: ()


def partials(comps, chart):
    """{(c,) + key: d_c p} over the chart's directions c, nonzero entries only."""
    names = chart.table.names
    out = {}
    for key, p in comps.items():
        for c in p.variables():
            q = p.derivative(names[c])
            if q:
                out[(c,) + key] = q
    return out


def standard_J(chart) -> Tensor:
    """J d_{2a} = d_{2a+1}, J d_{2a+1} = -d_{2a} (0-based pairs)."""
    n = chart.n_complex()
    comps = {}
    for a in range(n):
        comps[(2 * a + 1, 2 * a)] = chart.const(1)
        comps[(2 * a, 2 * a + 1)] = chart.const(-1)
    return Tensor(chart, (1, 1), comps)


def is_almost_complex(J: Tensor) -> bool:
    """J.J + Id = 0, summed in one `ProductSum`."""
    delta = {(i, i): J.chart.const(1) for i in range(J.chart.dim)}
    square = contract_sum(J.chart, (1, 1), ("ia,aj->ij", (J, J), 1), ("ij->ij", (delta,), 1))
    return square.is_zero()


def nijenhuis(J: Tensor) -> Tensor:
    """N^i_jk = Y^i_jk - Y^i_kj, Y^i_jk = J^a_j d_a J^i_k + J^i_a d_k J^a_j."""
    dJ = partials(J.comps, J.chart)  # (a, i, j) -> d_a J^i_j
    return contract_sum(J.chart, (1, 2), ("aj,aik->ijk", (J, dJ), 1), ("ak,aij->ijk", (J, dJ), -1),
                        ("ia,kaj->ijk", (J, dJ), 1), ("ia,jak->ijk", (J, dJ), -1))


def torsion(G: Tensor) -> Tensor:
    return contract_sum(G.chart, (1, 2), ("ijk->ijk", (G,), 1), ("ikj->ijk", (G,), -1))


def curvature(G: Tensor) -> Tensor:
    """R^i_jkl = X^i_jkl - X^i_jlk, X^i_jkl = d_k G^i_lj + G^i_ka G^a_lj."""
    dG = partials(G.comps, G.chart)  # (k, i, l, j) -> d_k G^i_lj
    return contract_sum(G.chart, (1, 3), ("kilj->ijkl", (dG,), 1), ("likj->ijkl", (dG,), -1),
                        ("ika,alj->ijkl", (G, G), 1), ("ila,akj->ijkl", (G, G), -1))


def torsion_projection(T: Tensor, J: Tensor, e1: int, e2: int) -> Tensor:
    """The (e1, e2) in {+1,-1}^2 linearity-type component of a (1,2)-tensor:

    P(X,Y) = 1/4 [ T(X,Y) - e1 J T(JX,Y) - e2 J T(X,JY) - e1 e2 T(JX,JY) ].
    """
    return contract_sum(T.chart, (1, 2), ("ijk->ijk", (T,), Fraction(1, 4)),
                        ("ia,abk,bj->ijk", (J, T, J), Fraction(-e1, 4)),
                        ("ia,ajb,bk->ijk", (J, T, J), Fraction(-e2, 4)),
                        ("iab,aj,bk->ijk", (T, J, J), Fraction(-e1 * e2, 4)))


def torsion_trace_form(T: Tensor, J: Tensor) -> Tensor:
    """sigma(X) = 1/2 Tr( T(X, .) + J T(JX, .) ) as a 1-form."""
    return contract_sum(T.chart, (0, 1), ("iji->j", (T,), _HALF),
                        ("ia,abi,bj->j", (J, T, J), _HALF))


def traceless_mixed_torsion(T: Tensor, J: Tensor) -> Tensor:
    """The antilinear-linear traceless torsion component:
    P^{-+}(T) - (1/2n)(sigma(X) Y + sigma(JX) JY)."""
    chart = T.chart
    sig = torsion_trace_form(T, J)
    delta = {(i, i): chart.const(1) for i in range(chart.dim)}
    scale = Fraction(-1, 2 * chart.n_complex())
    return contract_sum(chart, (1, 2), ("ijk->ijk", (torsion_projection(T, J, -1, +1),), 1),
                        ("j,ik->ijk", (sig, delta), scale),  # sigma(X) Y
                        ("a,aj,ik->ijk", (sig, J, J), scale))  # sigma(JX) JY


def curvature_J_pulled(R: Tensor, J: Tensor) -> Tensor:
    """R(J., J.) on the 2-form slots (k, l)."""
    return Tensor(R.chart, (1, 3), contract("ijkl,ka,lb->ijab", R, J, J))


def curvature_bidegree(R: Tensor, J: Tensor):
    """Split on the form slots: (1,1)-part and the (2,0)+(0,2)-part."""
    pulled = curvature_J_pulled(R, J)
    p11 = (R + pulled).scale(_HALF)
    p20 = (R - pulled).scale(_HALF)
    return {"(1,1)": p11, "(2,0)+(0,2)": p20}


# The Lie derivatives take a list of vector fields (dicts direction -> poly)
# and return one Tensor per field.  Every term is linear in v, so each is one
# contraction over the whole list, with the field index f as its first letter.


def _lie(fields, T, transport, slots, hessian=None):
    """L_v T for each v of `fields`: the contraction `transport` of (d T, v),
    each (spec, scale) of `slots` of (T, d v) and, for a connection, `hessian`
    of d d v, in one `ProductSum`; T's partials are taken once per call."""
    chart = T.chart
    vs = {(f, a): p for f, v in enumerate(fields) for a, p in v.items()}
    dv = partials(vs, chart)  # (b, f, a) -> d_b v^a of the f-th field
    acc = ProductSum()
    if hessian:
        _contract_into(acc, hessian, (partials(dv, chart),))
    _contract_into(acc, transport, (partials(T.comps, chart), vs))
    for spec, scale in slots:
        _contract_into(acc, spec, (T, dv), scale)
    comps = [{} for _ in fields]
    for key, p in acc.result().items():
        comps[key[0]][key[1:]] = p
    return [Tensor(chart, T.valence, c) for c in comps]


def lie_derivative_connection(fields, G: Tensor) -> list:
    """Omega^i_jk = d_j d_k v^i + v^a d_a G^i_jk - G^a_jk d_a v^i
    + G^i_ak d_j v^a + G^i_ja d_k v^a for each vector field v of `fields`."""
    slots = [("iak,jfa->fijk", 1), ("ija,kfa->fijk", 1), ("ajk,afi->fijk", -1)]
    return _lie(fields, G, "aijk,fa->fijk", slots, hessian="kjfi->fijk")


def lie_derivative_J(fields, J: Tensor) -> list:
    """(L_v J)^i_j = v^a d_a J^i_j - J^a_j d_a v^i + J^i_a d_j v^a for each
    vector field v of `fields`."""
    return _lie(fields, J, "aij,fa->fij", [("ia,jfa->fij", 1), ("aj,afi->fij", -1)])


def lie_derivative_metric(fields, g: Tensor) -> list:
    """(L_v g)_ab = v^c d_c g_ab + g_cb d_a v^c + g_ac d_b v^c for each vector
    field v of `fields`."""
    return _lie(fields, g, "cab,fc->fab", [("cb,afc->fab", 1), ("ac,bfc->fab", 1)])


def covariant_derivative_J(G: Tensor, J: Tensor) -> Tensor:
    """(nabla J)^i_{kj} = d_k J^i_j + G^i_{ka} J^a_j - G^a_{kj} J^i_a."""
    return contract_sum(G.chart, (1, 2), ("kij->ikj", (partials(J.comps, G.chart),), 1),
                        ("ika,aj->ikj", (G, J), 1), ("akj,ia->ikj", (G, J), -1))


# -- ring matrix inversion ------------------------------------------------------


def invert_matrix_ring(rows, chart):
    """Exact inverse of a matrix of ring elements (det must be a unit)."""
    d = len(rows)
    # adjugate over the determinant, by cofactor expansion (d is small)
    det = _det(rows, chart)
    inv_det = det.inverse_if_unit()
    if inv_det is None:
        raise PolyError(
            "matrix determinant is not invertible over the chart ring; "
            "declare the needed denominators"
        )
    adj = [[None] * d for _ in range(d)]
    for i in range(d):
        for j in range(d):
            minor = [
                [rows[r][c] for c in range(d) if c != j]
                for r in range(d)
                if r != i
            ]
            cof = _det(minor, chart)
            if (i + j) % 2:
                cof = -cof
            adj[j][i] = cof * inv_det
    return adj


def _det(rows, chart):
    d = len(rows)
    if d == 0:
        return chart.const(1)
    if d == 1:
        return rows[0][0]
    out = chart.zero()
    for j in range(d):
        if rows[0][j].is_zero():
            continue
        minor = [[rows[r][c] for c in range(d) if c != j] for r in range(1, d)]
        term = rows[0][j] * _det(minor, chart)
        out = out + term if j % 2 == 0 else out - term
    return out


def frame_to_coordinates(chart, frame_cols, omega, J_frame):
    """Coordinate Christoffels and J from a moving frame.

    frame_cols[i] is the coefficient dict of e_i over the coordinate fields;
    omega[(j, i, k)] is the theta^k-coefficient of the connection form with
    nabla e_i = sum_j e_j (x) omega^j_i; J_frame[(j, i)] gives J e_i = sum_j
    J^j_i e_j (constant coefficients).  With A^c_i the d_c-coefficient of
    e_i and B = A^{-1} (theta^i = B^i_b dx^b),

        G^c_ab = A^c_i d_a B^i_b + A^c_j omega^j_ik B^k_a B^i_b,
        J^c_a = A^c_j J_frame^j_i B^i_a.
    """
    d = chart.dim
    rows = [[frame_cols[i].get(r, chart.zero()) for i in range(d)] for r in range(d)]
    A = {(c, i): p for c, row in enumerate(rows) for i, p in enumerate(row) if p}
    inv = invert_matrix_ring(rows, chart)
    B = {(i, b): p for i, row in enumerate(inv) for b, p in enumerate(row) if p}
    gamma = contract_sum(chart, (1, 2), ("ci,aib->cab", (A, partials(B, chart)), 1),
                         ("cj,jik,ka,ib->cab", (A, omega, B, B), 1))
    return gamma, Tensor(chart, (1, 1), contract("cj,ji,ia->ca", A, J_frame, B))


# -- complex ingestion -------------------------------------------------------------
#
# Complex notation is a polynomial over `complex_table(n)`: the coordinates
# z_a, their conjugates zb_a, and the imaginary unit as the ordinary variable
# I.  This section is the only code that reads I^2 = -1.  It expands each
# complex value by the binomial theorem straight into Gaussian-int numerators
# (real part, imaginary part) on the real chart's packed keys, and builds one
# polynomial per real component, declared denominator and q at the end.  The
# tensor read is S + conj(S), whose imaginary part vanishes by construction.


def complex_table(n, laurent_z=()):
    """z1..zn, zb1..zbn and the imaginary unit I (never laurent)."""
    names = [f"z{a+1}" for a in range(n)] + [f"zb{a+1}" for a in range(n)] + ["I"]
    lau = [f"z{a+1}" for a in laurent_z] + [f"zb{a+1}" for a in laurent_z]
    return VarTable(names, laurent=lau)


def _cmul(u, v):
    """(a + ib)(c + id) on (real part, imaginary part) pairs; a zero
    imaginary part costs no products."""
    (a, b), (c, d) = u, v
    if not b:
        return a * c, a * d
    if not d:
        return a * c, b * c
    return a * c - b * d, a * d + b * c


def _gaussian_expansion(chart):
    """The map p -> {den: {real key: [re, im]}} that substitutes z_a ->
    x_{2a} + i x_{2a+1}, zb_a -> x_{2a} - i x_{2a+1} and I -> i in a poly p
    over `complex_table`, as Gaussian-int numerators over p.q and the
    declared denominators' multiplicities den.  By the binomial theorem,
    (x + iy)^e (x - iy)^f = sum_{j,k} C(e,j) C(f,k) i^(j+3k) x^(e+f-j-k) y^(j+k),
    carried as (shift, int, quarter turns).  A negative power of z_a is the
    conjugate power over |z_a|^2 = x_{2a}^2 + x_{2a+1}^2, which the chart
    must declare; the map finds those declared denominators once."""
    n = chart.n_complex()
    t = chart.table
    d = t.nvars()
    shift = [pack([int(i == j) for j in range(d)], 0) for i in range(d)]
    dens = [t.denominator_poly(k) for k in range(len(t.den_names))]
    mods = []
    for a in range(n):
        modulus = LaurentPoly(t, {t.zero + 2 * s: 1 for s in shift[2 * a : 2 * a + 2]})
        mods.append(next((k for k, p in enumerate(dens) if p == modulus), None))

    def expand(p):
        nv = p.table.nvars()
        out = {}
        for key, c in p.terms.items():
            exps = unpack(key, nv)
            den = [0] * len(dens)
            parts = [(t.zero, c, exps[2 * n])]
            for a in range(n):
                e, f = exps[a], exps[n + a]
                if e < 0 or f < 0:
                    if mods[a] is None:
                        raise PolyError(
                            f"negative power of complex coordinate {a+1} needs the "
                            f"declared denominator |z{a+1}|^2 on the chart"
                        )
                    den[mods[a]] -= min(e, 0) + min(f, 0)
                    e, f = max(e, 0) - min(f, 0), max(f, 0) - min(e, 0)
                if e or f:
                    sx, sy = shift[2 * a], shift[2 * a + 1]
                    parts = [
                        (s + (e + f - j - k) * sx + (j + k) * sy,
                         c * comb(e, j) * comb(f, k), u + j + 3 * k)
                        for s, c, u in parts
                        for j in range(e + 1)
                        for k in range(f + 1)
                    ]
            acc = out.setdefault(tuple(den), {})
            for s, c, u in parts:
                g = acc.get(s)
                if g is None:
                    g = acc[s] = [0, 0]
                g[u & 1] += -c if u & 2 else c
        return out

    return expand


def complex_tensor_to_real(chart, valence, comps):
    """Expand a complex-index tensor S + conj(S) into real components.

    Complex indices: 0..n-1 unbarred, n..2n-1 barred.  `comps` maps complex
    index tuples (upper slots first) to the polynomials of S over
    `complex_table(n)`.  A vector slot is 1/2 (d_x - i d_y), barred + i; a
    form slot dx + i dy, barred - i.  The expansion of S + conj(S) is twice
    the real part of S's, so it is real by construction.
    """
    n = chart.n_complex()
    up = valence[0]
    expand = _gaussian_expansion(chart)
    buckets = {}  # (real index, den, q) -> int numerators of twice the real part
    for idx, p in comps.items():
        # the real index tuples of the slots, each with its quarter turns
        slots = [((), 0)]
        for pos, a in enumerate(idx):
            base = 2 * (a % n)
            turn = 1 if (a >= n) == (pos < up) else 3
            slots = [(r + (base,), u) for r, u in slots] + [
                (r + (base + 1,), u + turn) for r, u in slots
            ]
        q = p.q << up
        expansion = expand(p).items()
        for r, u in slots:
            for den, terms in expansion:
                re = buckets.setdefault((r, den, q), {})
                for key, (x, y) in terms.items():
                    for _ in range(u & 3):
                        x, y = -y, x
                    re[key] = re.get(key, 0) + 2 * x
    real = {}
    for (r, den, q), re in buckets.items():
        accumulate(real, r, LaurentPoly(chart.table, re, den, q))
    return Tensor(chart, valence, real)
