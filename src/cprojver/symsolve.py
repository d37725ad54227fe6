"""Exact kernels of symmetry PDE systems over finite ansatz spaces.

Every tensor equation is linear in the unknown vector field (or tensor), so a
finite ansatz turns it into exact linear algebra: the operator's value on
each ansatz basis element is matched monomial by monomial (after clearing
declared denominators per equation), and the kernel is computed by sparse
exact elimination.  Each equation of a symmetry solve is a Lie derivative
L_v T (CP of one for the connection), and one slot rule, `_lie_symbol`,
gives the symbols of all of them from T's valence.  The field-level
equations (`cproj_equations` and friends) re-verify a whole basis in one
call, one result per field, and `check_bracket_closure` takes each field's
partials once; both share no code with the symbols but `poly` and
`tensorcalc`.  A column is a (monomial, direction) pair, and one list of
them, `AnsatzSpace.columns`, numbers the columns from the operator call to
the kernel read-out: column c is columns[c].  An operator is called once per
solve, on that list or any sub-list of it.  It returns its memoized symbols
and, per symbol and integer scale, the (column, shift) list of the columns
that use it; it sums nothing.  Of an equation that is symmetric in its last
two indices on every column (CP and L_v Gamma for a symmetric Gamma, L_v g
for a symmetric g, the mobility equation), it emits one component of each
mirrored pair, since the other repeats its rows.
`SystemBuilder` assembles the system equation-major: for each equation it
scatters every symbol that has that component over the columns that use
it, which is the one place that terms are summed, and settles that
equation's rows before the next one.  Symbols hand over their polynomials
as they are; `poly` writes each over the equation's common declared
denominator, as packed monomial keys (`poly.pack`) and int numerators over
one q: a column's shift is added to a key, a row is keyed by the sum, and
each equation is scaled by the lcm of its symbols' q.
Before the elimination, it settles the columns that one-entry rows force to
zero: the rows {c: 1} for those columns plus the other rows stripped of them
span the same row space, so the kernel is the same and most rows never
reach `LinearSystem`; later equations scatter nothing into a settled
column.  The equations scatter fewest parts first, so the cheap ones settle
their columns before the many-part ones reach them, but the rows reach
`LinearSystem` in sorted (tag, comp) order: the settled set is the least
fixpoint of the strip whatever the order, and each row is its raw row
without that set, so the rows, their order and key order do not depend on
the scatter order.  A builder runs `kernel` once.  Of CP's second-order
symbols, only those of the form S2(a, l, a) have a trace; CP adds to each
the correction of the trace {l: 1}, built once per l and operator.  Kernel
dimensions are lower bounds for the true solution space; together with an
algebraic upper bound and degree stabilization they certify exactness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, partial
from math import lcm

from .linalg import LinearSystem, SpanSolver
from .poly import LaurentPoly, PolyError, ProductSum, accumulate, pack
from .tensorcalc import (
    Tensor,
    contract_sum,
    lie_derivative_J,
    lie_derivative_connection,
    lie_derivative_metric,
    partials,
)


class AnsatzSpace:
    """Finite monomial space from per-variable exponent bounds.

    `bounds` maps a variable name to (min, max); unlisted variables get
    (0, total_degree).  When `total_degree` is set, the sum of non-negative
    exponents is also capped.  Monomials are listed in lexicographic order.
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

        def walk(prefix, k, used):
            if k == len(ranges):
                self.monomials.append(prefix)
                return
            for e in ranges[k]:
                u = used + e if e > 0 else used
                if total_degree is not None and u > total_degree:
                    break  # exponents ascend: the rest of the range is over too
                walk(prefix + (e,), k + 1, u)

        walk((), 0, 0)

    def enlarged(self):
        """The space with the total degree and every upper bound raised by one
        and every negative lower bound lowered by one."""
        td = None if self.total_degree is None else self.total_degree + 1
        bounds = {
            name: (lo - 1 if lo < 0 else 0, hi + 1)
            for name, (lo, hi) in self.bounds.items()
        }
        return AnsatzSpace(self.chart, total_degree=td, bounds=bounds)

    def columns(self, directions):
        """The columns x^e d_a as (e, a): each monomial with every direction, in order."""
        return [(e, a) for e in self.monomials for a in directions]

    def __len__(self):
        return len(self.monomials)


@cache
def _unit_shifts(nv):
    """The shifts of x_0, ..., x_(nv-1) in `nv` variables."""
    return tuple(pack([int(i == l) for i in range(nv)], 0) for l in range(nv))


@dataclass
class SymmetryResult:
    dim: int
    basis: list  # list of field dicts {direction index: LaurentPoly}
    stabilized: bool = None
    closed_under_bracket: bool = None
    verified: bool = None
    extra: dict = field(default_factory=dict)


class SystemBuilder:
    """Assembles the exact rows of a linear operator, one equation at a time.

    The builder takes symbols and their uses, as an operator call returns
    them (`_column_operator`).  `symbols` maps a symbol key to its parts
    [(tag, comp, p)]: the symbol adds the `LaurentPoly` p to component
    `comp` of the equation tagged `tag`.  `uses` maps the same key to
    {scale: [(col, shift)]}: column `col` takes scale * x^shift * symbol,
    `scale` an integer and `shift` the exponents packed without the bias
    (`pack(e, 0)`).  A row's key is a term key plus a column shift, each
    exponent below 2**13 in size, so no slot carries and distinct monomials
    keep distinct keys.

    `kernel` works equation-major.  For each equation (tag, comp), fewest
    parts first (ties in sorted order), it takes the symbols that have that
    component and their top denominator multiplicity M, the largest of
    their `den`s, and asks `poly` for each symbol's int numerators over D^M
    and its q (`LaurentPoly.numerator_over`), D the table's declared
    denominators.
    The Laurent polynomial ring is an integral domain, so the cleared
    equation has the same solutions as the one it came from.  It then
    multiplies the equation by the lcm of its symbols' q, one int per
    symbol, so each symbol's numerators are scaled by that lcm over its q:
    the rows are integral and their primitive rows, which are what
    `LinearSystem` eliminates, do not change.  Each symbol is scaled once
    per scale and scattered at every (col, shift) of its uses into the
    equation's rows, which is the one place that terms are summed; the
    columns already in `zero` (below) are left out of the uses first, and a
    part with no column left is skipped.  The rows are settled in ascending
    packed-key order and dropped before the next equation, so one
    equation's rows are alive at a time.

    Before any row reaches `LinearSystem`, `kernel` settles the columns that
    one-entry rows force to zero (the first step of structured Gaussian
    elimination, LaMacchia-Odlyzko, CRYPTO '90).  A row with one entry puts
    its column into the set `zero` and is not stored; every other row is
    stored without the columns already in `zero`, and joins `zero` itself
    if one entry is left.  Skipping the settled columns in the scatter
    stores the same rows, in the same order and key order: the terms it
    drops are those that the strip would remove.  The few-part equations
    give most one-entry rows, so scattering them first leaves the costly
    many-part equations fewer columns.  Each equation's rows are stored
    under its key and joined in sorted (tag, comp) order after the last
    equation, then stripped again until `zero` stops growing.  `zero` is
    then the least fixpoint of the strip, which does not depend on the
    scatter order, and each row is its raw row without `zero`, so the
    joined rows are those of the sorted scatter.  The system then gets a
    row {c: 1} for each c in `zero`, ascending, and the stripped rows in
    sorted equation order.  These rows span the original row space: each
    e_c lies in it by induction, and each original row is its stripped row
    plus a combination of the e_c.  The reduced echelon form for a fixed
    column order is unique, so the pivot columns, the rank and the
    canonical kernel basis are those of the original rows; only `nrows` is
    smaller.

    `kernel` consumes what was added, so a builder is single-use: a second
    `kernel()` call raises.  With `dim_only` it builds no basis: nothing is
    back-substituted, and the system's `kernel_dim()`, ncols - rank, is the
    kernel dimension.
    """

    def __init__(self, ncols):
        self.ncols = ncols
        self.eqs = {}  # (tag, comp) -> [(LaurentPoly, {scale: [(col, shift)]})]

    def add(self, symbols, uses):
        """Index each part of `symbols` under its equation, with its key's uses."""
        for key, parts in symbols.items():
            for tag, comp, p in parts:
                self.eqs.setdefault((tag, comp), []).append((p, uses[key]))

    def kernel(self, dim_only=False):
        """(canonical kernel basis, or None with `dim_only`; the
        `LinearSystem` it came from)."""
        eqs = self.eqs
        if eqs is None:
            raise RuntimeError("SystemBuilder.kernel has already consumed its outputs")
        self.eqs = None
        zero = set()  # columns that the rows force to zero
        stored = {}  # (tag, comp) -> its other rows, without the columns in `zero`
        # fewest parts first: the cheap equations settle the columns that the
        # costly ones then skip
        for key in sorted(eqs, key=lambda key: (len(eqs[key]), key)):
            entries = eqs.pop(key)
            stored[key] = kept = []
            top = tuple(map(max, zip(*{p.den for p, _ in entries})))
            parts = [(*p.numerator_over(top), used) for p, used in entries]
            # the equation times the lcm of its parts' q: integral rows with
            # the same primitive rows, and int sums in the scatter
            mult = lcm(*(q for _, q, _ in parts))
            rows = {}  # packed exps -> {col: coefficient}
            for terms, q, used in parts:
                for scale, cols in used.items():
                    if zero:
                        cols = [cs for cs in cols if cs[0] not in zero]
                        if not cols:
                            continue
                    scale *= mult // q
                    for e, c in terms.items():
                        if scale != 1:
                            c *= scale
                        for col, shift in cols:
                            exps = e + shift
                            row = rows.get(exps)
                            if row is None:
                                rows[exps] = {col: c}
                            elif col in row:
                                row[col] += c
                            else:
                                row[col] = c
            for exps in sorted(rows):
                row = rows[exps]
                if len(row) == 1:
                    for col, c in row.items():
                        if c:
                            zero.add(col)
                    continue
                if not zero.isdisjoint(row) or not all(row.values()):
                    row = {col: c for col, c in row.items() if c and col not in zero}
                    if len(row) < 2:
                        zero.update(row)
                        continue
                kept.append(row)
        kept = [row for key in sorted(stored) for row in stored[key]]
        grew = True
        while grew:
            grew = False
            rest = []
            for row in kept:
                if not zero.isdisjoint(row):
                    row = {col: c for col, c in row.items() if col not in zero}
                if len(row) == 1:
                    zero.update(row)
                    grew = True
                elif row:
                    rest.append(row)
            kept = rest

        sys = LinearSystem()
        sys.register_columns(range(self.ncols))
        for col in sorted(zero):
            sys.add_row({col: 1})
        for row in kept:
            sys.add_row(row)
        return (None if dim_only else sys.kernel()), sys


# -- operators -------------------------------------------------------------------
#
# Every operator here is linear in the field and of order at most two, so its
# value on the column x^e d_a is
#
#     x^e S0(a) + sum_l e_l x^(e-1_l) S1(a, l)
#               + sum_(l,k) e_l (e_k - delta_lk) x^(e-1_l-1_k) S2(a, l, k)
#
# with symbols S0, S1, S2 that do not depend on e.  Each equation is a Lie
# derivative L_v T (CP of one for the connection), so one slot rule,
# `_lie_symbol`, gives every S0 and S1 from T's valence; only a connection
# has an S2, 1 on (a, l, k), named where `_lie_operator` is given Gamma.  An
# operator builds each symbol once per direction and lists, per symbol and
# integer scale, the columns that take it with their shifts; `SystemBuilder`
# does the shifting and scaling.  The field-level functions
# (`cproj_equations` and friends) compute the same equations from tensorcalc
# alone, for a list of fields at once: its Lie derivatives and, for CP, one
# `contract` expression per field.  `verify_fields` checks a basis with one
# call of them, sharing no code with the symbols but `poly` and `tensorcalc`.


def cp_projection(J: Tensor, om):
    """Omega -> CP(Omega): Omega minus its phi (trace) terms plus the sigma
    terms through J; linear over the polynomial ring.  `om` maps (i, j, k) to
    polynomials and is not modified."""
    trace = {}
    for (i, j, k), p in om.items():
        if k == i:
            accumulate(trace, j, p)
    out = dict(om)
    for key, p in _trace_correction(J, trace).items():
        accumulate(out, key, p)
    return out


def _trace_correction(J: Tensor, trace):
    """CP(Omega) - Omega from the trace {j: Omega^i_ji} alone: the phi terms
    -delta^i_k phi_j - delta^i_j phi_k and the sigma terms
    sigma_j J^i_k + sigma_k J^i_j, phi = trace / (2(n+1)), sigma_j = phi_a J^a_j."""
    chart = J.chart
    scale = Fraction(1, 2 * (chart.n_complex() + 1))
    phi = {j: p * scale for j, p in trace.items()}
    sig = {}
    for (a, j), q in J.comps.items():
        pa = phi.get(a)
        if pa is not None:
            accumulate(sig, j, pa * q)
    out = {}
    for j, p in phi.items():
        for i in range(chart.dim):
            accumulate(out, (i, j, i), -p)
            accumulate(out, (i, i, j), -p)
    for j, p in sig.items():
        for (i, k), q in J.comps.items():
            accumulate(out, (i, j, k), p * q)
            accumulate(out, (i, k, j), p * q)
    return out


def cproj_equations(spec, fields):
    """Each v of `fields` -> [(L_v J, CP(L_v Gamma))], with CP written out on
    `contract_sum`, independently of the symbols' CP map: for Omega = L_v Gamma,

        CP(Omega)^i_jk = Omega^i_jk - delta^i_k phi_j - delta^i_j phi_k
                         + sigma_j J^i_k + sigma_k J^i_j,

    phi_j = Omega^i_ji / (2(n+1)) and sigma_j = phi_a J^a_j."""
    chart, J = spec.chart, spec.J
    scale = Fraction(1, 2 * (chart.n_complex() + 1))
    delta = {(i, i): chart.const(1) for i in range(chart.dim)}
    out = []
    for lj, om in zip(lie_derivative_J(fields, J), lie_derivative_connection(fields, spec.gamma)):
        phi = contract_sum(chart, (0, 1), ("iji->j", (om,), scale))
        cp = contract_sum(chart, (1, 2), ("ijk->ijk", (om,), 1),
                          ("j,ik->ijk", (phi, delta), -1), ("k,ij->ijk", (phi, delta), -1),
                          ("a,aj,ik->ijk", (phi, J, J), 1), ("a,ak,ij->ijk", (phi, J, J), 1))
        out.append([("LJ", lj), ("CP", cp)])
    return out


def affine_equations(spec, fields):
    """Each v of `fields` -> [(L_v J, L_v Gamma)]."""
    lgs = lie_derivative_connection(fields, spec.gamma)
    return [[("LJ", lj), ("LG", lg)] for lj, lg in zip(lie_derivative_J(fields, spec.J), lgs)]


def killing_equations(spec, fields, holomorphic=True):
    """Each v of `fields` -> [(L_v J if holomorphic, L_v g)]."""
    lgs = lie_derivative_metric(fields, spec.metric)
    if not holomorphic:
        return [[("LG", lg)] for lg in lgs]
    return [[("LJ", lj), ("LG", lg)] for lj, lg in zip(lie_derivative_J(fields, spec.J), lgs)]


def homothety_equations(spec, pairs, holomorphic=True):
    """Each (v, c) of `pairs` -> [(L_v J if holomorphic, L_v g - c g)],
    through killing_equations."""
    return [
        [(tag, t - spec.metric.scale(c) if tag == "LG" else t) for tag, t in eqs]
        for (_, c), eqs in zip(pairs, killing_equations(spec, [v for v, _ in pairs], holomorphic))
    ]


def _lie_symbol(T: Tensor, a, l=None):
    """A symbol of v -> L_v T on the column x^e d_a: S0(a) = d_a T, or, with
    `l`, S1(a, l), by the slot rule of T's valence: -delta^i_a T^(..l..)
    for each upper slot and +delta_jl T_(..a..) for each lower slot."""
    if l is None:
        name = T.chart.table.names[a]
        return {key: q for key, p in T.comps.items() if (q := p.derivative(name))}
    up = T.valence[0]
    out = {}
    for key, p in T.comps.items():
        for s, i in enumerate(key):
            if s < up:
                if i == l:
                    accumulate(out, (*key[:s], a, *key[s + 1 :]), -p)
            elif i == a:
                accumulate(out, (*key[:s], l, *key[s + 1 :]), p)
    return out


def _symmetric_tags(tag, T: Tensor):
    """(tag,) when T equals itself with its last two indices swapped, checked
    exactly on every entry, else ()."""
    if all(T.comps.get((*k[:-2], k[-1], k[-2])) == p for k, p in T.comps.items()):
        return (tag,)
    return ()


def _halved(parts, symmetric):
    """`parts` [(tag, comp, ...)] without the components of the tags in
    `symmetric` whose last two indices descend: on every column such a
    component repeats its mirror row for row.  Every symbol of such an
    equation must pass through here, or the kept rows lose terms."""
    return [part for part in parts if part[0] not in symmetric or part[1][-2] <= part[1][-1]]


def _column_operator(tags, symbol0, symbol1, symbol2=None, symmetric=()):
    """The operator apply(columns) -> (symbols, uses), the `SystemBuilder`
    input of the columns x^e d_a listed as (e, a), column c = columns[c]
    (`AnsatzSpace.columns`).  Any list, such as a sub-list of a solve's
    columns, gives each column the same value.

    `symbol0(a)`, `symbol1(a, l)` and `symbol2(a, l, k)` return one comps
    dict {comp: LaurentPoly} per tag, a the columns' direction (an index or
    a pair).  `symbols` maps each key (a,), (a, l) or (a, l, k) that some
    column takes to its parts [(tag, comp, p)], p the component's
    polynomial; a symbol is built on first use and kept for later calls.
    The tags in `symmetric` name equations symmetric in the last two
    component indices; their parts are cut to one component of each mirrored
    pair (`_halved`), and a symbol left with no part gets no uses.  `uses`
    maps the key to {scale: [(col, shift)]}: the columns that take scale *
    x^shift times the symbol, shift the packed x^e, x^(e-1_l) or
    x^(e-1_l-1_k) and scale 1, e_l or e_l (e_k - delta_lk).  The terms of a
    run of columns on one monomial are listed once.  `uses` lists each (key
    suffix, scale) group in first-use order, its directions ascending, and
    each key's columns in list order, which fixes the key order of the rows.
    Nothing is summed, scaled or cleared here.
    """
    builders = {1: symbol0, 2: symbol1, 3: symbol2}
    memo = {}

    def symbol(key):
        got = memo.get(key)
        if got is None:
            got = memo[key] = _halved(
                [
                    (tag, comp, p)
                    for tag, comps in zip(tags, builders[len(key)](*key))
                    for comp, p in comps.items()
                ],
                symmetric,
            )
        return got

    def apply(columns):
        taken = {}  # (key without a, scale) -> [(run {a: col} of one monomial, shift)]
        last = None
        for col, (exps, a) in enumerate(columns):
            if exps != last:
                last, run = exps, {}
                e0 = pack(exps, 0)
                unit = _unit_shifts(len(exps))
                terms = [((), 1, e0)]  # (key without a, scale, shift)
                for l, el in enumerate(exps):
                    if el:
                        f = e0 - unit[l]
                        terms.append(((l,), el, f))
                        if symbol2 is not None:
                            for k, ek in enumerate(exps):
                                fk = ek - 1 if k == l else ek  # e_k - delta_lk
                                if fk:
                                    terms.append(((l, k), el * fk, f - unit[k]))
                for suffix, scale, shift in terms:
                    taken.setdefault((suffix, scale), []).append((run, shift))
            run[a] = col
        directions = sorted({a for _, a in columns})
        uses = {}
        for (suffix, scale), shifts in taken.items():
            for a in directions:
                key = (a, *suffix)
                if symbol(key):
                    cols = [(run[a], shift) for run, shift in shifts if a in run]
                    if cols:
                        uses.setdefault(key, {})[scale] = cols
        return {key: symbol(key) for key in uses}, uses

    return apply


def _lie_operator(spec, equations, connection=None, cp=False):
    """The `_column_operator` of v -> L_v T for each (tag, T) in `equations`.

    The entry tagged `connection` is a connection Gamma: L_v Gamma also has
    the second-order symbol S2(a, l, k) = 1 on (a, l, k), and with `cp` each
    of that entry's symbols is mapped by CP.  S2(a, l, k) has no trace unless
    k = a, so CP leaves it as it is; CP of S2(a, l, a) adds the correction of
    the trace {l: 1}, which does not depend on a and is built once per l.
    The cut to one component of each mirrored pair is decided once per T
    with two lower indices: when T is symmetric in them, so is L_v T on
    every field v, and so is CP of it (its trace and J terms are added in
    mirrored pairs)."""
    tags = tuple(tag for tag, _ in equations)
    one = spec.chart.const(1)
    corrections = {}  # l -> _trace_correction(J, {l: 1})

    def mapped(tag, comps):
        return cp_projection(spec.J, comps) if cp and tag == connection else comps

    def symbol2(a, l, k):
        comps = {(a, l, k): one}
        if cp and k == a:
            if l not in corrections:
                corrections[l] = _trace_correction(spec.J, {l: one})
            for key, p in corrections[l].items():
                accumulate(comps, key, p)
        return tuple(comps if tag == connection else {} for tag in tags)

    return _column_operator(
        tags,
        lambda a: tuple(mapped(tag, _lie_symbol(T, a)) for tag, T in equations),
        lambda a, l: tuple(mapped(tag, _lie_symbol(T, a, l)) for tag, T in equations),
        symbol2 if connection is not None else None,
        symmetric=tuple(
            sym for tag, T in equations if T.valence[1] == 2 for sym in _symmetric_tags(tag, T)
        ),
    )


def cproj_operator(spec):
    """The `_column_operator` of `cproj_equations`."""
    return _lie_operator(spec, [("LJ", spec.J), ("CP", spec.gamma)], connection="CP", cp=True)


def killing_operator(spec, holomorphic=True):
    """The `_column_operator` of `killing_equations`; `solve_field_system`
    cuts the homothety scale column as this cuts L_v g."""
    lj = [("LJ", spec.J)] if holomorphic else []
    return _lie_operator(spec, [*lj, ("LG", spec.metric)])


def affine_operator(spec):
    """The `_column_operator` of `affine_equations`."""
    return _lie_operator(spec, [("LJ", spec.J), ("LG", spec.gamma)], connection="LG")


def solve_field_system(spec, operator, ansatz, extra_metric_scale=None, directions=None,
                       dim_only=False):
    """Kernel of a linear operator on fields over the ansatz space.

    The columns are `ansatz.columns(directions)`, column c the monomial x^e
    in the direction a for (e, a) = columns[c]; `directions` defaults to
    the chart's coordinate indices (vector fields).  `operator(columns)` is
    called once and returns the (symbols, uses) of every column, as
    `_column_operator` builds them, for one `SystemBuilder`.  Returns
    (basis, scales): each kernel vector as {direction: LaurentPoly}, read
    back through the same list.

    With `extra_metric_scale` (the metric tensor), one extra scalar unknown c
    is appended and the equation tagged "LG" becomes L_v g - c g = 0; its
    value in each kernel vector is listed in `scales`.  The c column is cut
    to the components that `killing_operator` emits for the same metric.

    With `dim_only`, returns the kernel dimension alone, ncols - rank (the c
    column counts), and builds no basis.
    """
    table = spec.chart.table
    columns = ansatz.columns(range(spec.chart.dim) if directions is None else directions)
    nfield = len(columns)
    builder = SystemBuilder(nfield + (extra_metric_scale is not None))
    builder.add(*operator(columns))
    if extra_metric_scale is not None:
        comps = extra_metric_scale.scale(-1).comps
        parts = [("LG", comp, p) for comp, p in comps.items()]
        builder.add(
            {"c": _halved(parts, _symmetric_tags("LG", extra_metric_scale))},
            {"c": {1: [(nfield, 0)]}},
        )
    kernel, system = builder.kernel(dim_only)
    if dim_only:
        return system.kernel_dim()
    basis = []
    scales = []
    for vec in kernel:
        terms = {}  # direction -> {monomial key: coefficient}
        for c, val in vec.items():
            if c < nfield:
                exps, a = columns[c]
                terms.setdefault(a, {})[pack(exps)] = val
        basis.append({a: LaurentPoly(table, t) for a, t in terms.items()})
        scales.append(vec.get(nfield, Fraction(0)))
    return basis, scales


def field_coordinates(f):
    """Exact coordinates of {key: LaurentPoly} (a field, or `Tensor.comps`),
    keyed (key, monomial key)."""
    out = {}
    for i, p in f.items():
        for k, c in p.rational_terms().items():
            out[(i, k)] = c
    return out


def _brackets(chart, fields):
    """[v, w]^b = v^a d_a w^b - w^a d_a v^b for each pair v, w of `fields`,
    in order, each summed in one `ProductSum`; every field's partials
    {(a, b): d_a v^b} are taken once."""
    grads = [partials({(b,): q for b, q in v.items()}, chart) for v in fields]
    for i, (v, dv) in enumerate(zip(fields, grads)):
        for w, dw in zip(fields[i + 1 :], grads[i + 1 :]):
            acc = ProductSum()
            for x, dy, sign in ((v, dw, 1), (w, dv, -1)):
                for (a, b), q in dy.items():
                    p = x.get(a)
                    if p is not None:
                        acc.add(b, (p, q), sign)
            yield acc.result()


def bracket_fields(chart, v, w):
    """The bracket [v, w] of two fields."""
    return next(_brackets(chart, [v, w]))


def check_bracket_closure(chart, basis):
    """Whether the span of `basis` is closed under the bracket."""
    span = SpanSolver()
    for f in basis:
        if not span.insert(field_coordinates(f)):
            return False
    return all(not br or span.contains(field_coordinates(br)) for br in _brackets(chart, basis))


def verify_fields(equations, fields):
    """Every entry of `fields` solves `equations` (a field-level function such
    as `partial(cproj_equations, spec)`, not an operator's symbols), which
    takes the whole list in one call."""
    return all(t.is_zero() for eqs in equations(fields) for _, t in eqs)


def _field_system(spec, operator, ansatz, stabilize, equations, extra_metric_scale=None):
    """The `SymmetryResult` of `operator` over `ansatz`, re-verified on the
    field-level `equations`; with `stabilize`, whether the solve over
    `ansatz.enlarged()` has the same kernel dimension.  That re-solve is
    read for its dimension alone, ncols - rank: it builds no basis.  With
    `extra_metric_scale`, kernel vectors with a zero field (only on g = 0)
    are dropped, `equations` take the pairs (v, c) and `extra["scales"]`
    lists the kept fields' c."""
    basis, scales = solve_field_system(spec, operator, ansatz, extra_metric_scale)
    stab = None
    if stabilize:
        stab = len(basis) == solve_field_system(
            spec, operator, ansatz.enlarged(), extra_metric_scale, dim_only=True
        )
    solved, extra = basis, {}
    if extra_metric_scale is not None:
        solved = [(f, c) for f, c in zip(basis, scales) if f]
        basis = [f for f, _ in solved]
        extra["scales"] = [c for _, c in solved]
    verified = verify_fields(equations, solved)
    return SymmetryResult(len(basis), basis, stab, verified=verified, extra=extra)


def cproj_system(spec, ansatz, stabilize=True):
    equations = partial(cproj_equations, spec)
    res = _field_system(spec, cproj_operator(spec), ansatz, stabilize, equations)
    res.closed_under_bracket = check_bracket_closure(spec.chart, res.basis)
    return res


def killing_system(spec, ansatz, stabilize=True, holomorphic=True):
    op = killing_operator(spec, holomorphic=holomorphic)
    equations = partial(killing_equations, spec, holomorphic=holomorphic)
    return _field_system(spec, op, ansatz, stabilize, equations)


def affine_system(spec, ansatz):
    equations = partial(affine_equations, spec)
    return _field_system(spec, affine_operator(spec), ansatz, False, equations)


def homothety_system(spec, ansatz, stabilize=True, holomorphic=True):
    op = killing_operator(spec, holomorphic=holomorphic)
    equations = partial(homothety_equations, spec, holomorphic=holomorphic)
    return _field_system(spec, op, ansatz, stabilize, equations, extra_metric_scale=spec.metric)


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
    """g^{-1} L_v g - tr(g^{-1} L_v g)/(2(n+1)) Id: the symmetry-to-mobility map."""
    chart = g.chart
    lg = lie_derivative_metric([v], g)[0]
    delta = {(i, i): chart.const(1) for i in range(chart.dim)}
    scale = Fraction(-1, 2 * (chart.n_complex() + 1))
    return contract_sum(chart, (1, 1), ("ia,ab->ib", (ginv, lg), 1),
                        ("ca,ac,ib->ib", (ginv, lg, delta), scale))
