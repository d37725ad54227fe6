"""Exact linear algebra: ranks, kernels, span reduction, signatures.

One integer elimination sits behind every kernel, rank, span and
decomposition: `_reduce` brings a fraction-free integer row (scaled by the
lcm of its denominators and divided by its content) to a new leading column
against a dict of pivot rows.  `LinearSystem` feeds it the equations and also
produces the canonical reduced-echelon kernel basis; `SpanSolver` feeds it
generators with marker columns that record their combinations.  Every
value is an int or a `Fraction`; `SpanSolver` refuses anything else.

Kernel bases are deterministic: columns are eliminated in their natural order,
free columns are enumerated ascending, and every kernel vector is scaled so
its first nonzero coordinate equals 1.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def _scale_row_to_int(row):
    """dict col->(Fraction|int) -> dict col->int, scaled by the lcm of
    denominators and divided by the content.  The exact `type(v) is int`
    test comes first: `isinstance(v, Fraction)` is an ABC check, ten times
    slower, and nearly every entry is an int."""
    lcm = 1
    for v in row.values():
        if type(v) is not int:
            d = v.denominator
            if d != 1:
                g = gcd(lcm, d)
                lcm = lcm // g * d
    out = {}
    for k, v in row.items():
        iv = v * lcm if type(v) is int else v.numerator * (lcm // v.denominator)
        if iv:
            out[k] = iv
    g = _row_content(out)
    if g > 1:
        for k in out:
            out[k] //= g
    return out


# -- integer row kernels (rows are dicts mapping a column key to a nonzero int) --


def _row_update(r, p, a, b):
    """In place: r := (a*r - b*p) / gcd(a, b), then divide by the content."""
    g = gcd(a, b)
    if g > 1:
        a //= g
        b //= g
    if a != 1:
        for k in r:
            r[k] *= a
    for k, v in p.items():
        s = r.get(k, 0) - b * v
        if s:
            r[k] = s
        else:
            r.pop(k, None)
    g = _row_content(r)
    if g > 1:
        for k in r:
            r[k] //= g


def _reduce(pivots, r):
    """In place: eliminate the leading column of the integer row `r` while
    `pivots` (column -> row led by that column) has a row for it.  Returns
    the leading column left, or None when `r` vanished."""
    while r:
        c = min(r)
        p = pivots.get(c)
        if p is None:
            return c
        _row_update(r, p, p[c], r[c])
    return None


def _row_content(r):
    g = 0
    for v in r.values():
        g = gcd(g, v)
        if g == 1:
            return 1
    return g


class LinearSystem:
    """Sparse homogeneous system over Q; rows are added incrementally.

    Column keys may be any sortable hashables; the fixed elimination order is
    the sorted order of all keys ever seen.
    """

    def __init__(self):
        self.pivots = {}  # col -> integer row dict whose minimal column is col
        self.columns = set()
        self.nrows = 0

    def register_columns(self, cols):
        self.columns.update(cols)

    def add_row(self, row):
        """Insert one equation; returns True if it was independent."""
        self.nrows += 1
        self.columns.update(row.keys())
        r = _scale_row_to_int(row)
        c = _reduce(self.pivots, r)
        if c is None:
            return False
        self.pivots[c] = r
        return True

    def rank(self):
        return len(self.pivots)

    def kernel_dim(self):
        return len(self.columns) - len(self.pivots)

    def _reduced_pivots(self):
        """Back-substitute so each pivot row is zero on the other pivot cols.

        A one-entry row {c: v} already is: it is taken as it stands, shared
        with `pivots` and not copied, and only clears column c from the rows
        reduced after it.  Most rows of a symmetry solve are such rows, the
        columns that `SystemBuilder` settled to zero."""
        cols = sorted(self.pivots, reverse=True)
        reduced = {}
        for c in cols:
            r = self.pivots[c]
            if len(r) > 1:
                r = dict(r)
                for c2 in sorted(k for k in r if k != c and k in reduced):
                    if c2 in r:
                        p = reduced[c2]
                        _row_update(r, p, p[c2], r[c2])
            reduced[c] = r
        return reduced

    def kernel(self):
        """Canonical kernel basis: list of dict col -> Fraction.

        The reduced rows are zero on every other pivot column, so each entry
        off a row's pivot c sits in a free column f and gives vector f its
        entry at c.  One pass over the rows, in pivot insertion order, fills
        every vector; each vector lists f first, then its pivots in that
        order.  A one-entry row gives no vector an entry and is skipped."""
        reduced = self._reduced_pivots()
        vecs = {f: {f: Fraction(1)} for f in sorted(self.columns) if f not in reduced}
        for c, row in reduced.items():
            if len(row) > 1:
                for f, v in row.items():
                    if f != c:
                        vecs[f][c] = Fraction(-v, row[c])
        basis = []
        for vec in vecs.values():
            first = min(vec)
            lead = vec[first]
            if lead != 1:
                vec = {k: v / lead for k, v in vec.items()}
            basis.append(vec)
        return basis


class SpanSolver:
    """Incremental span of exact rational vectors with membership/decomposition.

    Vectors are dicts keyed by sortable hashables with int or Fraction
    values.  Each generator g is stored as the integer row of its
    coordinates, columns (0, key), plus the marker column (1, g); markers sort
    after every coordinate, so a row reduced to markers alone is a relation
    among the generators.  Decomposition coefficients refer to the vectors as
    inserted.
    """

    def __init__(self):
        self._pivots = {}  # coordinate column -> integer row led by it
        self.ngen = 0

    def _residual(self, vec, marker=None):
        """The integer row of `vec` (plus `marker`) reduced against the pivots,
        and its leading column (None when the row vanished)."""
        row = {}
        for k, x in vec.items():
            if not isinstance(x, (int, Fraction)):
                raise ValueError(f"SpanSolver spans rational vectors only, not {x!r}")
            if x:
                row[(0, k)] = x
        if marker is not None:
            row[marker] = 1
        r = _scale_row_to_int(row)
        return r, _reduce(self._pivots, r)

    def insert(self, vec):
        """Add a generator; returns True if it enlarged the span."""
        r, c = self._residual(vec, (1, self.ngen))
        self.ngen += 1
        if c[0]:
            return False
        self._pivots[c] = r
        return True

    def dim(self):
        return len(self._pivots)

    def contains(self, vec):
        _, c = self._residual(vec)
        return c is None or c[0] > 0

    def decompose(self, vec):
        """Coefficients over the inserted generators, each an int when it is
        integral and a `Fraction` otherwise, or None if outside."""
        r, c = self._residual(vec, (2, 0))
        if not c[0]:
            return None
        d = r[(2, 0)]
        return {g: Fraction(-x, d) if x % d else -x // d
                for (kind, g), x in r.items() if kind == 1}


def signature(sym_rows):
    """(n_plus, n_minus, n_zero) of an exact symmetric rational matrix."""
    m = [[Fraction(x) if not isinstance(x, Fraction) else x for x in r] for r in sym_rows]
    n = len(m)
    for r in m:
        if len(r) != n:
            raise ValueError("not square")
    pos = neg = zero = 0
    alive = list(range(n))
    while alive:
        i = next((a for a in alive if m[a][a] != 0), None)
        if i is None:
            pair = None
            for a in alive:
                for b in alive:
                    if b != a and m[a][b] != 0:
                        pair = (a, b)
                        break
                if pair:
                    break
            if pair is None:
                zero += len(alive)
                break
            a, b = pair
            # e_a += e_b makes the diagonal entry 2*m[a][b] != 0
            for y in range(n):
                m[a][y] = m[a][y] + m[b][y]
            for x in range(n):
                m[x][a] = m[x][a] + m[x][b]
            continue
        d = m[i][i]
        if d > 0:
            pos += 1
        else:
            neg += 1
        alive.remove(i)
        fs = {a: m[a][i] / d for a in alive}
        for a in alive:
            fa = fs[a]
            row_i = m[i]
            row_a = m[a]
            mai = row_a[i]
            for b in alive:
                row_a[b] = row_a[b] - fa * row_i[b] - fs[b] * mai + fa * fs[b] * d
        for a in alive:
            m[a][i] = Fraction(0)
            m[i][a] = Fraction(0)
    return pos, neg, zero
