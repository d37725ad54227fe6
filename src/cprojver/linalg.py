"""Exact linear algebra: ranks, kernels, span reduction, signatures.

Every kernel and rank goes through `LinearSystem`: sparse exact Gaussian
elimination on integer-scaled rows, which also produces the canonical
reduced-echelon kernel basis.  `_bareiss_rank` (dense fraction-free Bareiss
elimination) is kept as the independent reference the tests compare
`LinearSystem.rank` against.

Kernel bases are deterministic: columns are eliminated in their natural order,
free columns are enumerated ascending, and every kernel vector is scaled so
its first nonzero coordinate equals 1.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .scalars import GaussQ


def _scale_row_to_int(row):
    """dict col->(Fraction|int) -> dict col->int, scaled by the lcm of
    denominators and divided by the content."""
    lcm = 1
    for v in row.values():
        if isinstance(v, Fraction):
            d = v.denominator
            if d != 1:
                g = gcd(lcm, d)
                lcm = lcm // g * d
    out = {}
    for k, v in row.items():
        iv = v.numerator * (lcm // v.denominator) if isinstance(v, Fraction) else v * lcm
        if iv:
            out[k] = iv
    g = _row_content(out)
    if g > 1:
        for k in out:
            out[k] //= g
    return out


# -- integer row kernels (rows are dicts mapping a column key to a nonzero int) --


def _row_update(r, p, a, b):
    """In place: r := a*r - b*p, then divide by the content gcd."""
    if a != 1:
        for k in r:
            r[k] *= a
    for k, v in p.items():
        s = r.get(k, 0) - b * v
        if s:
            r[k] = s
        else:
            r.pop(k, None)
    if not r:
        return
    g = 0
    for v in r.values():
        g = gcd(g, v)
        if g == 1:
            return
    if g > 1:
        for k in r:
            r[k] //= g


def _row_content(r):
    g = 0
    for v in r.values():
        g = gcd(g, v)
        if g == 1:
            return 1
    return g


def _bareiss_rank(rows, ncols):
    """Rank of a dense integer matrix (list of lists), fraction-free."""
    m = [list(r) for r in rows]
    nrows = len(m)
    prev = 1
    rank = 0
    row = 0
    for col in range(ncols):
        piv = -1
        for i in range(row, nrows):
            if m[i][col]:
                piv = i
                break
        if piv < 0:
            continue
        if piv != row:
            m[row], m[piv] = m[piv], m[row]
        pv = m[row][col]
        for i in range(row + 1, nrows):
            ri = m[i]
            rv = ri[col]
            for j in range(col + 1, ncols):
                ri[j] = (pv * ri[j] - rv * m[row][j]) // prev
            ri[col] = 0
        prev = pv
        rank += 1
        row += 1
        if row == nrows:
            break
    return rank


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
        while r:
            c = min(r)
            p = self.pivots.get(c)
            if p is None:
                self.pivots[c] = r
                return True
            _row_update(r, p, p[c], r[c])
        return False

    def rank(self):
        return len(self.pivots)

    def kernel_dim(self):
        return len(self.columns) - len(self.pivots)

    def _reduced_pivots(self):
        """Back-substitute so each pivot row is zero on the other pivot cols."""
        cols = sorted(self.pivots, reverse=True)
        reduced = {}
        for c in cols:
            r = dict(self.pivots[c])
            for c2 in sorted(k for k in r if k != c and k in reduced):
                if c2 in r:
                    p = reduced[c2]
                    _row_update(r, p, p[c2], r[c2])
            reduced[c] = r
        return reduced

    def kernel(self):
        """Canonical kernel basis: list of dict col -> Fraction."""
        reduced = self._reduced_pivots()
        cols = sorted(self.columns)
        free = [c for c in cols if c not in reduced]
        basis = []
        for f in free:
            vec = {f: Fraction(1)}
            for c, row in reduced.items():
                if f in row:
                    vec[c] = Fraction(-row[f], row[c])
            first = min(vec)
            lead = vec[first]
            if lead != 1:
                vec = {k: v / lead for k, v in vec.items()}
            basis.append(vec)
        return basis


class SpanSolver:
    """Incremental span of exact vectors with membership/decomposition.

    Vectors are dicts keyed by sortable hashables with Fraction/GaussQ values.
    Decomposition coefficients refer to the vectors as inserted.
    """

    def __init__(self):
        self._rows = []  # (pivot key, row dict, combo dict gen_index -> GaussQ)
        self.ngen = 0

    def _reduce(self, vec, combo):
        v = {k: GaussQ.of(x) for k, x in vec.items() if GaussQ.of(x)}
        for pk, row, rcombo in self._rows:
            if pk in v:
                f = v[pk]
                for k, x in row.items():
                    s = v.get(k, GaussQ(0)) - f * x
                    if s.is_zero():
                        v.pop(k, None)
                    else:
                        v[k] = s
                for g, x in rcombo.items():
                    s = combo.get(g, GaussQ(0)) - f * x
                    if s.is_zero():
                        combo.pop(g, None)
                    else:
                        combo[g] = s
        return v, combo

    def insert(self, vec):
        """Add a generator; returns True if it enlarged the span."""
        combo = {self.ngen: GaussQ(1)}
        self.ngen += 1
        v, combo = self._reduce(vec, combo)
        if not v:
            return False
        pk = min(v)
        lead = v[pk]
        v = {k: x / lead for k, x in v.items()}
        combo = {g: x / lead for g, x in combo.items()}
        self._rows.append((pk, v, combo))
        self._rows.sort(key=lambda t: t[0])
        return True

    def dim(self):
        return len(self._rows)

    def contains(self, vec):
        v, _ = self._reduce(vec, {})
        return not v

    def decompose(self, vec):
        """Coefficients over the inserted generators, or None if outside."""
        combo = {}
        v, combo = self._reduce(vec, combo)
        if v:
            return None
        return {g: -c for g, c in combo.items()}


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
