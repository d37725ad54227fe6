"""The graded real Lie algebra sl(n+1,C)_R and its complexified double.

A real element of g is one complex trace-free (n+1)x(n+1) matrix x, a `Mat`;
it stands for the pair realify(x) = (x, conj(x)) inside the double
g_C = sl(n+1,C) x sl(n+1,C) (an "unbarred" and a "barred" commuting copy,
swapped by conjugation), which is never built for it: the bracket of two real
elements is the one product [x, y], whose barred copy is its conjugate.  The
double `CD` carries only values that are really g_C-valued, the entries of a
curvature-module element.  The |1|-grading comes from the block sizes (1, n):

    g_{-1} = lower-left block,  g_0 = block diagonal,  g_{+1} = upper-right,

with real dimensions 2n, 2n^2, 2n.  The grading element is
Z = diag(n/(n+1), -1/(n+1), ..., -1/(n+1)).

Real basis enumeration (deterministic, row-major on (j,k), 1-based):

* off-diagonal: ``E j k`` = E_jk and ``F j k`` = i E_jk;
* diagonal: ``H j`` = E_jj - E_22 and ``G j`` = i(E_jj - E_22) for j != 2,
  i.e. the (2,2) entry carries the trace dependency.

A complex scalar is a pair (re, im) of rationals (int or `Fraction`), as
everywhere in the package; a `Mat` keeps the real and the imaginary parts of
its entries in two sparse dicts, so a real matrix does no imaginary work.
"""

from __future__ import annotations

from fractions import Fraction

from .poly import accumulate


class Mat:
    """Sparse (n+1)x(n+1) complex matrix: `re` and `im` map a 0-based
    position (j, k) to the real and imaginary part of its entry, an int or a
    `Fraction`, and never hold a zero.  Scalars are (re, im) pairs.  A `Mat`
    is never changed in place, so `conj` shares the real part."""

    __slots__ = ("n1", "re", "im")

    def __init__(self, n1, re=None, im=None):
        self.n1 = n1
        self.re = re if re is not None else {}
        self.im = im if im is not None else {}

    @staticmethod
    def unit(n1, j, k, c=(1, 0)):
        key = (j - 1, k - 1)
        return Mat(n1, {key: c[0]} if c[0] else {}, {key: c[1]} if c[1] else {})

    @staticmethod
    def diag(n1, entries):
        """The real diagonal matrix with the given rational entries."""
        return Mat(n1, {(j, j): c for j, c in enumerate(entries) if c})

    def at(self, j, k):
        """The entry at the 0-based position (j, k), as a pair."""
        return self.re.get((j, k), 0), self.im.get((j, k), 0)

    def __add__(self, o):
        return Mat(self.n1, _combine(self.re, 1, o.re, 1), _combine(self.im, 1, o.im, 1))

    def __sub__(self, o):
        return Mat(self.n1, _combine(self.re, 1, o.re, -1), _combine(self.im, 1, o.im, -1))

    def __neg__(self):
        return self.scale((-1, 0))

    def scale(self, c):
        """(A + iB)(a + ib) = (aA - bB) + i(bA + aB)."""
        a, b = c
        return Mat(self.n1, _combine(self.re, a, self.im, -b), _combine(self.re, b, self.im, a))

    def bracket(self, o):
        """(A + iB)(C + iD) - (C + iD)(A + iB), part by part."""
        A, B, C, D = self.re, self.im, o.re, o.im
        re = _product(A, C, {}, 1)
        _product(B, D, re, -1)
        _product(C, A, re, -1)
        _product(D, B, re, 1)
        im = _product(A, D, {}, 1)
        _product(B, C, im, 1)
        _product(C, B, im, -1)
        _product(D, A, im, -1)
        return Mat(self.n1, re, im)

    def conj(self):
        return Mat(self.n1, self.re, {key: -x for key, x in self.im.items()})

    def is_zero(self):
        return not self.re and not self.im

    def entries(self):
        """Nonzero entries as ((j, k) 1-based, (re, im)), in row-major order."""
        for j, k in sorted(self.re.keys() | self.im.keys()):
            yield (j + 1, k + 1), self.at(j, k)

    def __eq__(self, o):
        return (isinstance(o, Mat) and self.n1 == o.n1
                and self.re == o.re and self.im == o.im)

    def __repr__(self):
        r = range(self.n1)
        rows = (" ".join(str(self.at(j, k)) for k in r) for j in r)
        return "Mat[" + "; ".join(rows) + "]"


def _combine(x, a, y, b):
    """The sparse dict a*x + b*y for rational a, b; a zero factor costs
    nothing and a unit factor no products."""
    if not a:  # start from the other part
        x, a, y, b = y, b, x, 0
    out = dict(x) if a == 1 else {key: v * a for key, v in x.items()} if a else {}
    if b:
        for key, v in y.items():
            accumulate(out, key, v if b == 1 else v * b)
    return out


def _product(a, b, out, sign):
    """Accumulate sign * a*b, the matrix product of two sparse entry dicts,
    into `out`, touching only the nonzero pairs (i,k)*(k,j)."""
    if not a or not b:
        return out
    rows = {}
    for (k, j), y in b.items():
        rows.setdefault(k, []).append((j, y))
    for (i, k), x in a.items():
        row = rows.get(k)
        if row is None:
            continue
        if sign < 0:
            x = -x
        for j, y in row:
            accumulate(out, (i, j), x * y)
    return out


class CD:
    """Element of the complex double: a pair (unbarred, barred) of matrices."""

    __slots__ = ("u", "b")

    def __init__(self, u: Mat, b: Mat):
        self.u = u
        self.b = b

    def __add__(self, o):
        return CD(self.u + o.u, self.b + o.b)

    def __sub__(self, o):
        return CD(self.u - o.u, self.b - o.b)

    def __neg__(self):
        return CD(-self.u, -self.b)

    def scale(self, c):
        return CD(self.u.scale(c), self.b.scale(c))

    def bracket(self, o):
        return CD(self.u.bracket(o.u), self.b.bracket(o.b))

    def conj(self):
        """Swap the copies and conjugate entries; real elements are fixed."""
        return CD(self.b.conj(), self.u.conj())

    def is_zero(self):
        return self.u.is_zero() and self.b.is_zero()

    def is_real(self):
        return self.b == self.u.conj()

    def __eq__(self, o):
        return isinstance(o, CD) and self.u == o.u and self.b == o.b

    def __repr__(self):
        return f"CD(u={self.u!r}, b={self.b!r})"


def realify(x: Mat) -> CD:
    return CD(x, x.conj())


class SlPair:
    """sl(n+1,C)_R with grading and real basis."""

    def __init__(self, n):
        if n < 2:
            raise ValueError(f"complex dimension n must be >= 2, got {n}")
        self.n = n
        self.n1 = n + 1
        self.basis_labels = []
        self.basis = []  # Mats, each a real element
        self._build_basis()
        self.Z = Mat.diag(
            self.n1,
            [Fraction(n, n + 1)] + [Fraction(-1, n + 1)] * n,
        )

    # -- basis ------------------------------------------------------------

    def _build_basis(self):
        n1 = self.n1
        labels, basis = self.basis_labels, self.basis
        # 0-based matrix position -> indices of the two labels reading its real
        # and imaginary part (no label reads the (2,2) entry: the trace fixes it)
        self._slots = {}
        self._grades = {}
        for j in range(1, n1 + 1):
            for k in range(1, n1 + 1):
                if j == k:
                    continue
                self._slots[(j - 1, k - 1)] = (len(basis), len(basis) + 1)
                grade = -1 if k == 1 else (1 if j == 1 else 0)
                for kind, c in (("E", (1, 0)), ("F", (0, 1))):
                    labels.append(f"{kind}{j}{k}" if n1 < 10 else f"{kind}{j}_{k}")
                    basis.append(Mat.unit(n1, j, k, c))
                    self._grades[labels[-1]] = grade
        for j in range(1, n1 + 1):
            if j == 2:
                continue
            self._slots[(j - 1, j - 1)] = (len(basis), len(basis) + 1)
            d = Mat.unit(n1, j, j) - Mat.unit(n1, 2, 2)
            for kind, c in (("H", (1, 0)), ("G", (0, 1))):
                labels.append(f"{kind}{j}")
                basis.append(d.scale(c))
                self._grades[labels[-1]] = 0
        self._index = {lbl: i for i, lbl in enumerate(labels)}

    def dim(self):
        return len(self.basis)

    def grade_of_label(self, label):
        """Grading from the block shape: lower-left = -1, upper-right = +1."""
        return self._grades[label]

    # -- coordinates --------------------------------------------------------

    def coordinates(self, x: Mat):
        """Real coordinates {basis index: nonzero value} of the real element
        x, in ascending index order: the real and the imaginary part of each
        entry are read from `x.re` and `x.im`.  No label reads the (2,2)
        entry, so an element with a nonzero trace is refused."""
        coords = {}
        trace = [0, 0]
        for part, values in enumerate((x.re, x.im)):
            for pos, c in values.items():
                if pos[0] == pos[1]:
                    trace[part] += c
                slot = self._slots.get(pos)
                if slot is not None:
                    coords[slot[part]] = c
        if trace[0] or trace[1]:
            raise ValueError("element is not trace-free")
        return dict(sorted(coords.items()))

    def element_of_label(self, lbl) -> Mat:
        return self.basis[self._index[lbl]]
