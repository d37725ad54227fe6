"""The graded real Lie algebra sl(n+1,C)_R and its complexified double.

The real algebra g is realized as pairs (x, conj(x)) of complex trace-free
(n+1)x(n+1) matrices inside the double g_C = sl(n+1,C) x sl(n+1,C) (an
"unbarred" and a "barred" commuting copy, swapped by conjugation).  The
|1|-grading comes from the block sizes (1, n):

    g_{-1} = lower-left block,  g_0 = block diagonal,  g_{+1} = upper-right,

with real dimensions 2n, 2n^2, 2n.  The grading element is
Z = diag(n/(n+1), -1/(n+1), ..., -1/(n+1)).

Real basis enumeration (deterministic, row-major on (j,k), 1-based):

* off-diagonal: ``E j k`` = realify(E_jk) and ``F j k`` = realify(i E_jk);
* diagonal: ``H j`` = realify(E_jj - E_22) and ``G j`` = realify(i(E_jj - E_22))
  for j != 2, i.e. the (2,2) entry carries the trace dependency.
"""

from __future__ import annotations

from fractions import Fraction

from .poly import accumulate
from .scalars import GaussQ


_ZERO = GaussQ(0)


class Mat:
    """Sparse (n+1)x(n+1) matrix over Q(i): `d` maps a 0-based position
    (j, k) to its entry and never holds a zero."""

    __slots__ = ("n1", "d")

    def __init__(self, n1, d=None):
        self.n1 = n1
        self.d = d if d is not None else {}

    @staticmethod
    def unit(n1, j, k, c=GaussQ(1)):
        c = GaussQ.of(c)
        return Mat(n1, {(j - 1, k - 1): c} if c else {})

    @staticmethod
    def diag(n1, entries):
        d = {}
        for j, c in enumerate(entries):
            c = GaussQ.of(c)
            if c:
                d[(j, j)] = c
        return Mat(n1, d)

    def at(self, j, k):
        """The entry at the 0-based position (j, k)."""
        return self.d.get((j, k), _ZERO)

    def __add__(self, o):
        d = dict(self.d)
        for key, y in o.d.items():
            accumulate(d, key, y)
        return Mat(self.n1, d)

    def __sub__(self, o):
        d = dict(self.d)
        for key, y in o.d.items():
            accumulate(d, key, -y)
        return Mat(self.n1, d)

    def __neg__(self):
        return Mat(self.n1, {key: -x for key, x in self.d.items()})

    def scale(self, c):
        c = GaussQ.of(c)
        if not c:
            return Mat(self.n1)
        return Mat(self.n1, {key: x * c for key, x in self.d.items()})

    def bracket(self, o):
        d = _product(self.d, o.d, {}, False)
        return Mat(self.n1, _product(o.d, self.d, d, True))

    def conj(self):
        return Mat(self.n1, {key: x.conj() for key, x in self.d.items()})

    def trace(self):
        t = GaussQ(0)
        for j in range(self.n1):
            t = t + self.at(j, j)
        return t

    def is_zero(self):
        return not self.d

    def entries(self):
        """Nonzero entries as ((j, k) 1-based, value), in row-major order."""
        for j, k in sorted(self.d):
            yield (j + 1, k + 1), self.d[(j, k)]

    def __eq__(self, o):
        return isinstance(o, Mat) and self.n1 == o.n1 and self.d == o.d

    def __repr__(self):
        r = range(self.n1)
        rows = (" ".join(str(self.at(j, k)) for k in r) for j in r)
        return "Mat[" + "; ".join(rows) + "]"


def _product(a, b, out, negate):
    """Accumulate the matrix product a*b (or -a*b) of two sparse entry dicts
    into `out`, touching only the nonzero pairs (i,k)*(k,j)."""
    rows = {}
    for (k, j), y in b.items():
        rows.setdefault(k, []).append((j, y))
    for (i, k), x in a.items():
        row = rows.get(k)
        if row is None:
            continue
        if negate:
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
        self.basis = []  # CD elements, realify image
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
                for kind, c in (("E", GaussQ(1)), ("F", GaussQ(0, 1))):
                    labels.append(f"{kind}{j}{k}" if n1 < 10 else f"{kind}{j}_{k}")
                    basis.append(realify(Mat.unit(n1, j, k, c)))
                    self._grades[labels[-1]] = grade
        for j in range(1, n1 + 1):
            if j == 2:
                continue
            self._slots[(j - 1, j - 1)] = (len(basis), len(basis) + 1)
            d = Mat.unit(n1, j, j) - Mat.unit(n1, 2, 2)
            for kind, c in (("H", GaussQ(1)), ("G", GaussQ(0, 1))):
                labels.append(f"{kind}{j}")
                basis.append(realify(d.scale(c)))
                self._grades[labels[-1]] = 0
        self._index = {lbl: i for i, lbl in enumerate(labels)}

    def dim(self):
        return len(self.basis)

    def grade_of_label(self, label):
        """Grading from the block shape: lower-left = -1, upper-right = +1."""
        return self._grades[label]

    # -- coordinates --------------------------------------------------------

    def coordinates(self, x: CD):
        """Real coordinates of a real element (= realify image) in the basis."""
        if not x.is_real():
            raise ValueError("element is not in the real form")
        coords = [_ZERO.re] * len(self.basis)
        for pos, c in x.u.d.items():
            slot = self._slots.get(pos)
            if slot is not None:
                coords[slot[0]], coords[slot[1]] = c.re, c.im
        return coords

    def element_of_label(self, lbl) -> CD:
        return self.basis[self._index[lbl]]
