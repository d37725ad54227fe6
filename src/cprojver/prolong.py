"""Curvature modules, annihilators, Tanaka prolongations, dimension tables.

Elements of the curvature module live in Lambda^2(g_{-1})* (x) g_C, written in
the complexified double of `slpair`.  A dual slot is a pair (copy, j) meaning
the functional dual to u_j = E_{j+1,1} in the unbarred (0) or barred (1) copy.

The four irreducible module types are identified by their extremal vectors:

* ``I``   : u1* ^ u2* (unbarred pair) (x) E_{n+1,2}   (E_{1,2} value when n=2)
* ``II``  : u1* ^ u1bar*             (x) E_{n+1,2}
* ``III`` : u1bar* ^ u2bar*          (x) E_{n+1,1}
* ``IV``  : u1* ^ u1bar*             (x) E_{n+1,1}

``IV`` is the traceless antilinear-linear torsion module (the obstruction to
minimality); I--III are the harmonic curvature types of the minimal theory.

Complex scalars are (re, im) pairs of rationals, multiplied with
`tensorcalc._cmul`; coordinates split into real and imaginary parts before
they reach the exact linear algebra of `linalg`, which works over Q.

`annihilator` acts with each g_0 basis element on psi once and keeps those
actions; `tanaka_prolongation` builds [v,X].psi from them by linearity, so
a prolongation costs one `g0_action` per g_0 basis element.  The annihilator
basis is made of primitive integer vectors, and `SpanSolver.decompose`
returns ints where it can, so the structure constants and cochain values of
`subalgebra_with_cochain` are ints unless they are proper fractions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .linalg import LinearSystem, SpanSolver, _scale_row_to_int
from .poly import accumulate
from .slpair import CD, Mat, SlPair, realify
from .structlie import StructAlgebra
from .tensorcalc import _cmul

CURV_TYPES = ("I", "II", "III", "IV")


class CurvElement:
    """Sparse element of Lambda^2(g_{-1})* (x) g_C."""

    __slots__ = ("n", "entries")

    def __init__(self, n, entries=None):
        self.n = n
        self.entries = {}
        for slots, w in (entries or {}).items():
            if w.is_zero():
                continue
            self._accum(slots, w)

    def _accum(self, slots, w):
        sA, sB = slots
        if sA == sB:
            return
        if sA > sB:
            sA, sB = sB, sA
            w = -w
        key = (sA, sB)
        cur = self.entries.get(key)
        tot = w if cur is None else cur + w
        if tot.is_zero():
            self.entries.pop(key, None)
        else:
            self.entries[key] = tot

    def __add__(self, other):
        out = CurvElement(self.n, dict(self.entries))
        for slots, w in other.entries.items():
            out._accum(slots, w)
        return out

    def __neg__(self):
        return self.scale((-1, 0))

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        """The element times the complex scalar c = (re, im)."""
        out = CurvElement(self.n)
        if not (c[0] or c[1]):
            return out
        for slots, w in self.entries.items():
            out.entries[slots] = w.scale(c)
        return out

    def conj(self):
        out = CurvElement(self.n)
        for (sA, sB), w in self.entries.items():
            nA = (1 - sA[0], sA[1])
            nB = (1 - sB[0], sB[1])
            out._accum((nA, nB), w.conj())
        return out

    def is_zero(self):
        return not self.entries

    def is_real(self):
        return (self - self.conj()).is_zero()

    def coordinates(self):
        """Sparse coordinate dict keyed by (slots, copy, row, col) -> (re, im)."""
        out = {}
        for slots, w in self.entries.items():
            for copy, mat in ((0, w.u), (1, w.b)):
                for (r, c), v in mat.entries():
                    out[(slots, copy, r, c)] = v
        return out

    def evaluate(self, a: Mat, b: Mat) -> CD:
        """Evaluate on two real elements of g_{-1}; a barred slot pairs with
        the conjugate entry, the one that realify(x) has in its barred copy."""
        n1 = self.n + 1
        out = CD(Mat(n1), Mat(n1))

        def pairing(slot, x: Mat):
            copy, j = slot
            re, im = x.at(j, 0)  # coefficient of E_{j+1,1}
            return (re, -im) if copy else (re, im)

        for (sA, sB), w in self.entries.items():
            p = _cmul(pairing(sA, a), pairing(sB, b))
            q = _cmul(pairing(sA, b), pairing(sB, a))
            c = (p[0] - q[0], p[1] - q[1])
            if c[0] or c[1]:
                out = out + w.scale(c)
        return out

    def __eq__(self, other):
        return isinstance(other, CurvElement) and (self - other).is_zero()


def _dual_row(x: Mat, slot):
    """The action of the real element x on the dual slot (copy, j):
    x.u_j* = sum_k c_k u_k*, returned as the nonzero [(k, c_k)].  c_k is
    minus the entry at the 0-based position (j, k) of the copy's matrix (x,
    or conj(x) for the barred copy), plus its (0, 0) entry when k = j: row j
    of the g_0 block is all that is read."""
    copy, j = slot
    re, im = x.re, x.im
    row = []
    for k in range(1, x.n1):
        a, b = re.get((j, k), 0), im.get((j, k), 0)
        if k == j:
            a -= re.get((0, 0), 0)
            b -= im.get((0, 0), 0)
        if a or b:
            row.append((k, (-a, b if copy else -b)))
    return row


def g0_action(x: Mat, psi: CurvElement) -> CurvElement:
    """Standard tensorial action of a real grade-0 element on the module:
    the entries are g_C-valued, so they are bracketed with realify(x)."""
    out = CurvElement(psi.n)
    xx = realify(x)
    for (sA, sB), w in psi.entries.items():
        out._accum((sA, sB), xx.bracket(w))
        for k, c in _dual_row(x, sA):
            out._accum(((sA[0], k), sB), w.scale(c))
        for k, c in _dual_row(x, sB):
            out._accum((sA, (sB[0], k)), w.scale(c))
    return out


def lowest_weight_vector(ctype, n):
    """Returns (phi0, phi0 + conj(phi0)) for the requested module type."""
    if ctype not in CURV_TYPES:
        raise ValueError(f"unknown curvature type {ctype!r}")
    if n < 2:
        raise ValueError("n must be >= 2")
    def unbarred(m):
        return CD(m, Mat(n + 1))

    if ctype == "I":
        slots = ((0, 1), (0, 2))
        value = Mat.unit(n + 1, 1, 2) if n == 2 else Mat.unit(n + 1, n + 1, 2)
    elif ctype == "II":
        slots = ((0, 1), (1, 1))
        value = Mat.unit(n + 1, n + 1, 2)
    elif ctype == "III":
        slots = ((1, 1), (1, 2))
        value = Mat.unit(n + 1, n + 1, 1)
    else:  # IV
        slots = ((0, 1), (1, 1))
        value = Mat.unit(n + 1, n + 1, 1)
    phi0 = CurvElement(n, {slots: unbarred(value)})
    return phi0, phi0 + phi0.conj()


@dataclass
class AnnihilatorResult:
    """The kernel of X |-> X.psi on the real grade-0 part.

    `basis` holds the kernel as real elements, one `Mat` each: primitive
    integer combinations of the g_0 basis, int coefficients of content 1, so
    the structure constants built on them stay ints where the algebra allows.
    `actions` maps each g_0 basis label to the real coordinates (keyed as
    by `_real_coordinates`) of its action on psi; by linearity the action
    of any grade-0 element is their combination."""

    n: int
    dim: int
    basis: list = field(repr=False)  # Mats, real elements of g_0
    actions: dict = field(repr=False)  # g_0 label -> real coordinates of e.psi


@dataclass
class ProlongationResult:
    n: int
    ann_dim: int
    plus_dim: int
    total: int
    rigid: bool
    ann: AnnihilatorResult = field(repr=False)


def _real_coordinates(elem: CurvElement, prefix=()):
    """The real and imaginary parts of `elem.coordinates()`, keyed
    prefix + ("re" | "im",) + key."""
    out = {}
    for key, (re, im) in elem.coordinates().items():
        if re:
            out[prefix + ("re",) + key] = re
        if im:
            out[prefix + ("im",) + key] = im
    return out


def annihilator(psi: CurvElement, g: SlPair = None):
    """Exact kernel of X |-> X.psi over the real grade-0 part."""
    n = psi.n
    g = g or SlPair(n)
    labels = [l for l in g.basis_labels if g.grade_of_label(l) == 0]
    rows = {}
    actions = {}
    for col, lbl in enumerate(labels):
        act = actions[lbl] = _real_coordinates(g0_action(g.element_of_label(lbl), psi))
        for key, v in act.items():
            rows.setdefault(key, {})[col] = v
    sys = LinearSystem()
    sys.register_columns(range(len(labels)))
    for row in rows.values():
        sys.add_row(row)
    basis = []
    for vec in sys.kernel():
        x = Mat(n + 1)
        for c, v in _scale_row_to_int(vec).items():
            x = x + g.element_of_label(labels[c]).scale((v, 0))
        basis.append(x)
    return AnnihilatorResult(n, len(basis), basis, actions)


def tanaka_prolongation(psi: CurvElement, g: SlPair = None):
    """Degree-one prolongation a_1 = {X in g_1 : [v,X].psi = 0 for all v}.

    [v,X] lies in g_0, so [v,X].psi is the combination, with the real
    coordinates of [v,X] as coefficients, of the per-basis actions that
    `annihilator` keeps."""
    n = psi.n
    g = g or SlPair(n)
    ann = annihilator(psi, g)
    labels = g.basis_labels
    plus = [l for l in labels if g.grade_of_label(l) == 1]
    minus = [l for l in labels if g.grade_of_label(l) == -1]
    rows = {}
    for col, lbl in enumerate(plus):
        x = g.element_of_label(lbl)
        for vl in minus:
            elem = {}
            for i, c in g.coordinates(g.element_of_label(vl).bracket(x)).items():
                for key, val in ann.actions[labels[i]].items():
                    accumulate(elem, (vl,) + key, c * val)
            for key, val in elem.items():
                rows.setdefault(key, {})[col] = val
    sys = LinearSystem()
    sys.register_columns(range(len(plus)))
    for row in rows.values():
        sys.add_row(row)
    plus_dim = sys.kernel_dim()
    total = 2 * n + ann.dim + plus_dim
    return ProlongationResult(n, ann.dim, plus_dim, total, plus_dim == 0, ann)


DIAGONAL_CONDITIONS = {
    "I": "2(a0 - a1) - a2 + a_n = 0",
    "II": "2 Re(a0 - a1) = a1 - a_n",
    "III": "2 conj(a0) - a0 = conj(a1) + conj(a2) - a_n",
    "IV": "a1 + conj(a1) = conj(a0) + a_n",
}

# Each relation above as sum (c a_j + d conj(a_j)) = 0, listed as (j, c, d);
# j = -1 stands for a_n.
_DIAGONAL_TERMS = {
    "I": ((0, 2, 0), (1, -2, 0), (2, -1, 0), (-1, 1, 0)),
    "II": ((0, 1, 1), (1, -2, -1), (-1, 1, 0)),
    "III": ((0, -1, 2), (1, 0, -1), (2, 0, -1), (-1, 1, 0)),
    "IV": ((1, 1, 1), (0, 0, -1), (-1, -1, 0)),
}


def diagonal_condition_holds(ctype, n, ann: AnnihilatorResult) -> bool:
    """Check the published diagonal relation on every annihilator basis
    element (a_j denotes the (j+1,j+1) entry; valid for n >= 3, and for the
    types using a_2 also at n = 2 where a_2 = a_n).  The term
    c a_j + d conj(a_j) has real part (c + d) Re a_j and imaginary part
    (c - d) Im a_j; both sums must vanish."""
    terms = _DIAGONAL_TERMS[ctype]
    for x in ann.basis:
        a = [x.at(j, j) for j in range(n + 1)]
        if sum((c + d) * a[j][0] for j, c, d in terms):
            return False
        if sum((c - d) * a[j][1] for j, c, d in terms):
            return False
    return True


# -- published closed forms (cross-check route) -------------------------------


def annihilator_closed_form(ctype, n):
    if ctype == "I":
        return 4 if n == 2 else 2 * (n * n - 3 * n + 5)
    if ctype == "II":
        return 2 * (n * n - 2 * n + 2)
    if ctype == "III":
        return 4 if n == 2 else 2 * (n * n - 3 * n + 6)
    if ctype == "IV":
        return 2 * (n - 1) ** 2 + 2
    raise ValueError(ctype)


def bound_closed_form(ctype, n):
    """Algebraic symmetry bound 2n + dim ann (prolongation-rigid case)."""
    return 2 * n + annihilator_closed_form(ctype, n)


def submax_closed_form(ctype, n):
    """Realizable submaximal dimension per curvature type."""
    if ctype == "I":
        return 6 if n == 2 else 2 * n * n - 4 * n + 10
    if ctype == "II":
        return 2 * n * n - 2 * n + 4
    if ctype == "III":
        return 8 if n == 2 else 2 * n * n - 4 * n + 12
    if ctype == "IV":
        return 2 * n * n - 2 * n + 4
    raise ValueError(ctype)


def submax_overall(n):
    return 2 * n * n - 2 * n + 4 + (2 if n == 3 else 0)


def flat_dimension(n):
    return 2 * n * n + 4 * n


def upper_bound(ctype, n, g=None):
    """Computed bound: 2n + dim ann(phi0 + conj), checked rigid."""
    _, psi = lowest_weight_vector(ctype, n)
    pr = tanaka_prolongation(psi, g or SlPair(n))
    return pr.total, pr


@dataclass
class TableRow:
    n: int
    bounds: dict  # ctype -> computed algebraic bound
    closed: dict  # ctype -> closed-form bound
    submax: dict  # ctype -> realizable submaximal dimension
    overall: int
    rigid: bool
    advisories: list


def theorem_table(n_min=2, n_max=6):
    """One row per n: both routes for the bounds plus the realizable values."""
    if not (2 <= n_min <= n_max <= 8):
        raise ValueError("table range must satisfy 2 <= n_min <= n_max <= 8")
    rows = []
    for n in range(n_min, n_max + 1):
        g = SlPair(n)
        bounds = {}
        rigid = True
        advisories = []
        for ctype in CURV_TYPES:
            total, pr = upper_bound(ctype, n, g)
            bounds[ctype] = total
            rigid = rigid and pr.rigid
        closed = {t: bound_closed_form(t, n) for t in CURV_TYPES}
        submax = {t: submax_closed_form(t, n) for t in CURV_TYPES}
        if n == 2:
            advisories.append(
                "type I at n=2: algebraic bound 8 is not realizable; "
                "the submaximal dimension is 6"
            )
        overall = max(submax["I"], submax["II"], submax["III"])
        rows.append(TableRow(n, bounds, closed, submax, overall, rigid, advisories))
    return rows


# -- module span (sanity route) -----------------------------------------------


def module_span(ctype, n):
    """Basis of the g_0-submodule generated by the real extremal vector."""
    g = SlPair(n)
    _, psi = lowest_weight_vector(ctype, n)
    g0 = [g.element_of_label(l) for l in g.basis_labels if g.grade_of_label(l) == 0]
    span = SpanSolver()
    basis = []
    queue = [psi]
    span_add(span, basis, psi)
    while queue:
        cur = queue.pop(0)
        for x in g0:
            nxt = g0_action(x, cur)
            if span_add(span, basis, nxt):
                queue.append(nxt)
    return basis


def span_add(span, basis, elem):
    if elem.is_zero():
        return False
    if span.insert(_real_coordinates(elem)):
        basis.append(elem)
        return True
    return False


def subalgebra_with_cochain(ctype, n):
    """The graded algebra g_{-1} (+) ann with the extremal cochain.

    Returns (algebra, cochain): a `structlie.StructAlgebra` on labels v1.. (of
    grade -1) and a1.. (of grade 0), and the cochain table, a sparse value
    vector over those labels for each pair (i, j), i < j, of g_{-1} indices.
    """
    if ctype == "I" and n == 2:
        # the algebraic bound 8 is not realizable at n=2 (see theorem_table)
        raise ValueError("type I deformation needs n >= 3: at n=2 the bracket "
                         "escapes g_-1 + ann")
    g = SlPair(n)
    _, psi = lowest_weight_vector(ctype, n)
    ann = annihilator(psi, g)
    minus_labels = [l for l in g.basis_labels if g.grade_of_label(l) == -1]
    elements = [g.element_of_label(l) for l in minus_labels] + list(ann.basis)
    nm = len(minus_labels)
    labels = [f"v{i+1}" for i in range(nm)] + [f"a{i+1}" for i in range(ann.dim)]
    grades = {l: (-1 if i < nm else 0) for i, l in enumerate(labels)}
    span = SpanSolver()
    for el in elements:
        if not span.insert(g.coordinates(el)):
            raise RuntimeError("subalgebra basis is degenerate")

    def expand(el: Mat):
        coeffs = span.decompose(g.coordinates(el))
        if coeffs is None:
            raise RuntimeError("bracket escapes the subalgebra")
        return coeffs

    table = {}
    for i in range(len(elements)):
        for j in range(i + 1, len(elements)):
            br = elements[i].bracket(elements[j])
            if br.is_zero():
                continue
            table[(i, j)] = expand(br)
    cochain = {}
    for i in range(nm):
        for j in range(i + 1, nm):
            val = psi.evaluate(elements[i], elements[j])
            if val.is_zero():
                continue
            if not val.is_real():
                raise ValueError("cochain value is not in the real form")
            cochain[(i, j)] = expand(val.u)
    return StructAlgebra(labels, table, grading=grades), cochain
