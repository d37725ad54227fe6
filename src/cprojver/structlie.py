"""Finite-dimensional Lie algebras given by structure constants.

Coefficients are int, `Fraction` or `LaurentPoly` (a polynomial in
declared commuting parameters, so a Jacobi residual with a free parameter is a
polynomial identity); each is falsy exactly when it is zero.  The bracket
table stores only pairs (i, j) with i < j; antisymmetry is implicit, and a
pair given in both orders is refused.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .linalg import SpanSolver
from .poly import LaurentPoly, accumulate


class StructAlgebra:
    """Labeled basis + sparse bracket table, with optional gradings."""

    def __init__(self, labels, bracket, params=None, grading=None, z2=None, name=""):
        self.labels = tuple(labels)
        self.name = name or "algebra"
        self.params = params  # VarTable of parameters, or None
        self.index = {l: i for i, l in enumerate(self.labels)}
        self.grading = dict(grading) if grading else None
        self.z2 = dict(z2) if z2 else None
        table = {}
        for (i, j), vec in bracket.items():
            if i == j:
                raise ValueError(f"bracket [{i},{i}] must vanish by antisymmetry")
            if i > j:
                if (j, i) in bracket:
                    raise ValueError(f"bracket pair ({j}, {i}) is given in both orders")
                i, j, vec = j, i, {k: -c for k, c in vec.items()}
            clean = {k: c for k, c in vec.items() if c}
            if clean:
                table[(i, j)] = clean
        self.table = table

    def dim(self):
        return len(self.labels)

    def has_params(self):
        return self.params is not None and self.params.nvars() > 0

    # -- bracket of coordinate vectors ---------------------------------------

    def bracket_units(self, i, j):
        if i == j:
            return {}
        if i < j:
            return dict(self.table.get((i, j), {}))
        return {k: -c for k, c in self.table.get((j, i), {}).items()}

    def bracket_vec(self, x, y):
        out = {}
        for i, ci in x.items():
            if not ci:
                continue
            for j, cj in y.items():
                if not cj:
                    continue
                for k, c in self.bracket_units(i, j).items():
                    accumulate(out, k, ci * cj * c)
        return out

    # -- validity ---------------------------------------------------------------

    def jacobi_residual(self):
        """All nonzero cyclic sums Jac(e_i,e_j,e_k); empty table <=> Lie algebra.

        One pass over the products: for each table pair a < b, each (t, x)
        in [e_a,e_b] and each c not a or b with (t, c) a table pair, x*y e_m
        for (m, y) in [e_t,e_c] is summed into the key (i, j, k, m), i < j < k
        the sorted triple.  The term [[e_a,e_b],e_c] is the Jac(i,j,k) term
        [[e_k,e_i],e_j] = -[[e_i,e_k],e_j] exactly when a < c < b, and enters
        with sign +1 otherwise.  Triples come out in sorted order, each with
        its entries by ascending m."""
        partners = {}  # t -> (c, [e_t,e_c] up to sign, sign) per table pair
        for (i, j), vec in self.table.items():
            partners.setdefault(i, []).append((j, vec, 1))
            partners.setdefault(j, []).append((i, vec, -1))
        terms = {}
        for (a, b), vec in self.table.items():
            for t, x in vec.items():
                for c, tc, sign in partners.get(t, ()):
                    if c > b:
                        key = (a, b, c)
                    elif c < a:
                        key = (c, a, b)
                    elif c == a or c == b:
                        continue
                    else:
                        key, sign = (a, c, b), -sign
                    xs = x if sign > 0 else -x
                    for m, y in tc.items():
                        accumulate(terms, key + (m,), xs * y)
        lab = self.labels
        bad = {}
        for key in sorted(terms):
            i, j, k, m = key
            bad.setdefault((lab[i], lab[j], lab[k]), {})[lab[m]] = terms[key]
        return bad

    # -- derived series -----------------------------------------------------------

    def derived_series(self):
        if self.has_params():
            raise ValueError(
                "derived series needs numeric coefficients; specialize parameters first"
            )
        dims = [self.dim()]
        basis = [{i: 1} for i in range(self.dim())]
        while True:
            span = SpanSolver()
            new_basis = []
            for a in range(len(basis)):
                for b in range(a + 1, len(basis)):
                    v = self.bracket_vec(basis[a], basis[b])
                    if v and span.insert(v):
                        new_basis.append(v)
            d = span.dim()
            dims.append(d)
            if d == 0 or d == dims[-2]:
                break
            basis = new_basis
        return tuple(dims)

    # -- gradings ------------------------------------------------------------------

    def _first_violation(self, kind, degree, holds):
        """(True, None) if holds(degree[k], degree[i], degree[j]) for every
        basis vector k in [e_i, e_j]; else (False, (i, j, k) labels)."""
        if not degree:
            raise ValueError(f"no {kind} grading declared")
        lab = self.labels
        for (i, j), vec in self.table.items():
            di, dj = degree[lab[i]], degree[lab[j]]
            for k in vec:
                if not holds(degree[lab[k]], di, dj):
                    return False, (lab[i], lab[j], lab[k])
        return True, None

    def check_grading(self):
        """Integer grading check; returns (ok, violating (i,j,label) or None)."""
        return self._first_violation("integer", self.grading, lambda d, a, b: d == a + b)

    def check_filtration(self):
        """[F_i, F_j] subset F_{i+j} for the decreasing filtration F_i = sum_{k>=i} g_k."""
        return self._first_violation("integer", self.grading, lambda d, a, b: d >= a + b)

    def check_z2(self):
        return self._first_violation("Z2", self.z2, lambda d, a, b: d == a * b)

    # -- parameters -------------------------------------------------------------------

    def specialize(self, values):
        """Substitute rational values for parameters; returns a numeric algebra."""
        if not self.has_params():
            return self
        point = {n: values[n] for n in self.params.names}
        out = {}
        for key, vec in self.table.items():
            nv = {}
            for k, c in vec.items():
                cv = c.evaluate(point) if isinstance(c, LaurentPoly) else c
                if cv:
                    nv[k] = cv
            if nv:
                out[key] = nv
        return StructAlgebra(
            self.labels, out, grading=self.grading, z2=self.z2, name=self.name
        )


@dataclass
class DeformationResult:
    deformed: StructAlgebra
    residual: dict
    predicted: dict
    matches_prediction: bool


def deform_by_cochain(alg: StructAlgebra, cochain):
    """Deformed bracket [x,y] - psi(x,y) and its Jacobi residual.

    g_{-1} is the span of the labels of grade -1 in `alg.grading`.  `cochain`
    maps pairs (i, j) of g_{-1} basis indices to sparse value vectors over the
    algebra basis; psi is read as the algebra `StructAlgebra(alg.labels,
    cochain)`.  The residual must coincide with the cyclic sum
    psi(psi(x,y),z) on g_{-1} triples (psi extended by zero), which is also
    returned.  The deformed algebra keeps the grading of `alg`.
    """
    if not alg.grading:
        raise ValueError("deformation needs the integer grading that marks g_-1")
    minus = [i for i, l in enumerate(alg.labels) if alg.grading[l] == -1]
    psi = StructAlgebra(alg.labels, cochain)
    for (i, j), vec in psi.table.items():
        if i not in minus or j not in minus:
            raise ValueError("cochain must be supported on the minus part")
        for k in vec:
            if not (0 <= k < alg.dim()):
                raise ValueError("cochain value outside the algebra")

    new_table = {}
    for key in sorted(alg.table.keys() | psi.table.keys()):
        vec = dict(alg.table.get(key, {}))
        for k, c in psi.table.get(key, {}).items():
            accumulate(vec, k, -c)
        new_table[key] = vec
    deformed = StructAlgebra(
        alg.labels, new_table, params=alg.params, grading=alg.grading,
        name=alg.name + "+deform",
    )
    residual = deformed.jacobi_residual()

    predicted = {}
    for i, j, k in combinations(minus, 3):
        r = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for t, v in psi.bracket_vec(psi.bracket_units(a, b), {c: 1}).items():
                accumulate(r, t, v)
        if r:
            predicted[(alg.labels[i], alg.labels[j], alg.labels[k])] = {
                alg.labels[t]: v for t, v in r.items()
            }
    # neither table stores a zero, so equal tables are equal dicts
    return DeformationResult(deformed, residual, predicted, residual == predicted)
