"""Sparse multivariate Laurent polynomials with declared denominators.

A `VarTable` is the variable registry: an ordered list of names, a per-variable
laurent flag (negative exponents permitted), and an optional list of named
denominator polynomials.  A `LaurentPoly` is a sparse map from integer exponent
vectors to rational coefficients (int or `Fraction`), together with a
multiplicity vector over the table's denominators.  Values are kept canonical:
no zero coefficients, and the numerator is not divisible by any denominator
that has positive multiplicity, so structural equality is value equality.

Denominator polynomials must involve only non-laurent variables; laurent
variables already provide monomial denominators through negative exponents.

Complex notation is not a coefficient field here: the imaginary unit is the
plain variable `I` of `tensorcalc.complex_table`, and only
`tensorcalc.complex_tensor_to_real` reads I^2 = -1.
"""

from __future__ import annotations

from fractions import Fraction


class PolyError(ValueError):
    pass


def _rational(c):
    """c itself when it is an exact rational (int or Fraction)."""
    if isinstance(c, (int, Fraction)):
        return c
    raise PolyError(f"coefficients are int or Fraction, not {type(c).__name__}: {c!r}")


class VarTable:
    """Ordered variable registry shared by all polynomials of a chart."""

    __slots__ = ("names", "laurent", "den_names", "den_terms", "_index")

    def __init__(self, names, laurent=(), denominators=None):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise PolyError(f"duplicate variable names in {names}")
        self.names = names
        self.laurent = tuple(bool(n in laurent) for n in names)
        self._index = {n: i for i, n in enumerate(names)}
        den_names = []
        den_terms = []
        for dname, terms in (denominators or {}).items():
            canon = {}
            for exps, c in terms.items():
                if not _rational(c):
                    continue
                if any(e < 0 for e in exps):
                    raise PolyError(f"denominator {dname} uses negative exponents")
                if any(e and self.laurent[i] for i, e in enumerate(exps)):
                    raise PolyError(f"denominator {dname} involves a laurent variable")
                canon[tuple(exps)] = c
            if not canon:
                raise PolyError(f"denominator {dname} is zero")
            den_names.append(dname)
            den_terms.append(tuple(sorted(canon.items())))
        self.den_names = tuple(den_names)
        self.den_terms = tuple(den_terms)

    def index(self, name) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise PolyError(f"unknown variable {name!r} (registry: {self.names})") from None

    def nvars(self) -> int:
        return len(self.names)

    def denominator_poly(self, k) -> "LaurentPoly":
        return LaurentPoly(self, dict(self.den_terms[k]))

    def key(self):
        return (self.names, self.laurent, self.den_names, self.den_terms)

    def __eq__(self, other):
        return isinstance(other, VarTable) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        lau = ",".join(n for n, f in zip(self.names, self.laurent) if f)
        extra = f" laurent={lau}" if lau else ""
        if self.den_names:
            extra += f" denoms={','.join(self.den_names)}"
        return f"VarTable({' '.join(self.names)}{extra})"


def _check_same_table(a, b):
    if a.table is not b.table and a.table != b.table:
        raise PolyError(f"variable registry mismatch: {a.table!r} vs {b.table!r}")


class LaurentPoly:
    """numerator / prod(denominator_k ** den[k]) over a fixed registry."""

    __slots__ = ("table", "terms", "den")

    def __init__(self, table, terms=None, den=None, _reduce=True):
        self.table = table
        nd = len(table.den_names)
        self.den = tuple(den) if den else (0,) * nd
        if len(self.den) != nd or any(m < 0 for m in self.den):
            raise PolyError(f"bad denominator multiplicities {self.den}")
        canon = {}
        nv = table.nvars()
        for exps, c in (terms or {}).items():
            if not _rational(c):
                continue
            exps = tuple(exps)
            if len(exps) != nv:
                raise PolyError(f"exponent vector {exps} has wrong length")
            for i, e in enumerate(exps):
                if e < 0 and not table.laurent[i]:
                    raise PolyError(
                        f"negative exponent on ordinary variable {table.names[i]}"
                    )
            canon[exps] = canon[exps] + c if exps in canon else c
            if not canon[exps]:
                del canon[exps]
        self.terms = canon
        if _reduce and any(self.den):
            self._reduce_inplace()

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(table):
        return LaurentPoly(table, {})

    @staticmethod
    def const(table, c):
        if not _rational(c):
            return LaurentPoly(table, {})
        return LaurentPoly(table, {(0,) * table.nvars(): c})

    @staticmethod
    def var(table, name, power=1):
        i = table.index(name)
        if power < 0 and not table.laurent[i]:
            raise PolyError(f"negative power on ordinary variable {name}")
        exps = [0] * table.nvars()
        exps[i] = power
        return LaurentPoly(table, {tuple(exps): 1})

    # -- canonical reduction against declared denominators ---------------

    def _reduce_inplace(self):
        den = list(self.den)
        for k in range(len(den)):
            while den[k] > 0:
                q = _exact_divide(self.table, self.terms, dict(self.table.den_terms[k]))
                if q is None:
                    break
                self.terms = q
                den[k] -= 1
        self.den = tuple(den)

    # -- predicates -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        if not self.terms:
            return True
        if any(self.den):
            return False
        zero = (0,) * self.table.nvars()
        return set(self.terms) == {zero}

    def constant_value(self):
        if not self.is_constant():
            raise PolyError(f"not a constant: {self}")
        return self.terms.get((0,) * self.table.nvars(), Fraction(0))

    # -- arithmetic --------------------------------------------------------

    def _aligned(self, other):
        """Numerator term dicts of self and other over the common denominator."""
        den = tuple(max(a, b) for a, b in zip(self.den, other.den))
        ta = self.terms
        for k, (m, target) in enumerate(zip(self.den, den)):
            for _ in range(target - m):
                ta = _mul_terms(ta, dict(self.table.den_terms[k]))
        tb = other.terms
        for k, (m, target) in enumerate(zip(other.den, den)):
            for _ in range(target - m):
                tb = _mul_terms(tb, dict(self.table.den_terms[k]))
        return ta, tb, den

    def __add__(self, other):
        # the exact type first: isinstance(other, Fraction) is an ABC check
        if type(other) is not LaurentPoly:
            if isinstance(other, (int, Fraction)):
                other = LaurentPoly.const(self.table, other)
            elif not isinstance(other, LaurentPoly):
                return NotImplemented
        _check_same_table(self, other)
        ta, tb, den = self._aligned(other)
        out = dict(ta)
        for exps, c in tb.items():
            s = out.get(exps)
            s = c if s is None else s + c
            if not s:
                out.pop(exps, None)
            else:
                out[exps] = s
        if not any(den):
            # the loop dropped every cancelled term: out is canonical
            return _canonical(self.table, out, den)
        return LaurentPoly(self.table, out, den)

    __radd__ = __add__

    def __neg__(self):
        return _canonical(self.table, {e: -c for e, c in self.terms.items()}, self.den)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(self.table, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is not LaurentPoly:  # the exact type first, as in __add__
            if isinstance(other, (int, Fraction)):
                if not other:
                    return LaurentPoly.zero(self.table)
                return LaurentPoly(
                    self.table,
                    {e: v * other for e, v in self.terms.items()},
                    self.den,
                    _reduce=False,
                )
            if not isinstance(other, LaurentPoly):
                return NotImplemented
        _check_same_table(self, other)
        terms = _mul_terms(self.terms, other.terms)
        if not any(self.den) and not any(other.den):
            # the product of two canonical numerators is canonical: no zero
            # terms, and negative exponents only on laurent variables
            return _canonical(self.table, terms, self.den)
        den = tuple(a + b for a, b in zip(self.den, other.den))
        return LaurentPoly(self.table, terms, den)

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int):
            raise PolyError("exponent must be an integer")
        if k < 0:
            inv = self.inverse_if_unit()
            if inv is None:
                raise PolyError(f"cannot invert {self}")
            return inv ** (-k)
        out = LaurentPoly.const(self.table, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def inverse_if_unit(self):
        """Inverse when self is a scalar multiple of a laurent monomial times
        a product of declared denominators; None otherwise."""
        num = LaurentPoly(self.table, dict(self.terms), _reduce=False)
        mult = [0] * len(self.table.den_names)
        progress = True
        while progress and len(num.terms) > 1:
            progress = False
            for k in range(len(self.table.den_names)):
                q = _exact_divide(self.table, num.terms, dict(self.table.den_terms[k]))
                if q is not None:
                    num = LaurentPoly(self.table, q, _reduce=False)
                    mult[k] += 1
                    progress = True
        if len(num.terms) != 1:
            return None
        (exps, c), = num.terms.items()
        if any(e > 0 and not self.table.laurent[i] for i, e in enumerate(exps)):
            return None
        inv_exps = tuple(-e for e in exps)
        inv = LaurentPoly(self.table, {inv_exps: Fraction(1, c)}, _reduce=False)
        # self = num / prod(den**self.den) * prod(den**mult) cleared:
        # 1/self = inv_monomial * prod(den**(self.den)) / prod(den**mult)
        for k, m in enumerate(self.den):
            for _ in range(m):
                inv = inv * self.table.denominator_poly(k)
        return LaurentPoly(self.table, inv.terms, tuple(mult))

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("polynomial division by zero")
            return self * Fraction(1, other)
        _check_same_table(self, other)
        inv = other.inverse_if_unit()
        if inv is not None:
            return self * inv
        if any(other.den):
            raise PolyError("cannot divide by a tagged fraction that is not a unit")
        q = _exact_divide(self.table, self.terms, other.terms)
        if q is None:
            raise PolyError(f"inexact division by {other}")
        return LaurentPoly(self.table, q, self.den)

    # -- calculus -----------------------------------------------------------

    def derivative(self, name):
        i = self.table.index(name)
        dnum = _diff_terms(self.terms, i)
        if not any(self.den):
            # d/dx_i keeps exponent vectors apart and coefficients nonzero,
            # and never takes an ordinary variable's exponent below zero
            return _canonical(self.table, dnum, self.den)
        # quotient rule over the declared denominators
        table = self.table
        out_terms = dnum
        for k, m in enumerate(self.den):
            if m:
                out_terms = _mul_terms(out_terms, dict(table.den_terms[k]))
        for k, m in enumerate(self.den):
            if not m:
                continue
            ddk = _diff_terms(dict(table.den_terms[k]), i)
            if not ddk:
                continue
            piece = _mul_terms(self.terms, ddk)
            piece = {e: c * (-m) for e, c in piece.items()}
            for j, mj in enumerate(self.den):
                if j == k or not mj:
                    continue
                piece = _mul_terms(piece, dict(table.den_terms[j]))
            for e, c in piece.items():
                s = out_terms.get(e)
                s = c if s is None else s + c
                if not s:
                    out_terms.pop(e, None)
                else:
                    out_terms[e] = s
        den = tuple(m + 1 if m else 0 for m in self.den)
        return LaurentPoly(self.table, out_terms, den)

    # -- substitution / evaluation -------------------------------------------

    def substitute_power(self, name, new_table, new_name, power):
        """Rename `name` to `new_name` with exponent scaled by `power`
        (the ingestion substitution var = new_var**power)."""
        i = self.table.index(name)
        j = new_table.index(new_name)
        if [n for n in self.table.names if n != name] != [
            n for n in new_table.names if n != new_name
        ]:
            raise PolyError("substitution tables must agree outside the renamed variable")
        out = {}
        old_pos = {n: k for k, n in enumerate(self.table.names)}
        for exps, c in self.terms.items():
            new_exps = [0] * new_table.nvars()
            for k2, n in enumerate(new_table.names):
                if k2 == j:
                    new_exps[k2] = exps[i] * power
                else:
                    new_exps[k2] = exps[old_pos[n]]
            out[tuple(new_exps)] = c
        if any(self.den):
            raise PolyError("substitution with denominator tags is not supported")
        return LaurentPoly(new_table, out)

    def evaluate(self, point):
        """The Fraction value at {name: int/Fraction}; denominators must not
        vanish."""
        vals = [Fraction(point[n]) for n in self.table.names]
        acc = Fraction(0)
        for exps, c in self.terms.items():
            for v, e in zip(vals, exps):
                if e:
                    c *= v**e
            acc += c
        for k, m in enumerate(self.den):
            if not m:
                continue
            dval = LaurentPoly(self.table, dict(self.table.den_terms[k])).evaluate(point)
            if not dval:
                raise ZeroDivisionError(
                    f"denominator {self.table.den_names[k]} vanishes at {point}"
                )
            acc /= dval**m
        return acc

    def monomials(self):
        return sorted(self.terms, reverse=True)

    # -- comparison -----------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(self.table, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if self.table != other.table:
            return False
        return self.den == other.den and self.terms == other.terms

    def __hash__(self):
        return hash((self.den, tuple(sorted(self.terms.items(), key=lambda t: t[0]))))

    def __bool__(self):
        return bool(self.terms)

    # -- printing ---------------------------------------------------------------

    def __str__(self):
        from .parse import format_poly

        return format_poly(self)

    __repr__ = __str__


def accumulate(out, key, val):
    """out[key] += val, never storing a zero: sparse dicts of exact scalar
    or LaurentPoly values hold only nonzero entries."""
    if not val:
        return
    s = out.get(key)
    s = val if s is None else s + val
    if s:
        out[key] = s
    else:
        out.pop(key, None)


def _canonical(table, terms, den):
    """The poly terms / D^den without the constructor's checks, for terms
    that are already canonical: no zero coefficient, negative exponents only
    on laurent variables, and a numerator not divisible by the denominators
    of positive multiplicity."""
    out = object.__new__(LaurentPoly)
    out.table, out.terms, out.den = table, terms, den
    return out


def _mul_terms(a, b):
    out = {}
    if len(a) > len(b):
        a, b = b, a
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            c = ca * cb
            s = out.get(e)
            s = c if s is None else s + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def _diff_terms(terms, i):
    out = {}
    for exps, c in terms.items():
        e = exps[i]
        if e == 0:
            continue
        ne = list(exps)
        ne[i] = e - 1
        out[tuple(ne)] = c * e
    return out


def _exact_divide(table, num_terms, den_terms):
    """num / den when exact, else None.  den involves ordinary variables only,
    so laurent exponents ride along unchanged and the reduction terminates."""
    if not num_terms:
        return {}
    lead = max(den_terms)
    clead = den_terms[lead]
    rem = dict(num_terms)
    quot = {}
    while rem:
        m = max(rem)
        q = tuple(a - b for a, b in zip(m, lead))
        if any(e < 0 and not table.laurent[i] for i, e in enumerate(q)):
            return None
        cq = Fraction(rem[m], clead)
        quot[q] = cq
        for e, c in den_terms.items():
            tgt = tuple(a + b for a, b in zip(q, e))
            s = rem.get(tgt, 0) - cq * c
            if not s:
                rem.pop(tgt, None)
            else:
                rem[tgt] = s
    return quot
