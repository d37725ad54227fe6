"""Sparse multivariate Laurent polynomials with declared denominators.

A `VarTable` is the variable registry: an ordered list of names, a per-variable
laurent flag (negative exponents permitted), and an optional list of named
denominator polynomials.  A `LaurentPoly` is a sparse map `terms` from
monomial keys to int numerators, one positive int `q` for the whole
polynomial (as FLINT's `fmpq_poly` stores a rational polynomial), and a
multiplicity vector `den` over the table's denominators; its value is
sum_k terms[k] x^k / (q prod_j D_j^den[j]).  A key is one int, the packed
exponent vector (`pack`), and it is the only monomial format from the parser
to the rows of the linear systems; exponent tuples appear only where text is
read or written (`pack`, `unpack`, `LaurentPoly.monomials`).  The term loops
(products, sums, derivatives, exact division) run on ints alone: exact
rationals are split once where a polynomial is built from them, and are
rebuilt only where coefficients are read (`rational_terms`, `monomials`).
Values are kept canonical: no zero numerator, q prime to the numerators'
content (so q is the lcm of the reduced coefficients' denominators), and the
numerator is not divisible by any denominator that has positive
multiplicity, and no declared denominator is a rational multiple of another,
so structural equality is value equality.  A declared
denominator is stored the same way: int numerators `den_terms[j]` over
`den_q[j]`, read by no other module.  One function multiplies declared
denominators out (`_den_power`, cached per table) and one divides them out
(`_divide_out`); other modules ask for a polynomial's numerator over a
given product of them (`LaurentPoly.numerator_over`).  Sums of products
(contractions, Lie derivatives, field brackets) go through one accumulator,
`ProductSum`: it sums the products' int numerators per output key, bucketed
by (den, q), and builds one polynomial per key instead of one per partial
product and per running sum.

Denominator polynomials must involve only non-laurent variables; laurent
variables already provide monomial denominators through negative exponents.

Complex notation is not a coefficient field here: the imaginary unit is the
plain variable `I` of `tensorcalc.complex_table`, and only
`tensorcalc.complex_tensor_to_real` reads I^2 = -1, as a quarter turn of
Gaussian-int numerators per power of I.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, lcm


class PolyError(ValueError):
    pass


# A monomial x^e is keyed by its packed exponent vector (Monagan-Pearce, CASC
# 2007): slot i of _SLOT bits holds e_i + _BIAS, slot 0 the most significant,
# so int order is the lexicographic order of the vectors.  With zero the key
# of x^0, x^e x^f is key(e) + key(f) - zero and 1/x^e is 2 zero - key(e); a
# shift, a vector packed without the bias, multiplies a key by x^e in one
# addition.  Every exponent of every key that a polynomial holds lies in
# (-_LIMIT, _LIMIT), checked on every result (`_guard`), so a sum of a few
# keys and shifts never carries between slots and keys never alias.
_SLOT = 16
_BIAS = 1 << (_SLOT - 1)
_LIMIT = 1 << (_SLOT - 3)
_MASK = (1 << _SLOT) - 1


def pack(exps, bias=_BIAS):
    """The key of the exponent vector `exps`, or with bias=0 the shift that
    multiplies a key by x^exps."""
    key = 0
    for e in exps:
        if not -_LIMIT < e < _LIMIT:
            raise PolyError(f"exponent {e} of {tuple(exps)} is outside the packed range")
        key = (key << _SLOT) + e + bias
    return key


def unpack(key, nv):
    """The exponent vector of the key `key` in `nv` variables."""
    exps = [0] * nv
    for i in reversed(range(nv)):
        exps[i] = (key & _MASK) - _BIAS
        key >>= _SLOT
    return tuple(exps)


def _rational(c):
    """c itself when it is an exact rational (int or Fraction)."""
    if isinstance(c, (int, Fraction)):
        return c
    raise PolyError(f"coefficients are int or Fraction, not {type(c).__name__}: {c!r}")


def _split(terms, q=1):
    """The exact rational `terms` over q as (int numerators, q) in lowest
    terms, zeros dropped."""
    terms = {k: c for k, c in terms.items() if _rational(c)}
    if any(type(c) is not int for c in terms.values()):
        m = lcm(*(c.denominator for c in terms.values()))
        terms = {k: c.numerator * (m // c.denominator) for k, c in terms.items()}
        q *= m
    return _lowest(terms, q)


def _lowest(terms, q):
    """The int numerators `terms` over q in lowest terms: q and every
    numerator divided by their common factor.  Free when q is 1."""
    if q > 1:
        g = gcd(q, *terms.values())
        if g > 1:
            q //= g
            terms = {k: c // g for k, c in terms.items()}
    return terms, q


class VarTable:
    """Ordered variable registry shared by all polynomials of a chart."""

    __slots__ = (
        "names", "laurent", "den_names", "den_terms", "den_q", "_index",
        "zero", "_lo", "_hi", "_high", "_ordinary", "_powers",
    )

    def __init__(self, names, laurent=(), denominators=None):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise PolyError(f"duplicate variable names in {names}")
        self.names = names
        self.laurent = tuple(bool(n in laurent) for n in names)
        self._index = {n: i for i, n in enumerate(names)}
        nv = len(names)
        units = [1 << (_SLOT * (nv - 1 - i)) for i in range(nv)]  # key shifts of x_i
        ones = sum(units)
        self.zero = _BIAS * ones
        # a key is in range when every slot of key - _lo and of _hi - key is
        # below 2**(_SLOT - 2) and nothing is left above the top slot
        self._lo = self.zero - (_LIMIT - 1) * ones
        self._hi = self.zero + (_LIMIT - 1) * ones
        self._high = (3 << (_SLOT - 2)) * ones | -(1 << (_SLOT * nv))
        # the sign bits of the ordinary slots: all set when no exponent there
        # is negative
        self._ordinary = _BIAS * sum(u for u, lau in zip(units, self.laurent) if not lau)
        den_names = []
        den_terms = []
        den_q = []
        primitive = {}  # primitive numerators, leading term positive -> name
        for dname, terms in (denominators or {}).items():
            canon = {}
            for exps, c in terms.items():
                if not _rational(c):
                    continue
                if any(e < 0 for e in exps):
                    raise PolyError(f"denominator {dname} uses negative exponents")
                if any(e and self.laurent[i] for i, e in enumerate(exps)):
                    raise PolyError(f"denominator {dname} involves a laurent variable")
                canon[pack(exps)] = c
            if not canon or list(canon) == [self.zero]:
                raise PolyError(f"denominator {dname} is a constant")
            canon, q = _split(canon)
            # 1/D1 and c/D2 for D2 = c D1 are one value in two canonical forms
            g = gcd(*canon.values()) * (1 if canon[max(canon)] > 0 else -1)
            prim = tuple(sorted((k, c // g) for k, c in canon.items()))
            other = primitive.setdefault(prim, dname)
            if other != dname:
                raise PolyError(
                    f"denominators {other} and {dname} are rational multiples of each other"
                )
            den_names.append(dname)
            den_terms.append(tuple(sorted(canon.items())))
            den_q.append(q)
        self.den_names = tuple(den_names)
        self.den_terms = tuple(den_terms)
        self.den_q = tuple(den_q)
        self._powers = {}  # multiplicities -> (int numerators, q), `_den_power`

    def index(self, name) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise PolyError(f"unknown variable {name!r} (registry: {self.names})") from None

    def nvars(self) -> int:
        return len(self.names)

    def denominator_poly(self, k) -> "LaurentPoly":
        terms, q = _den_power(self, _unit(len(self.den_names), k))
        return LaurentPoly(self, terms, q=q)

    def key(self):
        return (self.names, self.laurent, self.den_names, self.den_terms, self.den_q)

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
    """terms / (q * prod(denominator_k ** den[k])) over a fixed registry."""

    __slots__ = ("table", "terms", "den", "q")

    def __init__(self, table, terms=None, den=None, q=1):
        """`terms` maps keys to int or Fraction values, split here once into
        int numerators over the positive int q."""
        self.table = table
        nd = len(table.den_names)
        self.den = tuple(den) if den else (0,) * nd
        if len(self.den) != nd or any(m < 0 for m in self.den):
            raise PolyError(f"bad denominator multiplicities {self.den}")
        if type(q) is not int or q < 1:
            raise PolyError(f"the common denominator must be a positive int, not {q!r}")
        self.terms, self.q = _split(terms or {}, q)
        _guard(table, self.terms, ordinary=True)
        if any(self.den):
            # the canonical form: each D_k divided out while it divides
            self.terms, self.q, took = _divide_out(table, self.terms, self.q, self.den)
            self.den = tuple(m - t for m, t in zip(self.den, took))

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(table):
        return LaurentPoly(table, {})

    @staticmethod
    def const(table, c):
        return LaurentPoly(table, {table.zero: c})

    @staticmethod
    def var(table, name, power=1):
        exps = [0] * table.nvars()
        exps[table.index(name)] = power
        return LaurentPoly(table, {pack(exps): 1})

    # -- declared denominators ----------------------------------------------

    def numerator_over(self, den):
        """(int numerators, q) of self written over prod_k D_k ** den[k], den
        at least self.den in every slot.  With den == self.den they are
        self's own terms; never mutate them."""
        if den == self.den:
            return self.terms, self.q
        terms, q = _den_power(self.table, tuple(d - m for d, m in zip(den, self.den)))
        return _mul_terms(self.table, self.terms, terms), self.q * q

    # -- predicates and coefficients ---------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or not any(self.den) and list(self.terms) == [self.table.zero]

    def constant_value(self):
        if not self.is_constant():
            raise PolyError(f"not a constant: {self}")
        return self.rational_terms().get(self.table.zero, Fraction(0))

    def rational_terms(self):
        """{key: exact rational coefficient of the numerator}: the int
        numerators themselves when q is 1, Fractions otherwise."""
        q = self.q
        if q == 1:
            return dict(self.terms)
        return {k: Fraction(c, q) for k, c in self.terms.items()}

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        """The exact rational other as a polynomial over self's table, or
        NotImplemented."""
        if isinstance(other, (int, Fraction)):
            return LaurentPoly.const(self.table, other)
        return NotImplemented

    def __add__(self, other):
        if type(other) is not LaurentPoly:  # the exact type first: it is cheap
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        _check_same_table(self, other)
        if self.den == other.den:
            ta, qa, tb, qb, den = self.terms, self.q, other.terms, other.q, self.den
        else:
            den = tuple(map(max, self.den, other.den))
            (ta, qa), (tb, qb) = self.numerator_over(den), other.numerator_over(den)
        if qa == qb:
            q, fb = qa, 1
            out = dict(ta)
        else:
            q = lcm(qa, qb)
            fa, fb = q // qa, q // qb
            out = {key: c * fa for key, c in ta.items()} if fa != 1 else dict(ta)
        for key, c in tb.items():
            if fb != 1:
                c *= fb
            s = out.get(key)
            s = c if s is None else s + c
            if not s:
                out.pop(key, None)
            else:
                out[key] = s
        if not any(den):
            # the loop dropped every cancelled term: out is canonical up to q
            return _canonical(self.table, out, q, den)
        return LaurentPoly(self.table, out, den, q)

    __radd__ = __add__

    def __neg__(self):
        return _canonical(self.table, {e: -c for e, c in self.terms.items()}, self.q, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def _scale(self, c):
        """self times the exact rational c, or NotImplemented for any other
        c.  A nonzero scalar keeps the numerator's divisibility."""
        if not isinstance(c, (int, Fraction)):
            return NotImplemented
        if not c:
            return LaurentPoly.zero(self.table)
        n = c.numerator
        terms = {e: v * n for e, v in self.terms.items()}
        return _canonical(self.table, terms, self.q * c.denominator, self.den)

    def __mul__(self, other):
        if type(other) is not LaurentPoly:  # the exact type first, as in __add__
            return self._scale(other)
        _check_same_table(self, other)
        terms = _mul_terms(self.table, self.terms, other.terms)
        q = self.q * other.q
        if not any(self.den) and not any(other.den):
            # the product of two canonical numerators is canonical up to q:
            # no zero terms, and negative exponents only on laurent variables
            return _canonical(self.table, terms, q, self.den)
        den = tuple(a + b for a, b in zip(self.den, other.den))
        return LaurentPoly(self.table, terms, den, q)

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
        a product of declared denominators; None otherwise.  Each D_k is
        divided out as often as it divides, in turn: in a UFD that leaves a
        monomial exactly when self is a unit."""
        table = self.table
        if not self.terms:
            return None
        # self = (c x^key / q) prod D**mult / prod D**self.den
        num, q, mult = _divide_out(table, self.terms, self.q, (None,) * len(self.den))
        if len(num) != 1:
            return None
        (key, c), = num.items()
        inv_key = 2 * table.zero - key
        if inv_key & table._ordinary != table._ordinary:
            return None  # a positive exponent on an ordinary variable
        terms, dq = _den_power(table, self.den)
        if c < 0:
            q, c = -q, -c
        # 1/self = q x^-key prod D**self.den / (c prod D**mult)
        shift = inv_key - table.zero
        return LaurentPoly(table, {e + shift: v * q for e, v in terms.items()}, mult, c * dq)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("polynomial division by zero")
            return self._scale(Fraction(1, other))
        _check_same_table(self, other)
        inv = other.inverse_if_unit()
        if inv is not None:
            return self * inv
        if any(other.den):
            raise PolyError("cannot divide by a tagged fraction that is not a unit")
        got = _exact_divide(self.table, self.terms, other.terms)
        if got is None:
            raise PolyError(f"inexact division by {other}")
        # (N / q) / (M / other.q) = quot other.q / (s q)
        quot, s = got
        quot = {e: c * other.q for e, c in quot.items()}
        return LaurentPoly(self.table, quot, self.den, self.q * s)

    # -- calculus -----------------------------------------------------------

    def variables(self):
        """The indices, ascending, of the variables that self's numerator or
        declared denominators involve: d/dx_i of self is zero for any other i.
        One pass over the keys, so a caller differentiates only along these."""
        table = self.table
        zero = table.zero
        mask = 0
        for k in self.terms:
            mask |= k ^ zero  # slot i is nonzero exactly when e_i is
        for k, m in enumerate(self.den):
            if m:
                for key, _ in table.den_terms[k]:
                    mask |= key ^ zero
        nv = len(table.names)
        return [i for i in range(nv) if mask >> (_SLOT * (nv - 1 - i)) & _MASK]

    def derivative(self, name):
        i = self.table.index(name)
        dnum = _diff_terms(self.table, self.terms, i)
        if not any(self.den):
            # d/dx_i keeps exponent vectors apart and coefficients nonzero,
            # and never takes an ordinary variable's exponent below zero
            return _canonical(self.table, dnum, self.q, self.den)
        # quotient rule: with P the product of the D_k of multiplicity m_k > 0,
        # (N / prod D_k^m_k)' = (N' P - N sum_k m_k D_k' P / D_k) / prod D_k^(m_k + 1)
        table = self.table
        ones = tuple(int(m > 0) for m in self.den)
        p, q = _den_power(table, ones)
        out = _mul_terms(table, dnum, p)
        for k, m in enumerate(self.den):
            if not m:
                continue
            unit = _unit(len(ones), k)
            piece = _diff_terms(table, _den_power(table, unit)[0], i)
            if not piece:
                continue
            rest = tuple(a - b for a, b in zip(ones, unit))
            if any(rest):
                piece = _mul_terms(table, piece, _den_power(table, rest)[0])
            for e, c in _mul_terms(table, self.terms, piece).items():
                accumulate(out, e, -m * c)
        den = tuple(m + 1 if m else 0 for m in self.den)
        return LaurentPoly(table, out, den, self.q * q)

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, point):
        """The Fraction value at {name: int/Fraction}; denominators must not
        vanish."""
        vals = [Fraction(point[n]) for n in self.table.names]
        acc = Fraction(0)
        for key, c in self.terms.items():
            for v, e in zip(vals, unpack(key, len(vals))):
                if e:
                    c *= v**e
            acc += c
        acc /= self.q
        for k, m in enumerate(self.den):
            if not m:
                continue
            dval = self.table.denominator_poly(k).evaluate(point)
            if not dval:
                raise ZeroDivisionError(
                    f"denominator {self.table.den_names[k]} vanishes at {point}"
                )
            acc /= dval**m
        return acc

    def monomials(self):
        """[(exponent vector, exact rational coefficient)], the vectors
        descending."""
        nv = self.table.nvars()
        coeffs = self.rational_terms()
        return [(unpack(k, nv), coeffs[k]) for k in sorted(coeffs, reverse=True)]

    # -- comparison -----------------------------------------------------------

    def __eq__(self, other):
        if type(other) is not LaurentPoly:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if self.table != other.table:
            return False
        return self.den == other.den and self.q == other.q and self.terms == other.terms

    def __hash__(self):
        return hash((self.den, self.q, tuple(sorted(self.terms.items()))))

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


class ProductSum:
    """Sums of products of polynomials, one sum per output key.

    `add(key, factors, scale)` adds scale * prod(factors) to the sum at
    `key`; `result()` returns {key: LaurentPoly} without zero entries.  The
    products are summed as int numerators bucketed by (den, q), so neither a
    partial product nor a running sum becomes a LaurentPoly: each output
    component is built once.  A lone factor added with scale 1 is kept
    as it is, and copied only when a second product joins its key.  The
    polynomials that `result` returns may share the accumulator's dicts:
    call it once, after the last `add`."""

    __slots__ = ("table", "_sums")

    def __init__(self):
        self.table = None
        self._sums = {}  # key -> a lone LaurentPoly, or {(den, q): int numerators}

    def add(self, key, factors, scale=1):
        """Add scale * prod(factors) at `key`, scale an exact rational."""
        table = self.table
        for f in factors:
            if not f.terms:
                return
            if f.table is not table:
                if table is not None and f.table != table:
                    raise PolyError(f"variable registry mismatch: {table!r} vs {f.table!r}")
                table = self.table = f.table
        if not scale:
            return
        sums = self._sums
        entry = sums.get(key)
        last = factors[-1]
        if entry is None:
            if len(factors) == 1 and scale == 1:
                sums[key] = last
                return
            entry = sums[key] = {}
        elif type(entry) is LaurentPoly:
            entry = sums[key] = {(entry.den, entry.q): dict(entry.terms)}
        # the product of scale and every factor but the last, then the last
        # one multiplied straight into its bucket
        n, q, den = scale.numerator, scale.denominator * last.q, last.den
        if len(factors) == 1:
            terms = {table.zero: n}
        else:
            terms = factors[0].terms
            for f in factors[1:-1]:
                terms = _mul_terms(table, terms, f.terms)
            for f in factors[:-1]:
                q *= f.q
                if f.den:
                    den = tuple(a + b for a, b in zip(den, f.den))
            if n != 1:
                terms = {k: c * n for k, c in terms.items()}
        bucket = entry.get((den, q))
        if bucket is None:
            bucket = entry[den, q] = {}
        _mul_add(table, bucket, terms, last.terms)

    def result(self):
        table = self.table
        out = {}
        for key, entry in self._sums.items():
            if type(entry) is LaurentPoly:
                out[key] = entry
                continue
            by_den = {}
            for (den, q), terms in entry.items():
                if terms:
                    by_den.setdefault(den, []).append((q, terms))
            total = None
            for den, parts in by_den.items():
                if len(parts) == 1:
                    ((q, terms),) = parts
                else:
                    q = lcm(*(q for q, _ in parts))
                    terms = {}
                    for qi, t in parts:
                        _mul_add(table, terms, {table.zero: q // qi}, t)
                    if not terms:
                        continue
                if any(den):
                    p = LaurentPoly(table, terms, den, q)  # divides the D_k out
                else:
                    _guard(table, terms)  # `add` sums its last products unguarded
                    p = _canonical(table, terms, q, den)
                total = p if total is None else total + p
            if total:
                out[key] = total
        return out


def _canonical(table, terms, q, den):
    """The poly terms / (q D^den) in lowest terms, without the constructor's
    checks, for int numerators that are otherwise canonical: no zero,
    negative exponents only on laurent variables, and not divisible by the
    denominators of positive multiplicity."""
    if q > 1:
        terms, q = _lowest(terms, q)
    out = object.__new__(LaurentPoly)
    out.table, out.terms, out.q, out.den = table, terms, q, den
    return out


def _guard(table, keys, ordinary=False):
    """Raise unless every exponent of every key in `keys` lies in the packed
    range and, with `ordinary`, no ordinary variable's exponent is negative."""
    lo, hi, high = table._lo, table._hi, table._high
    top = table._ordinary if ordinary else 0
    for k in keys:
        if (k - lo) & high or (hi - k) & high:
            raise PolyError(f"monomial {unpack(k, table.nvars())} is outside the packed range")
        if k & top != top:
            exps = unpack(k, table.nvars())
            raise PolyError(f"negative exponent on an ordinary variable in {exps}")


@cache
def _unit(nd, k):
    """The multiplicities of D_k alone among `nd` declared denominators."""
    return tuple(int(j == k) for j in range(nd))


def _den_power(table, mults):
    """(int numerators, q) of prod_k D_k ** mults[k], the one place that
    multiplies declared denominators out.  Cached per table and shared, so
    never mutate a result, and never multiply by the empty product."""
    got = table._powers.get(mults)
    if got is None:
        terms, q = {table.zero: 1}, 1
        for k, m in enumerate(mults):
            for _ in range(m):
                terms = _mul_terms(table, terms, dict(table.den_terms[k]))
                q *= table.den_q[k]
        got = table._powers[mults] = terms, q
    return got


def _divide_out(table, terms, q, limits):
    """(quotient in lowest terms, q, counts): the one divider.  Each D_k is
    divided out of the int numerators `terms` over q, in turn, as often as
    it divides exactly, at most limits[k] times (None: unbounded), counts[k]
    times.  Zero divides without end: an unbounded limit needs terms."""
    counts = [0] * len(limits)
    for k, limit in enumerate(limits):
        dk, dq = _den_power(table, _unit(len(limits), k))
        while limit is None or counts[k] < limit:
            got = _exact_divide(table, terms, dk)
            if got is None:
                break
            # terms / q = D_k quot dq / (s q), D_k = dk / dq
            terms, s = got
            q *= s
            if dq != 1:
                terms = {e: c * dq for e, c in terms.items()}
            counts[k] += 1
    terms, q = _lowest(terms, q)
    return terms, q, counts


def _mul_terms(table, a, b):
    out = _mul_add(table, {}, a, b)
    _guard(table, out)
    return out


def _mul_add(table, out, a, b):
    """out += a * b on int numerators, never storing a zero; returns out.
    The keys of a product of in-range keys do not alias but may leave the
    range: the caller guards them."""
    if len(a) > len(b):
        a, b = b, a
    zero = table.zero
    for ea, ca in a.items():
        ea -= zero
        for eb, cb in b.items():
            e = ea + eb
            c = ca * cb
            s = out.get(e)
            s = c if s is None else s + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def _diff_terms(table, terms, i):
    shift = _SLOT * (table.nvars() - 1 - i)
    unit = 1 << shift
    out = {}
    for k, c in terms.items():
        e = ((k >> shift) & _MASK) - _BIAS
        if e:
            out[k - unit] = c * e
    if table.laurent[i]:
        _guard(table, out)  # e - 1 leaves the range only below, on a laurent variable
    return out


def _exact_divide(table, num_terms, den_terms):
    """(quot, s) with num = den * quot / s, quot int numerators and s a
    positive int, when the division is exact, else None.  s is 1 while the
    lead coefficient of den divides each leading remainder term (it is 1 for
    every catalog denominator).  den involves ordinary variables only, so
    laurent exponents ride along unchanged and the reduction terminates."""
    if not num_terms:
        return {}, 1
    zero = table.zero
    lead = max(den_terms)
    clead = den_terms[lead]
    lead -= zero
    den_shifts = [(e - zero, c) for e, c in den_terms.items()]
    ordinary = table._ordinary
    rem = dict(num_terms)
    quot = {}
    s = 1
    while rem:
        m = max(rem)
        q = m - lead
        if q & ordinary != ordinary:
            return None
        c = rem[m]
        if c % clead:
            # num s = den quot + rem holds for any common scale of s, quot, rem
            g = abs(clead) // gcd(c, clead)
            s *= g
            c *= g
            rem = {e: v * g for e, v in rem.items()}
            quot = {e: v * g for e, v in quot.items()}
        cq = c // clead
        quot[q] = cq
        step = {q + e: d for e, d in den_shifts}
        _guard(table, step)
        for tgt, d in step.items():
            v = rem.get(tgt, 0) - cq * d
            if not v:
                rem.pop(tgt, None)
            else:
                rem[tgt] = v
    return quot, s
