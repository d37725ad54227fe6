"""Text grammar for exact polynomials and vector fields.

Grammar (whitespace-insensitive)::

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := atom ['^' ['-'] integer | '^' '(' ['-'] integer ')']
    atom   := integer | variable | denominator-name
            | 'D' '(' variable ')'            (vector-field basis, fields only)
            | '(' expr ')'

Coefficients are exact rationals: `3/4`, `-5`.  An exponent lies in the
range of a packed monomial key (`poly.pack`).  `/` is exact division;
dividing by a declared denominator polynomial records it in the denominator
tag.  Negative exponents are accepted only on laurent-flagged variables.  The
imaginary unit is not an atom: `I` is a name like any other, so it parses on
a table that declares it (`tensorcalc.complex_table`) and is an unknown name
on a real chart.  Printing and parsing round-trip.
"""

from __future__ import annotations

import re

from .poly import _LIMIT, LaurentPoly, PolyError, accumulate


class ParseError(ValueError):
    def __init__(self, msg, line=None, col=None):
        self.msg = msg
        self.line = line
        self.col = col
        where = ""
        if line is not None:
            where = f" (line {line})" if col is None else f" (line {line}, column {col})"
        super().__init__(f"{msg}{where}")

    def __reduce__(self):  # keeps the line across `verify --jobs` worker processes
        return type(self), (self.msg, self.line, self.col)


_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([()+\-*/^,;])|(\S))")


def tokenize(text, line=None):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos and not m.group(0).strip():
            break
        if m.group(4):
            raise ParseError(f"unexpected character {m.group(4)!r}", line, m.start(4) + 1)
        if m.group(1):
            try:
                value = int(m.group(1))
            except ValueError:  # past the interpreter's digit limit for int()
                raise ParseError(
                    f"integer literal of {len(m.group(1))} digits is too long", line, m.start(1) + 1
                ) from None
            out.append(("int", value, m.start(1) + 1))
        elif m.group(2):
            out.append(("name", m.group(2), m.start(2) + 1))
        elif m.group(3):
            out.append(("op", m.group(3), m.start(3) + 1))
        pos = m.end()
    return out


class FieldValue:
    """A vector field: map direction-variable -> coefficient polynomial."""

    __slots__ = ("table", "comps")

    def __init__(self, table, comps=None):
        self.table = table
        self.comps = {}
        for k, v in (comps or {}).items():
            if not v.is_zero():
                self.comps[k] = v

    def __add__(self, other):
        if isinstance(other, FieldValue):
            out = dict(self.comps)
            for k, v in other.comps.items():
                accumulate(out, k, v)
            return FieldValue(self.table, out)
        raise PolyError("cannot add a scalar to a vector field")

    def __neg__(self):
        return FieldValue(self.table, {k: -v for k, v in self.comps.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, FieldValue):
            raise PolyError("cannot multiply two vector fields")
        return FieldValue(self.table, {k: v * other for k, v in self.comps.items()})

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, FieldValue):
            raise PolyError("cannot divide by a vector field")
        return FieldValue(self.table, {k: v / other for k, v in self.comps.items()})


class _Parser:
    def __init__(self, tokens, table, line=None, allow_fields=False):
        self.toks = tokens
        self.i = 0
        self.table = table
        self.line = line
        self.allow_fields = allow_fields

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else (None, None, None)

    def next(self):
        t = self.peek()
        self.i += 1
        return t

    def fail(self, msg, tok=None):
        col = (tok or self.peek())[2]
        raise ParseError(msg, self.line, col)

    def parse(self):
        v = self.expr()
        if self.i != len(self.toks):
            self.fail(f"trailing input at token {self.peek()[1]!r}")
        return v

    def expr(self):
        neg = False
        kind, val, _ = self.peek()
        if kind == "op" and val in "+-":
            self.next()
            neg = val == "-"
        v = self.term()
        if neg:
            v = -v
        while True:
            op = self.peek()
            kind, val, _ = op
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.term()
                if isinstance(v, FieldValue) != isinstance(rhs, FieldValue):
                    self.fail("cannot add a scalar to a vector field", op)
                v = v - rhs if val == "-" else v + rhs
            else:
                return v

    def term(self):
        v = self.factor()
        while True:
            op = self.peek()
            kind, val, _ = op
            if kind == "op" and val in "*/":
                self.next()
                rhs = self.factor()
                if val == "/" and isinstance(rhs, LaurentPoly) and rhs.is_zero():
                    self.fail("division by zero", op)
                try:
                    v = v / rhs if val == "/" else v * rhs
                except PolyError as exc:
                    self.fail(str(exc), op)
            else:
                return v

    def factor(self):
        v = self.atom()
        op = self.peek()
        kind, val, _ = op
        if kind == "op" and val == "^":
            self.next()
            e = self.exponent()
            if isinstance(v, FieldValue):
                self.fail("cannot exponentiate a vector field", op)
            try:
                v = v**e
            except PolyError as exc:
                self.fail(str(exc), op)
        return v

    def exponent(self):
        tok = self.peek()
        kind, val = tok[0], tok[1]
        paren = kind == "op" and val == "("
        if paren:
            self.next()
            kind, val, _ = self.peek()
        sign = 1
        if kind == "op" and val == "-":
            self.next()
            sign = -1
            kind, val, _ = self.peek()
        if kind != "int":
            self.fail("expected integer exponent", tok)
        self.next()
        if paren:
            k2, v2, _ = self.next()
            if (k2, v2) != ("op", ")"):
                self.fail("expected ')' after exponent", tok)
        if not -_LIMIT < sign * val < _LIMIT:
            # refused before it is computed: a polynomial cannot hold the
            # power, and a huge power of a constant would exhaust memory
            self.fail(f"exponent outside the packed range ({-_LIMIT}, {_LIMIT})", tok)
        return sign * val

    def atom(self):
        tok = self.peek()
        kind, val = tok[0], tok[1]
        if kind == "int":
            self.next()
            return LaurentPoly.const(self.table, val)
        if kind == "op" and val == "(":
            self.next()
            v = self.expr()
            k2, v2, _ = self.peek()
            if (k2, v2) != ("op", ")"):
                self.fail("expected ')'")
            self.next()
            return v
        if kind == "name":
            self.next()
            if val == "D" and self.allow_fields:
                k2, v2, _ = self.peek()
                if (k2, v2) == ("op", "("):
                    self.next()
                    k3, name, _ = self.next()
                    if k3 != "name" or name not in self.table.names:
                        self.fail(f"unknown direction variable {name!r}", tok)
                    k4, v4, _ = self.next()
                    if (k4, v4) != ("op", ")"):
                        self.fail("expected ')' after D(...)", tok)
                    return FieldValue(
                        self.table, {name: LaurentPoly.const(self.table, 1)}
                    )
            if val in self.table.names:
                return LaurentPoly.var(self.table, val)
            if val in self.table.den_names:
                return self.table.denominator_poly(self.table.den_names.index(val))
            self.fail(f"unknown name {val!r} (registry: {self.table.names})", tok)
        self.fail("expected a polynomial atom")


def parse_poly(text, table, line=None) -> LaurentPoly:
    v = _Parser(tokenize(text, line), table, line).parse()
    if isinstance(v, FieldValue):
        raise ParseError("expected a polynomial, got a vector field", line)
    return v


def parse_field(text, table, line=None) -> dict:
    """Parse a vector field expression; returns {direction: LaurentPoly}."""
    v = _Parser(tokenize(text, line), table, line, allow_fields=True).parse()
    if isinstance(v, LaurentPoly):
        if v.is_zero():
            return {}
        raise ParseError("expected a vector field, got a polynomial", line)
    return dict(v.comps)


def format_coeff(c):
    """Render a rational coefficient as grammar text plus a separable sign."""
    s = str(c)
    if s.startswith("-"):
        return "-", s[1:]
    return "+", s


def format_poly(p: LaurentPoly) -> str:
    if p.is_zero():
        return "0"
    chunks = []
    for exps, c in p.monomials():
        sign, cs = format_coeff(c)
        factors = []
        for name, e in zip(p.table.names, exps):
            if e == 0:
                continue
            factors.append(name if e == 1 else f"{name}^{e if e > 0 else f'({e})'}")
        if not factors:
            body = cs
        elif cs == "1":
            body = "*".join(factors)
        else:
            body = "*".join([cs] + factors)
        chunks.append((sign, body))
    out = ""
    for i, (sign, body) in enumerate(chunks):
        if i == 0:
            out = body if sign == "+" else f"-{body}"
        else:
            out += f"{sign}{body}"
    for k, m in enumerate(p.den):
        for _ in range(m):
            out = f"({out})/{p.table.den_names[k]}"
    return out
