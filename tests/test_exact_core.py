"""Exact scalar, polynomial, parser, and linear-algebra substrate."""

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cprojver.linalg import LinearSystem, SpanSolver, signature
from cprojver.parse import ParseError, format_poly, parse_field, parse_poly
from cprojver.poly import _LIMIT, LaurentPoly, PolyError, VarTable, accumulate, pack
from cprojver.prolong import CURV_TYPES, annihilator, lowest_weight_vector
from cprojver.slpair import SlPair
from cprojver.tensorcalc import complex_table


XY = VarTable(["x", "y"])
XS = VarTable(["x", "s"], laurent=("s",))
XYD = VarTable(["x", "y"], denominators={"D1": {(2, 0): 1, (0, 2): 1, (0, 0): 1}})


def P(text, table=XY):
    return parse_poly(text, table)


class TestPoly:
    def test_product_difference_of_squares(self):
        # (x + y)*(x - y) = x^2 - y^2
        assert P("(x+y)*(x-y)") == P("x^2-y^2")

    def test_laurent_cancellation(self):
        one = parse_poly("s^(-1)*s", XS)
        assert one == LaurentPoly.const(XS, 1)

    def test_negative_exponent_rejected_on_ordinary_var(self):
        with pytest.raises((PolyError, ParseError)):
            parse_poly("x^(-1)", XY)

    def test_partial_derivative(self):
        assert P("x^2*y").derivative("x") == P("2*x*y")
        assert P("x^2").derivative("y") == P("0")
        ps = parse_poly("s^(-2)", XS)
        assert ps.derivative("s") == parse_poly("-2*s^(-3)", XS)

    def test_unknown_variable(self):
        with pytest.raises((PolyError, ParseError)):
            P("x").derivative("q")

    def test_registry_mismatch_names_both(self):
        with pytest.raises(PolyError) as ei:
            P("x") + parse_poly("x", XS)
        msg = str(ei.value)
        assert "x" in msg and "s" in msg

    def test_denominator_tag_reduction(self):
        d1 = XYD.denominator_poly(0)
        q = parse_poly("x", XYD) / d1
        assert q.den == (1,)
        back = q * d1
        assert back == parse_poly("x", XYD) and back.den == (0,)

    def test_denominator_add(self):
        d1 = XYD.denominator_poly(0)
        one = parse_poly("1", XYD)
        s = one / d1 + one
        # (1 + D1)/D1 stays a reduced tagged fraction
        assert s.den == (1,)
        assert s * d1 == one + d1

    def test_derivative_with_denominator(self):
        d1 = XYD.denominator_poly(0)
        f = parse_poly("1", XYD) / d1
        df = f.derivative("x")
        # d/dx (1/D1) = -2x/D1^2
        assert df * d1 * d1 == parse_poly("-2*x", XYD)

    def test_evaluate(self):
        f = P("x^2+y/2")
        v = f.evaluate({"x": Fraction(2), "y": Fraction(3)})
        assert v == Fraction(11, 2) and type(v) is Fraction

    def test_results_past_the_packed_range_raise(self):
        top = LaurentPoly.var(XS, "s", _LIMIT - 1)
        bottom = LaurentPoly.var(XS, "s", 1 - _LIMIT)
        s, x = LaurentPoly.var(XS, "s"), LaurentPoly.var(XS, "x")
        x_top = LaurentPoly.var(XS, "x", _LIMIT - 1)
        assert top * bottom == 1 and x_top.derivative("x") * x == x_top * (_LIMIT - 1)
        past = [
            lambda: top * s,
            lambda: bottom / s,
            lambda: bottom.derivative("s"),
            lambda: x_top * x,
            lambda: x_top * x_top,
            lambda: LaurentPoly.var(XS, "x", _LIMIT),
            lambda: LaurentPoly.var(XS, "s", -_LIMIT),
            lambda: LaurentPoly.var(XS, "s", 8 * _LIMIT),  # one slot up: x^1
        ]
        for result in past:
            with pytest.raises(PolyError, match="packed range"):
                result()


coef = st.integers(min_value=-6, max_value=6)


def small_poly(draw, table):
    n = draw(st.integers(min_value=0, max_value=4))
    terms = {}
    for _ in range(n):
        e = (
            draw(st.integers(min_value=0, max_value=3)),
            draw(st.integers(min_value=0, max_value=3)),
        )
        c = draw(coef)
        if c:
            terms[e] = terms.get(e, 0) + c
    return LaurentPoly(table, {pack(e): c for e, c in terms.items() if c})


@st.composite
def poly_strategy(draw):
    return small_poly(draw, XY)


@st.composite
def laurent_poly_strategy(draw):
    """A poly over XS: x^i s^j with j in -3..3, rational coefficients."""
    terms = draw(st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(-3, 3)),
        st.fractions(-3, 3, max_denominator=4),
        max_size=5,
    ))
    return LaurentPoly(XS, {pack(e): c for e, c in terms.items() if c})


class TestPolyProperties:
    @settings(max_examples=60, deadline=None)
    @given(poly_strategy(), poly_strategy(), poly_strategy())
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a

    @settings(max_examples=60, deadline=None)
    @given(poly_strategy(), poly_strategy())
    def test_leibniz(self, a, b):
        lhs = (a * b).derivative("x")
        rhs = a * b.derivative("x") + b * a.derivative("x")
        assert lhs == rhs

    @settings(max_examples=40, deadline=None)
    @given(poly_strategy())
    def test_print_parse_roundtrip(self, a):
        assert parse_poly(format_poly(a), XY) == a

    @settings(max_examples=200, deadline=None)
    @given(laurent_poly_strategy(), laurent_poly_strategy())
    def test_product_equals_checked_constructor(self, a, b):
        # a product without denominators skips the checking constructor;
        # (a+b)(a-b) cancels its cross terms, and s carries negative powers
        def checked(p, q):
            prod = {}
            for ep, cp in p.monomials():
                for eq, cq in q.monomials():
                    e = pack((ep[0] + eq[0], ep[1] + eq[1]))
                    prod[e] = prod.get(e, 0) + cp * cq
            return LaurentPoly(XS, prod)

        for p, q in [(a, b), (a + b, a - b), (a, -a)]:
            got = p * q
            want = checked(p, q)
            assert got == want and got.den == want.den == ()
            assert got.terms == want.terms and all(got.terms.values())

    @settings(max_examples=200, deadline=None)
    @given(laurent_poly_strategy(), laurent_poly_strategy())
    def test_sum_negation_derivative_equal_checked_constructor(self, a, b):
        # without denominators, +, unary - and d/dx skip the checking
        # constructor; a + (-a) and (a+b) + (a-b) cancel terms, s carries
        # negative powers, and d/ds keeps them negative
        def checked(terms):
            return LaurentPoly(XS, terms)

        def plain_sum(p, q):
            out = p.rational_terms()
            for e, c in q.rational_terms().items():
                out[e] = out.get(e, 0) + c
            return checked(out)

        def plain_derivative(p, i):
            out = {}
            for e, c in p.monomials():
                d = list(e)
                d[i] -= 1
                out[pack(d)] = c * e[i]
            return checked(out)

        results = []
        for p, q in [(a, b), (a, -a), (a + b, a - b)]:
            results.append((p + q, plain_sum(p, q)))
        for p in (a, a + b):
            results.append((-p, checked({e: -c for e, c in p.rational_terms().items()})))
            for i, name in enumerate(XS.names):
                results.append((p.derivative(name), plain_derivative(p, i)))
        for got, want in results:
            assert got == want and got.den == want.den == ()
            assert got.terms == want.terms and all(got.terms.values())


# -- integer numerators over one q, against plain Fraction arithmetic ----------
#
# A plain polynomial is a dict {exponent tuple: Fraction} without zeros; a
# value over a declared denominator D is a pair (plain numerator, m) for
# numerator / D^m.  Coefficients draw their denominators term by term.

DENOMINATORS = (1, 2, 3, 4, 6, 9, 12)
# (table, its declared denominator as a plain polynomial): cp1xc's D1, and
# one with rational coefficients whose int lead (4 over q 6) does not divide
# every numerator that it meets
DENOMINATOR_TABLES = [
    (VarTable(["x1", "x2"], denominators={name: den}), den)
    for name, den in [
        ("D1", {(0, 0): 1, (2, 0): 1, (0, 2): 1}),
        ("E", {(2, 0): Fraction(2, 3), (0, 1): Fraction(1, 2), (0, 0): 1}),
    ]
]


def plain_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def plain_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def plain_pow(a, k, nv):
    out = {(0,) * nv: Fraction(1)}
    for _ in range(k):
        out = plain_mul(out, a)
    return out


def plain_scale(a, c):
    return {e: v * c for e, v in a.items() if v * c}


def plain_diff(a, i):
    out = {}
    for e, c in a.items():
        if e[i]:
            d = tuple(x - (j == i) for j, x in enumerate(e))
            out[d] = out.get(d, 0) + c * e[i]
    return {e: c for e, c in out.items() if c}


def plain_text(a, names):
    """Grammar text of the plain polynomial a."""
    chunks = [
        "*".join([f"({c})", *(f"{n}^({e})" for n, e in zip(names, exps))])
        for exps, c in a.items()
    ]
    return " + ".join(chunks) or "0"


def packed(a):
    return {pack(e): c for e, c in a.items()}


def assert_exact(p, num, m=0, den=None):
    """p holds int numerators over one positive int q in lowest terms, and
    its value is num / den^m."""
    assert all(type(c) is int for c in p.terms.values())
    assert type(p.q) is int and p.q >= 1
    assert gcd(p.q, *p.terms.values()) == 1
    got = dict(p.monomials())
    if den is None:
        assert p.den == () and got == num
    else:
        nv = p.table.nvars()
        (mp,) = p.den
        assert plain_mul(got, plain_pow(den, m, nv)) == plain_mul(num, plain_pow(den, mp, nv))


@st.composite
def plain_polys(draw, lows):
    """A plain polynomial of up to four terms, exponent i of each in
    lows[i]..2, with denominators drawn term by term."""
    out = {}
    for _ in range(draw(st.integers(0, 4))):
        e = tuple(draw(st.integers(lo, 2)) for lo in lows)
        c = Fraction(draw(st.integers(-9, 9)), draw(st.sampled_from(DENOMINATORS)))
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


rationals = st.builds(
    Fraction, st.integers(-9, 9).filter(bool), st.sampled_from(DENOMINATORS)
)


class TestIntegerNumerators:
    """Every result holds int numerators over one q prime to their content,
    and equals the plain Fraction computation."""

    @settings(max_examples=150, deadline=None)
    @given(plain_polys((0, -3)), plain_polys((0, -3)), rationals)
    def test_ring_operations_on_a_laurent_chart(self, a, b, c):
        pa, pb = LaurentPoly(XS, packed(a)), LaurentPoly(XS, packed(b))
        cases = [
            (pa, a),
            (pa + pb, plain_add(a, b)),
            (pa - pb, plain_add(a, plain_scale(b, -1))),
            (pa * pb, plain_mul(a, b)),
            (pa * c, plain_scale(a, c)),
            (c * pa, plain_scale(a, c)),
            (pa / c, plain_scale(a, 1 / c)),
            (pa / c.numerator, plain_scale(a, Fraction(1, c.numerator))),
            (pa.derivative("x"), plain_diff(a, 0)),
            (pa.derivative("s"), plain_diff(a, 1)),
            (parse_poly(plain_text(a, XS.names), XS), a),
        ]
        for got, want in cases:
            assert_exact(got, want)

    @settings(max_examples=100, deadline=None)
    @given(rationals, st.integers(0, 2), st.integers(-3, 3))
    def test_inverse_of_a_laurent_monomial(self, c, i, j):
        p = LaurentPoly(XS, {pack((i, j)): c})
        assert_exact(p, {(i, j): c})
        inv = p.inverse_if_unit()
        if i:
            assert inv is None  # x is an ordinary variable
        else:
            assert_exact(inv, {(0, -j): 1 / c})
            assert_exact(p ** -2, {(0, -2 * j): 1 / (c * c)})

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(DENOMINATOR_TABLES), plain_polys((0, 0)),
           plain_polys((0, 0)), st.integers(0, 2), st.integers(0, 2), rationals)
    def test_operations_over_a_declared_denominator(self, declared, a, b, ma, mb, c):
        table, den = declared
        nv = table.nvars()
        pa = LaurentPoly(table, packed(a), (ma,))
        pb = LaurentPoly(table, packed(b), (mb,))
        d = table.denominator_poly(0)
        top = max(ma, mb)
        raised_sum = plain_add(
            plain_mul(a, plain_pow(den, top - ma, nv)), plain_mul(b, plain_pow(den, top - mb, nv))
        )
        cases = [
            (pa, a, ma),
            (d, den, 0),
            (pa + pb, raised_sum, top),
            (pa - pb, plain_add(
                plain_mul(a, plain_pow(den, top - ma, nv)),
                plain_scale(plain_mul(b, plain_pow(den, top - mb, nv)), -1),
            ), top),
            (pa * pb, plain_mul(a, b), ma + mb),
            (pa * c, plain_scale(a, c), ma),
            (pa / c, plain_scale(a, 1 / c), ma),
            (pa * d, plain_mul(a, den), ma),
            (pa / d, a, ma + 1),
            (parse_poly(f"({plain_text(a, table.names)})" + f"/{table.den_names[0]}" * ma, table),
             a, ma),
        ]
        for i in range(nv):
            # (N / D^m)' = (N' D - m N D') / D^(m+1)
            want = plain_add(
                plain_mul(plain_diff(a, i), den),
                plain_scale(plain_mul(a, plain_diff(den, i)), -ma),
            )
            cases.append((pa.derivative(table.names[i]), want, ma + 1))
        for got, want, m in cases:
            assert_exact(got, want, m, den)
        # c D^ma / D^mb is a unit: its inverse is D^mb / (c D^ma)
        unit = LaurentPoly(table, packed(plain_scale(plain_pow(den, ma, nv), c)), (mb,))
        assert_exact(unit.inverse_if_unit(), plain_scale(plain_pow(den, mb, nv), 1 / c), ma, den)

    def test_inverse_divides_a_monomial_denominator_out(self):
        # a declared denominator may be a monomial in ordinary variables:
        # 3 x y is then the unit 3 D, though neither x nor y is invertible
        table = VarTable(["x", "y"], denominators={"D": {(1, 1): 1}})
        p = LaurentPoly(table, {pack((1, 1)): 3})
        inv = p.inverse_if_unit()
        assert inv.den == (1,) and p * inv == 1
        assert LaurentPoly(table, {pack((1, 0)): 3}).inverse_if_unit() is None


# Two coprime declared denominators, D1 = 1 + x^2 and D2 = x^2 + y^2, on a
# chart with a laurent variable s; the second table has rational
# coefficients, so its denominators are int numerators over a q > 1.  These
# run the quotient rule's cross terms, the alignment of a sum over both
# denominators and the inverse of a product of both.
TWO_DENOMINATORS = pytest.mark.parametrize("table", [
    VarTable(["x", "y", "s"], laurent=("s",), denominators={
        "D1": {(0, 0, 0): 1, (2, 0, 0): 1}, "D2": {(2, 0, 0): 1, (0, 2, 0): 1},
    }),
    VarTable(["x", "y", "s"], laurent=("s",), denominators={
        "D1": {(0, 0, 0): Fraction(1, 2), (2, 0, 0): Fraction(1, 2)},
        "D2": {(2, 0, 0): Fraction(2, 3), (0, 2, 0): 1},
    }),
], ids=["int", "rational"])
POINT = {"x": Fraction(1, 3), "y": 2, "s": Fraction(-3, 2)}  # neither D vanishes
multiplicities = st.tuples(st.integers(0, 2), st.integers(0, 2))


def over(table):
    """Polynomials over `table`, each over its own D1^m1 D2^m2."""
    return st.builds(
        lambda a, den: LaurentPoly(table, packed(a), den), plain_polys((0, 0, -2)), multiplicities
    )


class TestTwoDenominators:
    @pytest.mark.parametrize("denominators", [
        # |z|^2 declared twice, as Q1 and Q2: 1/Q1 == 1/Q2 would be False
        {"Q1": {(2, 0, 0): 1, (0, 2, 0): 1}, "Q2": {(0, 2, 0): 1, (2, 0, 0): 1}},
        # D2 = 2 D1: 1/D1 == 2/D2 would be False
        {"D1": {(0, 0, 0): 1, (2, 0, 0): 1}, "D2": {(0, 0, 0): 2, (2, 0, 0): 2}},
        {"D1": {(0, 0, 0): Fraction(1, 2), (2, 0, 0): Fraction(1, 2)},
         "D2": {(0, 0, 0): -3, (2, 0, 0): -3}},
    ])
    def test_proportional_denominators_refused(self, denominators):
        # one value would have two canonical forms, so == would not be value
        # equality
        with pytest.raises(PolyError, match="rational multiples"):
            VarTable(["x", "y", "s"], laurent=("s",), denominators=denominators)

    @TWO_DENOMINATORS
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_sum_product_and_product_rule(self, table, data):
        a, b = data.draw(over(table)), data.draw(over(table))
        assert (a + b).evaluate(POINT) == a.evaluate(POINT) + b.evaluate(POINT)
        assert (a * b).evaluate(POINT) == a.evaluate(POINT) * b.evaluate(POINT)
        for name in table.names:
            assert (a * b).derivative(name) == a.derivative(name) * b + a * b.derivative(name)

    @TWO_DENOMINATORS
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_each_denominator_divides_out(self, table, data):
        a = data.draw(over(table))
        for k in range(2):
            d = table.denominator_poly(k)
            assert (a * d) / d == a and (a / d) * d == a

    @TWO_DENOMINATORS
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_numerator_over_a_larger_denominator(self, table, data):
        a = data.draw(over(table))
        extra = data.draw(multiplicities)
        den = tuple(m + e for m, e in zip(a.den, extra))
        terms, q = a.numerator_over(den)
        assert LaurentPoly(table, terms, den, q) == a
        assert a.numerator_over(a.den) == (a.terms, a.q)

    @TWO_DENOMINATORS
    @settings(max_examples=40, deadline=None)
    @given(rationals, st.integers(-2, 2), multiplicities, multiplicities)
    def test_inverse_of_a_unit(self, table, c, j, up, down):
        d1, d2 = table.denominator_poly(0), table.denominator_poly(1)
        num = c * LaurentPoly.var(table, "s", j) * d1 ** up[0] * d2 ** up[1]
        unit = LaurentPoly(table, num.terms, down, num.q)
        inv = unit.inverse_if_unit()
        assert unit * inv == 1
        assert inv.evaluate(POINT) == 1 / unit.evaluate(POINT)
        assert (unit * LaurentPoly.var(table, "x")).inverse_if_unit() is None
        assert (unit * (d1 + d2)).inverse_if_unit() is None


class TestAccumulate:
    """Sparse tensor dicts never store a zero value."""

    # a non-rational scalar and a polynomial, under index ids (pytest would
    # name the complex case by its value)
    VALUES = pytest.mark.parametrize("v", [1.5 - 1j, P("x^2 - 3*y")], ids=["v0", "v1"])

    @VALUES
    def test_zero_is_noop(self, v):
        zero = v - v
        d = {}
        accumulate(d, "k", zero)
        assert d == {}
        accumulate(d, "k", v)
        accumulate(d, "k", zero)
        assert d == {"k": v}

    @VALUES
    def test_cancellation_removes_key(self, v):
        d = {"other": v}
        accumulate(d, "k", v)
        accumulate(d, "k", -v)
        assert d == {"other": v}

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 2), poly_strategy()), max_size=8))
    def test_matches_plain_sums(self, adds):
        d = {}
        want = {}
        for k, p in adds:
            accumulate(d, k, p)
            want[k] = want.get(k, LaurentPoly.zero(XY)) + p
        assert d == {k: p for k, p in want.items() if not p.is_zero()}


FUZZ_TABLE = VarTable(
    ["x", "y", "s"], laurent=("s",), denominators={"D1": {(2, 0, 0): 1, (0, 0, 0): 1}}
)
# tokens separated by spaces, so integers stay small
FUZZ_TOKENS = (
    "x", "y", "s", "D1", "D", "z", "I", "0", "1", "2", "3", "(", ")", "+", "-", "*",
    "/", "^", ",", ";", "?", "",
)


class TestParser:
    def test_imaginary_unit_parses_on_complex_table_only(self):
        ztab = complex_table(1)
        p = parse_poly("1/2+3/4*I", ztab)
        assert p == LaurentPoly.const(ztab, Fraction(1, 2)) + LaurentPoly.var(
            ztab, "I"
        ) * Fraction(3, 4)
        with pytest.raises(ParseError, match="unknown name 'I'") as err:
            parse_poly("1/2+3/4*I", XY, line=7)
        assert err.value.line == 7

    def test_whitespace_insensitive(self):
        assert P(" x +  2*y ") == P("x+2*y")

    def test_error_position(self):
        with pytest.raises(ParseError):
            P("x + ?")

    def test_division_by_declared_denominator(self):
        q = parse_poly("(x+y)/D1", XYD)
        assert q.den == (1,)
        assert parse_poly(format_poly(q), XYD) == q

    def test_operator_errors_carry_the_operator_column(self):
        ztab = complex_table(1)
        cases = [
            ("zb1^(-1)", "cannot invert zb1 (line 14, column 4)"),
            ("z1 * zb1^(-2)", "cannot invert zb1 (line 14, column 9)"),
            ("z1/zb1", "inexact division by zb1 (line 14, column 3)"),
            ("z1^9000", "outside the packed range (-8192, 8192) (line 14, column 4)"),
            ("z1^4096 * z1^4096", "outside the packed range (line 14, column 9)"),
            ("z1 *", "expected a polynomial atom (line 14)"),
        ]
        for text, where in cases:
            with pytest.raises(ParseError) as err:
                parse_poly(text, ztab, line=14)
            assert str(err.value).endswith(where), text

    def test_field_parse(self):
        f = parse_field("x*D(y) - 2*D(x)", XY)
        assert f["y"] == P("x")
        assert f["x"] == P("-2")

    def test_field_product_rejected(self):
        with pytest.raises((ParseError, PolyError)):
            parse_field("D(x)*D(y)", XY)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from(FUZZ_TOKENS), max_size=14).map(" ".join))
    def test_fuzzed_text_parses_or_raises_parse_error(self, text):
        # a Laurent variable s and a declared denominator D1; anything other
        # than a value or a ParseError escapes the parser
        for parse in (parse_poly, parse_field):
            try:
                parse(text, FUZZ_TABLE)
            except ParseError:
                pass


def _system(rows, ncols=None):
    """LinearSystem of the dense rows over the columns 0..ncols-1."""
    sys = LinearSystem()
    sys.register_columns(range(len(rows[0]) if rows else ncols))
    for r in rows:
        row = {j: c for j, c in enumerate(r) if c}
        if row:
            sys.add_row(row)
    return sys


def _dense_kernel(sys):
    n = len(sys.columns)
    return [[v.get(j, Fraction(0)) for j in range(n)] for v in sys.kernel()]


def _mul_vector(rows, vec):
    return [sum(c * x for c, x in zip(r, vec)) for r in rows]


def _bareiss_rank(rows, ncols):
    """Rank of a dense integer matrix (list of lists) by fraction-free
    Bareiss elimination: the dense reference for the sparse elimination.
    Its exact divisions are floor divisions, so it refuses non-int entries."""
    m = [list(r) for r in rows]
    for r in m:
        for v in r:
            if not isinstance(v, int):
                raise ValueError(f"Bareiss rank takes int entries only, not {v!r}")
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


def _gauss_jordan_kernel(rows, ncols):
    """The canonical kernel basis of the sparse int `rows` over the columns
    0..ncols-1, by dense Gauss-Jordan elimination over `Fraction`: the
    reference for `LinearSystem.kernel`, sharing none of its code.  Vector f
    lists its free column f first, then its nonzero pivot entries by
    descending pivot column, scaled so that its entry at its least column
    is 1."""
    m = [[Fraction(r.get(j, 0)) for j in range(ncols)] for r in rows]
    pivots = []  # (column, index of its row), ascending
    for col in range(ncols):
        top = len(pivots)
        i = next((i for i in range(top, len(m)) if m[i][col]), None)
        if i is None:
            continue
        m[top], m[i] = m[i], m[top]
        m[top] = [x / m[top][col] for x in m[top]]
        for k, row in enumerate(m):
            if k != top and row[col]:
                m[k] = [x - row[col] * y for x, y in zip(row, m[top])]
        pivots.append((col, top))
    pivot_cols = {c for c, _ in pivots}
    basis = []
    for f in range(ncols):
        if f in pivot_cols:
            continue
        vec = {f: Fraction(1)}
        for c, i in reversed(pivots):
            if m[i][f]:
                vec[c] = -m[i][f]
        lead = vec[min(vec)]
        basis.append([(k, v / lead) for k, v in vec.items()])
    return basis


@st.composite
def sparse_int_systems(draw):
    """(ncols, rows): sparse int rows, about half of them with one entry, so
    that one-entry pivot rows, as the zero-column pass of a symmetry solve
    leaves them, are common and also clear columns of the other rows."""
    ncols = draw(st.integers(1, 10))
    entry = st.integers(-4, 4).filter(bool)
    col = st.integers(0, ncols - 1)
    row = st.one_of(
        st.dictionaries(col, entry, min_size=1, max_size=1),
        st.dictionaries(col, entry, min_size=min(2, ncols), max_size=min(5, ncols)),
    )
    return ncols, draw(st.lists(row, max_size=10))


class TestKernels:
    def test_rank_one_kernel(self):
        # [[1,1],[2,2]] -> kernel dim 1, canonical basis {(1,-1)}
        m = _system([[1, 1], [2, 2]])
        assert m.rank() == 1
        k = _dense_kernel(m)
        assert len(k) == 1
        assert k[0] == [1, -1]

    def test_identity_kernel_trivial(self):
        m = _system([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert m.rank() == 3
        assert _dense_kernel(m) == []

    def test_empty_matrix_full_space(self):
        m = _system([], ncols=3)
        assert m.rank() == 0
        assert len(_dense_kernel(m)) == 3

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=4, max_size=4),
            min_size=1,
            max_size=6,
        )
    )
    def test_rank_nullity_and_verification(self, rows):
        m = _system(rows)
        k = _dense_kernel(m)
        assert m.rank() + len(k) == len(m.columns)
        for v in k:
            assert all(x == 0 for x in _mul_vector(rows, v))

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=5, max_size=5),
            min_size=1,
            max_size=7,
        )
    )
    def test_bareiss_agrees_with_sparse_gauss(self, rows):
        assert _bareiss_rank(rows, 5) == _system(rows).rank()

    def test_bareiss_refuses_fraction_entries(self):
        # floor division would give rank 2 on these rows; the rank is 3
        rows = [
            [Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)],
            [Fraction(1, 3), Fraction(1, 5), Fraction(1, 7)],
            [Fraction(1, 5), Fraction(1, 7), Fraction(1, 11)],
        ]
        with pytest.raises(ValueError, match="int entries"):
            _bareiss_rank(rows, 3)
        assert _system(rows).rank() == 3
        cleared = [[int(x * 2310) for x in r] for r in rows]
        assert _bareiss_rank(cleared, 3) == 3

    def test_fraction_rows(self):
        sys = LinearSystem()
        sys.register_columns([0, 1, 2])
        sys.add_row({0: Fraction(1, 2), 1: Fraction(1, 3)})
        sys.add_row({1: Fraction(2), 2: Fraction(-1)})
        basis = sys.kernel()
        assert len(basis) == 1

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 9).flatmap(lambda ncols: st.tuples(
            st.just(ncols),
            st.lists(
                st.dictionaries(st.integers(0, ncols - 1), st.integers(-4, 4).filter(bool),
                                max_size=4),
                max_size=8,
            ),
        ))
    )
    def test_kernel_equals_free_by_pivot_read_out(self, case):
        # the read-out as it reads on the reduced rows: every free column f
        # tested against every pivot row, in pivot insertion order; compared
        # with key order, which the one-pass read-out must keep
        ncols, rows = case
        sys = LinearSystem()
        sys.register_columns(range(ncols))
        for row in rows:
            if row:
                sys.add_row(row)
        reduced = sys._reduced_pivots()
        want = []
        for f in range(ncols):
            if f in reduced:
                continue
            vec = {f: Fraction(1)}
            for c, row in reduced.items():
                if f in row:
                    vec[c] = Fraction(-row[f], row[c])
            lead = vec[min(vec)]
            want.append([(k, v / lead) for k, v in vec.items()])
        assert [list(vec.items()) for vec in sys.kernel()] == want

    @settings(max_examples=300, deadline=None)
    @given(sparse_int_systems())
    def test_kernel_equals_dense_gauss_jordan(self, case):
        # values and key order of every vector, against a reference that
        # does not read `_reduced_pivots`, so a wrong reduction shows
        ncols, rows = case
        sys = LinearSystem()
        sys.register_columns(range(ncols))
        for row in rows:
            sys.add_row(row)
        kernel = sys.kernel()
        assert [list(vec.items()) for vec in kernel] == _gauss_jordan_kernel(rows, ncols)
        assert sys.kernel_dim() == len(kernel)

    def test_deterministic_kernel(self):
        rows = [[1, 2, 3, 4], [0, 0, 1, 1]]
        k1 = _dense_kernel(_system(rows))
        k2 = _dense_kernel(_system(rows))
        assert k1 == k2
        for v in k1:
            lead = next(x for x in v if x != 0)
            assert lead == 1


_SPAN_KEYS = "abcd"
_RATIONAL = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
_SPAN_VECTORS = st.lists(
    st.dictionaries(
        st.sampled_from(_SPAN_KEYS),
        _RATIONAL,
        max_size=len(_SPAN_KEYS),
    ),
    min_size=1,
    max_size=7,
)


def _dense_integer_rows(vectors):
    """Each vector as a dense row over _SPAN_KEYS, cleared of denominators."""
    rows = []
    for v in vectors:
        row = [Fraction(v.get(k, 0)) for k in _SPAN_KEYS]
        m = lcm(*(x.denominator for x in row))
        rows.append([int(x * m) for x in row])
    return rows


class TestSpanSolver:
    def test_membership_and_decomposition(self):
        s = SpanSolver()
        assert s.insert({"a": Fraction(1), "b": Fraction(2)})
        assert s.insert({"b": Fraction(1)})
        assert not s.insert({"a": Fraction(2), "b": Fraction(1)})
        coeffs = s.decompose({"a": Fraction(3), "b": Fraction(4)})
        assert coeffs == {0: 3, 1: -2}
        assert s.decompose({"c": Fraction(1)}) is None

    @settings(max_examples=200, deadline=None)
    @given(_SPAN_VECTORS, _SPAN_VECTORS)
    def test_agrees_with_dense_bareiss(self, vectors, probes):
        s = SpanSolver()
        inserted = []
        for v in vectors:
            before = _bareiss_rank(_dense_integer_rows(inserted), len(_SPAN_KEYS))
            after = _bareiss_rank(_dense_integer_rows(inserted + [v]), len(_SPAN_KEYS))
            assert s.contains(v) == (after == before)
            assert s.insert(v) == (after > before)
            inserted.append(v)
            assert s.dim() == after
        rank = s.dim()
        for w in inserted + probes:
            inside = _bareiss_rank(_dense_integer_rows(inserted + [w]), len(_SPAN_KEYS)) == rank
            assert s.contains(w) == inside
            coeffs = s.decompose(w)
            if not inside:
                assert coeffs is None
                continue
            rebuilt = {}
            for g, c in coeffs.items():
                for k, x in inserted[g].items():
                    accumulate(rebuilt, k, c * x)
            assert rebuilt == {k: x for k, x in w.items() if x}

    def test_decompose_returns_ints_where_integral(self):
        s = SpanSolver()
        s.insert({"a": 2, "b": 4})
        s.insert({"b": 3})
        coeffs = s.decompose({"a": 1, "b": 5})
        assert coeffs == {0: Fraction(1, 2), 1: 1}
        assert type(coeffs[0]) is Fraction
        assert type(coeffs[1]) is int

    @settings(max_examples=200, deadline=None)
    @given(_SPAN_VECTORS, st.lists(_RATIONAL, min_size=7, max_size=7))
    def test_decompose_round_trip(self, vectors, weights):
        s = SpanSolver()
        for v in vectors:
            s.insert(v)
        w = {}
        for v, c in zip(vectors, weights):
            for k, x in v.items():
                accumulate(w, k, c * x)
        coeffs = s.decompose(w)
        rebuilt = {}
        for g, c in coeffs.items():
            assert type(c) is int or c.denominator != 1
            for k, x in vectors[g].items():
                accumulate(rebuilt, k, c * x)
        assert rebuilt == w

    @pytest.mark.parametrize("method", ["insert", "contains", "decompose"])
    def test_non_real_entry_raises(self, method):
        s = SpanSolver()
        s.insert({"a": Fraction(1)})
        with pytest.raises(ValueError, match="rational"):
            getattr(s, method)({"a": Fraction(1), "b": (1, 1)})


class TestAnnihilatorBasis:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("ctype", CURV_TYPES)
    def test_primitive_integer_vectors(self, ctype, n):
        # each kernel vector, in the g_0 basis, has int coordinates of content 1
        g = SlPair(n)
        _, psi = lowest_weight_vector(ctype, n)
        for x in annihilator(psi, g).basis:
            coords = list(g.coordinates(x).values())
            assert all(type(c) is int for c in coords)
            assert gcd(*coords) == 1


class TestSignature:
    def test_definite(self):
        assert signature([[2, 0], [0, 3]]) == (2, 0, 0)

    def test_hyperbolic_plane(self):
        assert signature([[0, 1], [1, 0]]) == (1, 1, 0)

    def test_degenerate(self):
        assert signature([[1, 1], [1, 1]]) == (1, 0, 1)

    def test_split_block_with_tail(self):
        m = [
            [0, 1, 0, 0],
            [1, 0, 0, 0],
            [0, 0, -5, 0],
            [0, 0, 0, 7],
        ]
        assert signature(m) == (2, 2, 0)
