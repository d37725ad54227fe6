"""Exact Gaussian rationals a + b*I (a, b in Q).

Every quantity in this package is exact; there is no floating point anywhere.
Polynomials and linear systems are over Q (int or `Fraction`); `GaussQ` is
used only where the values are complex: the sl(n+1, C) matrices of `slpair`
and `prolong`.  Complex values elsewhere are pairs (re, im) of rationals,
as in the Hermitian input of `metric.equivalent_metric_family`.
A `GaussQ` stores its real and imaginary parts as `fractions.Fraction`, so
values are always in lowest terms with positive denominator, and purely real
scalars have an imaginary part that is exactly zero.
"""

from __future__ import annotations

from fractions import Fraction


def _to_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot build an exact scalar from {type(x).__name__}")


class GaussQ:
    """A Gaussian rational a + b*I."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _to_fraction(re))
        object.__setattr__(self, "im", _to_fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussQ is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def of(x) -> "GaussQ":
        if isinstance(x, GaussQ):
            return x
        return GaussQ(_to_fraction(x))

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def is_real(self) -> bool:
        return not self.im

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        other = GaussQ.of(other)
        if not other.im and not self.im:
            if not other.re:
                return self
            if not self.re:
                return other
            return _real(self.re + other.re)
        if not other.re and not other.im:
            return self
        if not self.re and not self.im:
            return other
        return GaussQ(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        if not self.im:
            return _real(-self.re)
        return GaussQ(-self.re, -self.im)

    def __sub__(self, other):
        other = GaussQ.of(other)
        if not other.im and not self.im:
            if not other.re:
                return self
            return _real(self.re - other.re)
        if not other.re and not other.im:
            return self
        return GaussQ(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return GaussQ.of(other) - self

    def __mul__(self, other):
        other = GaussQ.of(other)
        if (not self.re and not self.im) or (not other.re and not other.im):
            return _ZERO_G
        if not self.im and not other.im:
            return _real(self.re * other.re)
        return GaussQ(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = GaussQ.of(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero scalar")
        if not other.im:
            return GaussQ(self.re / other.re, self.im / other.re)
        n = other.re * other.re + other.im * other.im
        return GaussQ(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __rtruediv__(self, other):
        return GaussQ.of(other) / self

    def conj(self) -> "GaussQ":
        return GaussQ(self.re, -self.im)

    # -- comparison / hashing ------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.re == other and not self.im
        if isinstance(other, GaussQ):
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    # -- printing -------------------------------------------------------

    def __str__(self):
        if not self.im:
            return str(self.re)
        parts = []
        if self.re:
            parts.append(str(self.re))
        ims = "I" if self.im == 1 else ("-I" if self.im == -1 else f"{self.im}*I")
        if parts and not ims.startswith("-"):
            return f"{parts[0]}+{ims}"
        return f"{parts[0]}{ims}" if parts else ims

    def __repr__(self):
        return f"GaussQ({self.re!r}, {self.im!r})"


_FRACTION_ZERO = Fraction(0)


def _real(re: Fraction) -> GaussQ:
    """The real GaussQ `re` (a Fraction), without converting the parts again."""
    z = object.__new__(GaussQ)
    object.__setattr__(z, "re", re)
    object.__setattr__(z, "im", _FRACTION_ZERO)
    return z


_ZERO_G = GaussQ(0)
