"""Rational functions in reduced canonical form.

Canonical means gcd(numerator, denominator) = 1 with a monic denominator,
so equality of values is coefficient equality.  The order at infinity is
deg(denominator) - deg(numerator); constants have order 0 and the zero
function has neither a degree nor an order.
"""

from __future__ import annotations

from ._intpoly import mod_forms
from .errors import FieldMismatchError, PreconditionError
from .poly import Poly, poly_exact_div, poly_gcd


class RatFun:
    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: Poly, denominator: Poly | None = None):
        if denominator is None:
            denominator = Poly.one(numerator.field)
        if numerator.field != denominator.field:
            raise FieldMismatchError(f"{numerator.field!r} vs {denominator.field!r}")
        if denominator.is_zero:
            raise PreconditionError("zero denominator")
        if numerator.is_zero:
            self.numerator = numerator
            self.denominator = Poly.one(numerator.field)
            return
        if denominator.degree > 0:
            g = poly_gcd(numerator, denominator)
            if g.degree > 0:
                numerator = poly_exact_div(numerator, g)
                denominator = poly_exact_div(denominator, g)
        lead = denominator.lc
        if lead != numerator.field.one:
            numerator = numerator.scale(numerator.field.div(numerator.field.one, lead))
            denominator = denominator.monic()
        self.numerator = numerator
        self.denominator = denominator

    @classmethod
    def constant(cls, field, c) -> "RatFun":
        return cls(Poly.constant(field, c))

    @property
    def field(self):
        return self.numerator.field

    @property
    def is_zero(self) -> bool:
        return self.numerator.is_zero

    @property
    def is_constant(self) -> bool:
        return self.numerator.degree <= 0 and self.denominator.degree <= 0

    @property
    def is_polynomial(self) -> bool:
        return self.denominator.degree == 0

    @property
    def degree(self) -> int:
        if self.is_zero:
            raise PreconditionError("degree of the zero function")
        return max(self.numerator.degree, self.denominator.degree)

    @property
    def ord_infinity(self) -> int:
        """deg f2 - deg f1 for the reduced form f1/f2."""
        if self.is_zero:
            raise PreconditionError("order at infinity of the zero function")
        return self.denominator.degree - self.numerator.degree

    def derivative(self) -> "RatFun":
        num = (self.numerator.derivative() * self.denominator
               - self.numerator * self.denominator.derivative())
        return RatFun(num, self.denominator * self.denominator)

    def __call__(self, a):
        bottom = self.denominator(a)
        if not bottom:
            raise PreconditionError(f"{a!r} is a pole")
        return self.field.div(self.numerator(a), bottom)

    # -- field arithmetic (the parser uses it only for genuine fractions) ---

    def __add__(self, other: "RatFun") -> "RatFun":
        return RatFun(self.numerator * other.denominator
                      + other.numerator * self.denominator,
                      self.denominator * other.denominator)

    def __sub__(self, other: "RatFun") -> "RatFun":
        return RatFun(self.numerator * other.denominator
                      - other.numerator * self.denominator,
                      self.denominator * other.denominator)

    def __mul__(self, other: "RatFun") -> "RatFun":
        return RatFun(self.numerator * other.numerator,
                      self.denominator * other.denominator)

    def __truediv__(self, other: "RatFun") -> "RatFun":
        if other.is_zero:
            raise ZeroDivisionError("division by the zero function")
        return RatFun(self.numerator * other.denominator,
                      self.denominator * other.numerator)

    def __neg__(self) -> "RatFun":
        return RatFun(-self.numerator, self.denominator)

    def __pow__(self, n: int) -> "RatFun":
        if n < 0:
            raise PreconditionError("negative power")
        return RatFun(self.numerator ** n, self.denominator ** n)

    def __eq__(self, other):
        if not isinstance(other, RatFun):
            return NotImplemented
        return (self.numerator == other.numerator
                and self.denominator == other.denominator)

    def __hash__(self):
        return hash((self.numerator, self.denominator))

    def __repr__(self):
        return f"RatFun({self.numerator!r}, {self.denominator!r})"


def rat_compose(g: RatFun, h: RatFun) -> RatFun:
    """Reduced g(h(x)); degrees multiply for nonconstant inputs.

    Both components of g are homogenized with h's numerator and denominator
    to the same total degree m: each reads the one list of forms h1^i h2^(m-i)
    (`_intpoly.mod_forms`), so no rational intermediates appear.
    """
    if g.field != h.field:
        raise FieldMismatchError(f"{g.field!r} vs {h.field!r}")
    if h.is_zero or h.is_constant:
        raise PreconditionError("composition with a constant right factor")
    m = max(g.numerator.degree, g.denominator.degree)
    if m <= 0:
        return RatFun(g.numerator, g.denominator)
    field = g.field
    forms = [Poly._of(field, form) for form in
             mod_forms(h.numerator.coeffs, h.denominator.coeffs, m, field.char)]
    top, bottom = (sum((forms[i].scale(c) for i, c in enumerate(part.coeffs) if c),
                       Poly.zero(field)) for part in (g.numerator, g.denominator))
    if bottom.is_zero:
        raise AssertionError("denominator collapsed for a nonconstant right factor")
    return RatFun(top, bottom)

