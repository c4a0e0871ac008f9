"""Dense univariate polynomials over an exact field.

Coefficients are stored ascending with no trailing zeros, so structural
equality is value equality.  They are `Fraction`s over Q and ints in [0, p)
over F_p, exactly what the `_intpoly` kernel takes.  The zero polynomial has
an empty coefficient tuple and its degree is the NEG_INF sentinel (never -1),
which keeps degree comparisons total in the order-at-infinity bookkeeping.
"""

from __future__ import annotations

from fractions import Fraction

from . import _intpoly
from .errors import FieldMismatchError, PreconditionError
from .fields import Field

NEG_INF = float("-inf")


class Poly:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs):
        p = field.char
        if p:
            cs = [c % p if type(c) is int else field(c) for c in coeffs]
        else:
            cs = [c if isinstance(c, Fraction) else field(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @classmethod
    def _of(cls, field: Field, coeffs) -> "Poly":
        """A Poly on coefficients that are already trimmed field elements
        (residues in [0, p), Fractions over Q), as the kernel returns them:
        stored as they are, with no conversion."""
        self = object.__new__(cls)
        self.field = field
        self.coeffs = tuple(coeffs)
        return self

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, field: Field) -> "Poly":
        return cls._of(field, ())

    @classmethod
    def one(cls, field: Field) -> "Poly":
        return cls._of(field, (field.one,))

    @classmethod
    def x(cls, field: Field) -> "Poly":
        return cls._of(field, (field.zero, field.one))

    @classmethod
    def constant(cls, field: Field, c) -> "Poly":
        return cls(field, (field(c),))

    # -- basic structure ---------------------------------------------------

    @property
    def degree(self):
        """Degree, or NEG_INF for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self):
        if not self.coeffs:
            raise PreconditionError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i: int):
        """Coefficient of x^i (zero beyond the stored length)."""
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self.field.zero

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field, self.coeffs))

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        _same_field(self, other)
        return Poly._of(self.field, _intpoly.mod_add(self.coeffs, other.coeffs,
                                                     self.field.char))

    def __sub__(self, other: "Poly") -> "Poly":
        _same_field(self, other)
        return Poly._of(self.field, _intpoly.mod_sub(self.coeffs, other.coeffs,
                                                     self.field.char))

    def __neg__(self) -> "Poly":
        return Poly._of(self.field, _intpoly.mod_neg(self.coeffs, self.field.char))

    def __mul__(self, other: "Poly") -> "Poly":
        _same_field(self, other)
        return Poly._of(self.field, _intpoly.mod_mul(self.coeffs, other.coeffs,
                                                     self.field.char))

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise PreconditionError("negative polynomial power")
        return Poly._of(self.field, _intpoly.mod_pow(self.coeffs, n, self.field.char))

    def scale(self, c) -> "Poly":
        c = self.field(c)
        if not c:
            return Poly.zero(self.field)
        p = self.field.char
        return Poly._of(self.field, [a * c % p for a in self.coeffs] if p
                        else [a * c if a else a for a in self.coeffs])

    # -- evaluation and calculus -------------------------------------------

    def __call__(self, a):
        a = self.field(a)
        if not self.coeffs:
            return self.field.zero
        return _intpoly.mod_eval(self.coeffs, a, self.field.char)

    def derivative(self) -> "Poly":
        return Poly._of(self.field, _intpoly.mod_deriv(self.coeffs, self.field.char))

    def monic(self) -> "Poly":
        if self.is_zero:
            raise PreconditionError("cannot normalize the zero polynomial")
        lead = self.lc
        if lead == self.field.one:
            return self
        return self.scale(self.field.div(self.field.one, lead))

    def taylor_shift(self, a) -> "Poly":
        """f(x + a), by Horner composition with (x + a)."""
        xa = Poly(self.field, (a, self.field.one))
        return poly_compose(self, xa)

    def __repr__(self):
        return f"Poly({self.field!r}, {list(self.coeffs)!r})"


def _same_field(f: Poly, g: Poly) -> None:
    if f.field != g.field:
        raise FieldMismatchError(f"{f.field!r} vs {g.field!r}")


def poly_divmod(f: Poly, g: Poly) -> tuple[Poly, Poly]:
    """Quotient and remainder with f = q*g + r and deg r < deg g (or r = 0)."""
    _same_field(f, g)
    if g.is_zero:
        raise PreconditionError("division by the zero polynomial")
    if f.degree < g.degree:
        return Poly.zero(f.field), f
    q, r = _intpoly.mod_divmod(f.coeffs, g.coeffs, f.field.char)
    return Poly._of(f.field, q), Poly._of(f.field, r)


def poly_exact_div(f: Poly, g: Poly) -> Poly:
    """f / g when g divides f, else PreconditionError (`_intpoly.mod_exact_div`:
    over Q the division runs in Z[x] on the cleared lists)."""
    _same_field(f, g)
    if g.is_zero:
        raise PreconditionError("division by the zero polynomial")
    q = _intpoly.mod_exact_div(f.coeffs, g.coeffs, f.field.char)
    if q is None:
        raise PreconditionError("inexact polynomial division")
    return Poly._of(f.field, q)


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic gcd: Euclid on residues over F_p.  Over Q, on the cleared
    integer lists: 1 when the images mod a word prime are coprime, else the
    primitive PRS in Z[x] (`_intpoly.mod_gcd`)."""
    _same_field(f, g)
    if f.is_zero and g.is_zero:
        raise PreconditionError("gcd of two zero polynomials")
    return Poly._of(f.field, _intpoly.mod_gcd(f.coeffs, g.coeffs, f.field.char))


def poly_compose(g: Poly, h: Poly) -> Poly:
    """g(h(x)) by Horner (`_intpoly.mod_compose`); deg(g o h) = deg g * deg h
    for nonconstant inputs."""
    _same_field(g, h)
    return Poly._of(g.field, _intpoly.mod_compose(g.coeffs, h.coeffs, g.field.char))
