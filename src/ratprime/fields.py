"""Exact coefficient fields: the rationals and prime fields F_p.

Rational elements are `fractions.Fraction` (already canonical: reduced,
positive denominator).  Prime-field elements are `Fp` residues in [0, p).
A field descriptor constructs elements from ints and carries the
characteristic; polynomial code never mixes elements of distinct fields.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import FieldMismatchError, PreconditionError
from .numutil import is_prime


class Fp:
    """Residue modulo a prime p.  Ints coerce on contact (value mod p)."""

    __slots__ = ("value", "p")

    def __init__(self, value: int, p: int):
        self.value = value % p
        self.p = p

    def _coerce(self, other):
        if isinstance(other, Fp):
            if other.p != self.p:
                raise FieldMismatchError(f"F_{self.p} vs F_{other.p}")
            return other
        if isinstance(other, int):
            return Fp(other, self.p)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else Fp(self.value + o.value, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else Fp(self.value - o.value, self.p)

    def __rsub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else Fp(o.value - self.value, self.p)

    def __mul__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else Fp(self.value * o.value, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.value == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return Fp(self.value * pow(o.value, -1, self.p), self.p)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o / self

    def __pow__(self, n: int):
        if n < 0 and self.value == 0:
            raise ZeroDivisionError(f"inverse of zero in F_{self.p}")
        return Fp(pow(self.value, n, self.p), self.p)

    def __neg__(self):
        return Fp(-self.value, self.p)

    def __bool__(self):
        return self.value != 0

    def __eq__(self, other):
        if isinstance(other, Fp):
            return self.p == other.p and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.value, self.p))

    def __repr__(self):
        return str(self.value)


class Field:
    """Descriptor interface: element construction plus a characteristic."""

    char: int
    element: type

    def __call__(self, value):
        raise NotImplementedError


class RationalField(Field):
    """The field Q, with Fraction elements."""

    char = 0
    element = Fraction

    def __init__(self):
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def __call__(self, value) -> Fraction:
        return Fraction(value)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "Q"


class PrimeField(Field):
    """The field F_p for prime p."""

    element = Fp

    def __init__(self, p: int):
        if not is_prime(p):
            raise PreconditionError(f"{p} is not prime")
        self.p = p
        self.char = p
        self.zero = Fp(0, p)
        self.one = Fp(1, p)

    def __call__(self, value) -> Fp:
        if isinstance(value, int):
            return Fp(value, self.p)
        if isinstance(value, Fp):
            if value.p != self.p:
                raise FieldMismatchError(f"F_{self.p} vs F_{value.p}")
            return value
        if isinstance(value, Fraction):
            if value.denominator % self.p == 0:
                raise ZeroDivisionError(f"denominator of {value} vanishes mod {self.p}")
            return Fp(value.numerator, self.p) / Fp(value.denominator, self.p)
        return Fp(value, self.p)

    def elements(self):
        return (Fp(v, self.p) for v in range(self.p))

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return f"F{self.p}"


QQ = RationalField()


def parse_field(name: str) -> Field:
    """Map a field flag ("Q", "F5", ...) to a descriptor."""
    if name == "Q":
        return QQ
    if name.startswith("F") and name[1:].isdigit():
        return PrimeField(int(name[1:]))
    raise PreconditionError(f"unknown field {name!r}; expected Q or F<p>")
