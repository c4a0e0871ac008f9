"""Exact coefficient fields: the rationals and prime fields F_p.

Rational scalars are `fractions.Fraction` (already canonical: reduced,
positive denominator).  Prime-field scalars are plain ints in [0, p), the
residue lists the `_intpoly` kernel runs on.  A field descriptor carries the
characteristic, normalises a scalar (`field(x)`) and divides (`field.div`);
polynomial code never mixes polynomials over distinct fields.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import index

from .errors import PreconditionError
from .numutil import _MR_BOUND, is_prime


class Field:
    """Descriptor interface: scalar normalisation, division and a
    characteristic."""

    char: int

    def __call__(self, value):
        raise NotImplementedError

    def div(self, a, b):
        """a / b as a normalised scalar; ZeroDivisionError when b is zero."""
        raise NotImplementedError


class RationalField(Field):
    """The field Q, with Fraction scalars."""

    char = 0

    def __init__(self):
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def __call__(self, value) -> Fraction:
        return value if type(value) is Fraction else Fraction(value)

    def div(self, a, b) -> Fraction:
        return self(a) / b

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "Q"


@lru_cache(maxsize=256)
def _is_prime(p: int) -> bool:
    """`is_prime(p)`, run once per modulus (of the last 256): every F_p job
    builds a field, and the Miller-Rabin test of a word-size p takes tens of
    microseconds."""
    return is_prime(p)


class PrimeField(Field):
    """The field F_p for prime p, with int scalars in [0, p)."""

    def __init__(self, p: int):
        if p >= _MR_BOUND:  # above it is_prime proves only compositeness
            raise PreconditionError(f"field modulus must be below {_MR_BOUND}")
        if not _is_prime(p):
            raise PreconditionError(f"{p} is not prime")
        self.p = p
        self.char = p
        self.zero = 0
        self.one = 1

    def __call__(self, value) -> int:
        if isinstance(value, int):
            return value % self.p
        if isinstance(value, Fraction):
            return self.div(value.numerator, value.denominator)
        return index(value) % self.p

    def div(self, a: int, b: int) -> int:
        p = self.p
        if not b % p:
            raise ZeroDivisionError(f"division by {b}, which vanishes mod {p}")
        return a * pow(b, -1, p) % p

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
    if name.startswith("F") and name[1:].isdecimal():
        # more digits than the bound: never ask int() to convert them
        if len(name[1:].lstrip("0")) > len(str(_MR_BOUND)):
            raise PreconditionError(f"field modulus must be below {_MR_BOUND}")
        return PrimeField(int(name[1:]))
    raise PreconditionError(f"unknown field {name!r}; expected Q or F<p>")
