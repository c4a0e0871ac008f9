"""The ring of all functions on a prime field: F_q[x]/(x^q - x).

Every function on F_q is polynomial, so elements carry both a value table
of length q and the unique reduced representative of degree < q; the two
agree pointwise by construction.  Units under composition are exactly the
permutation polynomials, and every other nonzero element is a zero divisor
with a constructive annihilator.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import FieldMismatchError, PreconditionError
from .fields import PrimeField
from ._intpoly import mod_eval
from .poly import Poly
from .resultants import interpolate

MAX_P = 2000  # the largest p of a function ring, whose p^2-step build takes about a second


class FqClass(Enum):
    ZERO = "zero"
    UNIT = "unit"
    ZERO_DIVISOR = "zero-divisor"


@dataclass(frozen=True)
class FqFunction:
    p: int
    table: tuple[int, ...]
    reduced: Poly

    def __call__(self, a: int) -> int:
        return self.table[a % self.p]

    def __add__(self, other: "FqFunction") -> "FqFunction":
        _same_p(self, other)
        return reduce_ring(self.reduced + other.reduced)

    def __sub__(self, other: "FqFunction") -> "FqFunction":
        _same_p(self, other)
        return reduce_ring(self.reduced - other.reduced)

    @property
    def is_zero(self) -> bool:
        return not any(self.table)

    def image(self) -> list[int]:
        return sorted(set(self.table))


def _same_p(a: FqFunction, b: FqFunction) -> None:
    if a.p != b.p:
        raise FieldMismatchError(f"F_{a.p} vs F_{b.p}")


def _fold(f: Poly) -> Poly:
    """The representative of f mod x^p - x, of degree < p: exponents fold by
    x^e = x^((e - 1) mod (p - 1) + 1) for e >= 1."""
    p = f.field.p
    if f.degree < p:
        return f
    folded = list(f.coeffs[:p])
    for e in range(p, len(f.coeffs)):
        folded[(e - 1) % (p - 1) + 1] += f.coeffs[e]
    return Poly(f.field, folded)


def _check_p(p: int) -> None:
    if p > MAX_P:
        raise PreconditionError(f"F_{p} exceeds the bound p <= {MAX_P} of a function ring")


def reduce_ring(f: Poly) -> FqFunction:
    """Image of a polynomial in F_q[x]/(x^q - x): value table plus the
    reduced representative of degree < q."""
    if not isinstance(f.field, PrimeField):
        raise PreconditionError("the function ring is defined over a prime field")
    p = f.field.p
    _check_p(p)
    reduced = _fold(f)  # the same function, of degree < p: p^2 steps at most
    table = tuple(mod_eval(reduced.coeffs, a, p) for a in range(p))
    return FqFunction(p=p, table=table, reduced=reduced)


def from_table(p: int, values) -> FqFunction:
    """The function with this value table; its reduced representative is
    the unique interpolant of degree < p."""
    _check_p(p)
    field = PrimeField(p)
    values = [v % p for v in values]
    if len(values) != p:
        raise PreconditionError(f"table must have length {p}")
    return FqFunction(p=p, table=tuple(values),
                      reduced=interpolate(field, range(p), values))


def ring_compose(alpha: FqFunction, beta: FqFunction) -> FqFunction:
    """alpha o beta as functions: the composed table, interpolated."""
    _same_p(alpha, beta)
    return from_table(alpha.p, [alpha.table[b] for b in beta.table])


def is_permutation(phi: FqFunction) -> bool:
    return len(set(phi.table)) == phi.p


def classify(phi: FqFunction) -> FqClass:
    """Total trichotomy: zero, unit (permutation), or zero divisor."""
    if phi.is_zero:
        return FqClass.ZERO
    if is_permutation(phi):
        return FqClass.UNIT
    return FqClass.ZERO_DIVISOR


def zero_divisor_witness(phi: FqFunction) -> FqFunction:
    """A nonzero psi with psi o phi = 0: the monic vanishing polynomial of
    phi's image.  Its degree |image| < q keeps it nonzero as a function,
    and (psi + identity) o phi = phi is then a non-trivial self-decomposition.
    """
    if classify(phi) is not FqClass.ZERO_DIVISOR:
        raise PreconditionError("witness exists only for zero divisors")
    field = PrimeField(phi.p)
    psi = Poly.one(field)
    for c in phi.image():
        psi = psi * Poly(field, (-c, 1))
    witness = reduce_ring(psi)
    if witness.is_zero or any(witness.table[b] for b in phi.table):
        raise AssertionError("vanishing-polynomial witness failed (internal bug)")
    return witness

