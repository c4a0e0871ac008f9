"""Squarefree decomposition over Q and over prime fields.

One algorithm serves both characteristics: repeated gcds with the
derivative peel off the factors one multiplicity at a time.  In
characteristic p that loop misses multiplicities divisible by p, so the
leftover factor (a perfect p-th power, since prime fields are perfect) is
handled by exponent division and recursion.  In characteristic 0 the
derivative of a nonconstant polynomial never vanishes and nothing is left
over.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PreconditionError
from .poly import Poly, poly_exact_div, poly_gcd


@dataclass(frozen=True)
class SquarefreeFactorization:
    """constant * prod(factor_i ^ multiplicity_i) reproduces the input exactly.

    Factors are monic, squarefree and pairwise coprime; parts are sorted by
    (multiplicity, degree, coefficients) for a deterministic layout.
    """

    constant: object
    parts: tuple[tuple[Poly, int], ...]

    def reconstruct(self, field) -> Poly:
        acc = Poly.constant(field, self.constant)
        for factor, mult in self.parts:
            acc = acc * factor ** mult
        return acc


def _pth_root(f: Poly, p: int) -> Poly:
    """Inverse Frobenius on a polynomial of the form u(x^p) over F_p.

    Over the prime field a^p = a, so only the exponents contract.
    """
    coeffs = []
    for i, c in enumerate(f.coeffs):
        if i % p == 0:
            coeffs.append(c)
        elif c:
            raise PreconditionError("polynomial is not a p-th power")
    return Poly(f.field, coeffs)


def _decompose(f: Poly, p: int) -> list[tuple[Poly, int]]:
    """(factor, multiplicity) pairs of a monic nonconstant f over a field of
    characteristic p (0 for Q)."""
    fp = f.derivative()
    if fp.is_zero:
        return [(g, m * p) for g, m in _decompose(_pth_root(f, p), p)]
    parts = []
    c = poly_gcd(f, fp)
    w = poly_exact_div(f, c)
    i = 1
    while w.degree > 0:
        y = poly_gcd(w, c)
        z = poly_exact_div(w, y)
        if z.degree > 0:
            parts.append((z, i))
        i += 1
        w = y
        c = poly_exact_div(c, y)
    if c.degree > 0:
        parts.extend((g, m * p) for g, m in _decompose(_pth_root(c, p), p))
    return parts


def squarefree_decompose(f: Poly) -> SquarefreeFactorization:
    if f.is_zero:
        raise PreconditionError("squarefree decomposition of the zero polynomial")
    constant = f.lc
    if f.degree == 0:
        return SquarefreeFactorization(constant, ())
    parts = _decompose(f.monic(), f.field.char)
    parts.sort(key=lambda fm: (fm[1], fm[0].degree, [repr(c) for c in fm[0].coeffs]))
    result = SquarefreeFactorization(constant, tuple(parts))
    if result.reconstruct(f.field) != f:
        raise AssertionError("squarefree reconstruction failed (internal bug)")
    return result
