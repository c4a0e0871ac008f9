"""Squarefree decomposition over Q and over prime fields, and the full
factorization over F_p built on it.

One algorithm serves both characteristics: repeated gcds with the
derivative peel off the factors one multiplicity at a time.  In
characteristic p that loop misses multiplicities divisible by p, so the
leftover factor (a perfect p-th power, since prime fields are perfect) is
handled by exponent division and recursion.  In characteristic 0 the
derivative of a nonconstant polynomial never vanishes and nothing is left
over.  Over F_p each squarefree part then splits by degree and by Cantor-
Zassenhaus (1981) equal-degree splits, on `_intpoly` residue lists; the
decomposition oracle takes the divisors of those factorizations from here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import zip_longest

from ._intpoly import mod_divmod, mod_gcd, mod_mul, trim
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


def _sub(a: list[int], b: list[int], p: int) -> list[int]:
    return trim([(x - y) % p for x, y in zip_longest(a, b, fillvalue=0)])


def _powmod(a: list[int], e: int, w: list[int], p: int) -> list[int]:
    """a^e mod w over F_p, by repeated squaring."""
    out = [1]
    while e:
        if e & 1:
            out = mod_divmod(mod_mul(out, a, p), w, p)[1]
        e >>= 1
        if e:
            a = mod_divmod(mod_mul(a, a, p), w, p)[1]
    return out


def _equal_degree(w: list[int], d: int, p: int, rng: random.Random | None = None):
    """Irreducible factors of a monic squarefree w whose factors all have
    degree d: gcd(w, a^((p^d - 1) / 2) - 1) for a random a, or gcd(w, trace
    of a) when p = 2, splits w about half the time.  The random a come from
    a local generator with a fixed seed."""
    if len(w) == d + 1:
        return [w]
    rng = rng or random.Random(0)
    while True:
        a = trim([rng.randrange(p) for _ in range(len(w) - 1)])
        if p == 2:
            t = s = a
            for _ in range(d - 1):
                s = _powmod(s, 2, w, p)
                t = _sub(t, s, p)
        else:
            t = _sub(_powmod(a, (p ** d - 1) // 2, w, p), [1], p)
        z = mod_gcd(w, t, p)
        if 1 < len(z) < len(w):
            return (_equal_degree(z, d, p, rng)
                    + _equal_degree(mod_divmod(w, z, p)[0], d, p, rng))


def irreducible_factors(f: Poly, top: int | None = None) -> list[tuple[tuple[int, ...], int]]:
    """Monic irreducible factors of a nonzero f over F_p with multiplicities,
    sorted so that no order depends on the random splits, and checked by
    multiplication.  With `top`, a squarefree part's factors above degree
    top stay multiplied together in one entry (no divisor of degree at most
    top can use them), which spares their splitting."""
    p = f.field.char
    found = []
    for part, mult in squarefree_decompose(f).parts:
        # distinct degrees: gcd(g, x^(p^d) - x) is the product of the
        # degree-d factors once those of lower degree are divided out
        g, xq, d = list(part.coeffs), [0, 1], 0
        while len(g) > 2 * d + 2 and (top is None or d < top):
            d += 1
            xq = _powmod(xq, p, g, p)
            same = mod_gcd(g, _sub(xq, [0, 1], p), p)
            if len(same) > 1:
                found += [(tuple(z), mult) for z in _equal_degree(same, d, p)]
                g = mod_divmod(g, same, p)[0]
                xq = mod_divmod(xq, g, p)[1]
        if len(g) > 1:
            found.append((tuple(g), mult))
    found.sort(key=lambda zm: (len(zm[0]), zm[0]))
    back = [1]
    for z, mult in found:
        for _ in range(mult):
            back = mod_mul(back, list(z), p)
    if tuple(back) != f.monic().coeffs:
        raise AssertionError("F_p factorization does not multiply back (internal bug)")
    return found


def divisor_counts(factors: list, top: int) -> list[int]:
    """counts[d], for d <= top: how many monic divisors of degree d the
    product of z^m over `factors` has, with (z, m) pairs as
    `irreducible_factors` returns them."""
    counts = [1] + [0] * top
    for z, m in factors:
        dz = len(z) - 1
        counts = [sum(counts[d - j * dz] for j in range(min(m, d // dz) + 1))
                  for d in range(top + 1)]
    return counts


def divisors(factors: list, degree: int, p: int, tails: list | None = None):
    """The monic divisors of prod(z^m) of the given degree; `tails[i][d]`
    counts those of degree d of the factors from i on, so a branch is entered
    only when the factors after it can complete it."""
    if tails is None:
        tails = [divisor_counts(factors[i:], degree) for i in range(len(factors) + 1)]
    if not tails[0][degree]:
        return
    if not factors:
        yield [1]
        return
    (z, m), dz = factors[0], len(factors[0][0]) - 1
    power = [1]
    for j in range(min(m, degree // dz) + 1):
        for w in divisors(factors[1:], degree - j * dz, p, tails[1:]):
            yield mod_mul(power, w, p)
        power = mod_mul(power, list(z), p)
