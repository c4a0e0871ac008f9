"""Squarefree decomposition over Q and over prime fields, and the full
factorization over F_p built on it.

Both loops run on `_intpoly` kernel lists.  Yun's loop (Yun 1976; von zur
Gathen-Gerhard, Modern Computer Algebra, Alg. 14.21) runs whenever every
multiplicity is below the characteristic: over Q, and over F_p when p >
deg f.  It divides only b = f / gcd(f, f') and its cofactor, and both
shrink, where Musser's loop divides gcd(f, f') once more for each
multiplicity.  Over Q it runs in Z[x] on the primitive integer list of f:
its gcds are primitive, so by Gauss every division is exact in Z.  When p
<= deg f, Musser's loop peels off the factors one multiplicity at a time;
it misses multiplicities divisible by p, so the leftover factor (a perfect
p-th power, since prime fields are perfect) is handled by exponent division
and recursion, which takes Yun's loop again once the degree is below p.
Over F_p each squarefree part then splits by degree and by Cantor-
Zassenhaus (1981) equal-degree splits, on residue lists; the decomposition
oracle takes the divisors of those factorizations from here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from ._intpoly import (_clear, int_exact_div, int_gcd, mod_deriv, mod_divmod, mod_exact_div,
                       mod_forms, mod_gcd, mod_mul, mod_neg, mod_pow, mod_sub, primitive, trim)
from .errors import PreconditionError
from .poly import Poly


@dataclass(frozen=True)
class SquarefreeFactorization:
    """constant * prod(factor_i ^ multiplicity_i) reproduces the input exactly.

    Factors are monic, squarefree and pairwise coprime; parts are sorted by
    (multiplicity, degree, coefficients) for a deterministic layout.
    """

    constant: object
    parts: tuple[tuple[Poly, int], ...]


def _pth_root(f: list[int], p: int) -> list[int]:
    """Inverse Frobenius on a residue list of the form u(x^p) over F_p.

    Over the prime field a^p = a, so only the exponents contract.
    """
    if any(c for i, c in enumerate(f) if i % p):
        raise PreconditionError("polynomial is not a p-th power")
    return f[::p]


def _yun(f: list, p: int) -> list[tuple[list, int]]:
    """Yun's loop (von zur Gathen-Gerhard, Alg. 14.21) on a nonconstant f
    whose multiplicities are all below p: b = f / gcd(f, f'), c = f' /
    gcd(f, f'), then while b is not constant, d = c - b', the part of
    multiplicity i is a = gcd(b, d), and b, c <- b / a, d / a.  When d = 0,
    gcd(b, 0) = b is the last part.  Mod p, f is monic and the gcds are
    monic.  When p = 0, f is a primitive integer list with lc(f) > 0, the
    gcds are primitive with positive leading coefficients, and each division
    by one is exact in Z (Gauss), so the parts come out the same way.  A gcd
    of 1 divides nothing."""
    if p:
        gcd, div = partial(mod_gcd, p=p), partial(mod_exact_div, p=p)
    else:
        gcd, div = int_gcd, int_exact_div
    df = mod_deriv(f, p)
    u = gcd(f, df)
    b, c = (div(f, u), div(df, u)) if len(u) > 1 else (f, df)
    parts, i = [], 1
    while len(b) > 1:
        d = mod_sub(c, mod_deriv(b, p), p)
        if not d:
            parts.append((b, i))
            break
        a = gcd(b, d)
        if len(a) > 1:
            parts.append((a, i))
            b, d = div(b, a), div(d, a)
        c, i = d, i + 1
    return parts


def _musser(f: list[int], p: int) -> list[tuple[list[int], int]]:
    """Musser's loop on a monic f over F_p, with p-th roots of what it
    leaves (see the module docstring)."""
    fp = mod_deriv(f, p)
    if not fp:
        return [(g, m * p) for g, m in _decompose(_pth_root(f, p), p)]
    parts = []
    c = mod_gcd(f, fp, p)
    w = mod_divmod(f, c, p)[0]
    i = 1
    while len(w) > 1:
        y = mod_gcd(w, c, p)
        z = mod_divmod(w, y, p)[0]
        if len(z) > 1:
            parts.append((z, i))
        i += 1
        w = y
        c = mod_divmod(c, y, p)[0]
    if len(c) > 1:
        parts.extend((g, m * p) for g, m in _decompose(_pth_root(c, p), p))
    return parts


def _decompose(f: list, p: int) -> list[tuple[list, int]]:
    """(part, multiplicity) pairs of a nonconstant f: monic over F_p, a
    primitive integer list with lc(f) > 0 when p = 0.  Yun's loop when every
    multiplicity is below p (p = 0 or p > deg f), Musser's otherwise."""
    return _yun(f, p) if not p or p >= len(f) else _musser(f, p)


def squarefree_decompose(f: Poly) -> SquarefreeFactorization:
    """Over F_p the monic f is decomposed on its residue list and the parts
    are checked by multiplying them back.  Over Q f is cleared once to its
    primitive integer list pp(f) with lc > 0, Yun's loop runs in Z[x], the
    check is prod(part_i ^ m_i) = pp(f) in Z, and the monic Fraction parts
    are built at the end."""
    if f.is_zero:
        raise PreconditionError("squarefree decomposition of the zero polynomial")
    constant = f.lc
    if f.degree == 0:
        return SquarefreeFactorization(constant, ())
    p = f.field.char
    if p:
        g = list(f.monic().coeffs)
    else:
        g = primitive(_clear(f.coeffs)[0])
        if g[-1] < 0:
            g = mod_neg(g, 0)
    parts = _decompose(g, p)
    if _multiply_back(parts, p) != g:
        raise AssertionError("squarefree reconstruction failed (internal bug)")
    if not p:
        parts = [([Fraction(c, z[-1]) for c in z], m) for z, m in parts]
    # by the numbers, not their text: no str() of a huge coefficient
    parts.sort(key=lambda zm: (zm[1], len(zm[0]), zm[0]))
    return SquarefreeFactorization(constant, tuple((Poly._of(f.field, z), m) for z, m in parts))


def _multiply_back(parts, p: int) -> list:
    """prod(z^m) over the (z, m) pairs, one `mod_pow` per part."""
    back = [1]
    for z, m in parts:
        back = mod_mul(back, mod_pow(z, m, p), p)
    return back


def _powmod(a: list[int], e: int, w: list[int], p: int) -> list[int]:
    """a^e mod w over F_p for a reduced a, by `mod_pow`."""
    return mod_pow(a, e, p, lambda b: mod_divmod(b, w, p)[1])


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
                t = mod_sub(t, s, p)
        else:
            t = mod_sub(_powmod(a, (p ** d - 1) // 2, w, p), [1], p)
        z = mod_gcd(w, t, p)
        if 1 < len(z) < len(w):
            return (_equal_degree(z, d, p, rng)
                    + _equal_degree(mod_divmod(w, z, p)[0], d, p, rng))


def irreducible_factors(f: Poly, top: int) -> list[tuple[tuple[int, ...], int]]:
    """Monic irreducible factors of a nonzero f over F_p with multiplicities,
    sorted so that no order depends on the random splits, and checked by
    multiplication.  A squarefree part's factors above degree top stay
    multiplied together in one entry (no divisor of degree at most top can
    use them), which spares their splitting; top = deg f splits them all."""
    p = f.field.char
    found = []
    for part, mult in squarefree_decompose(f).parts:
        # distinct degrees: gcd(g, x^(p^d) - x) is the product of the
        # degree-d factors once those of lower degree are divided out
        g, xq, d = list(part.coeffs), [0, 1], 0
        while len(g) > 2 * d + 2 and d < top:
            d += 1
            xq = _powmod(xq, p, g, p)
            same = mod_gcd(g, mod_sub(xq, [0, 1], p), p)
            if len(same) > 1:
                found += [(tuple(z), mult) for z in _equal_degree(same, d, p)]
                g = mod_divmod(g, same, p)[0]
                xq = mod_divmod(xq, g, p)[1]
        if len(g) > 1:
            found.append((tuple(g), mult))
    found.sort(key=lambda zm: (len(zm[0]), zm[0]))
    if tuple(_multiply_back(found, p)) != f.monic().coeffs:
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
    for j, power in enumerate(mod_forms(z, [1], min(m, degree // dz), p)):
        for w in divisors(factors[1:], degree - j * dz, p, tails[1:]):
            yield mod_mul(power, w, p)
