"""Routines on integer coefficient lists (ascending powers): PRS over Z,
and the polynomial kernel for both fields (`mod_*`) on trimmed coefficient
lists, where p is the characteristic: ints in [0, p) over F_p, and p = 0
meaning exact entries (ints or Fractions) over Q.  Both fields share one
division loop, `mod_divmod`: the F_p gcd and the F_p resultant are Euclid
on its remainders.

Over Q (p = 0) the kernel clears denominators once (`_clear`) and does its
work in Z[x]:

- The product runs on the cleared integer lists and divides by the two
  denominators once at the end.
- The gcd first tries a modular exit (Brown 1971; von zur Gathen-Gerhard,
  Modern Computer Algebra, ch. 6).  Let A, B be the cleared lists and q the
  fixed word prime EXIT_PRIME with q dividing neither lc(A) nor lc(B).  A
  common factor of positive degree over Q can be taken primitive in Z[x]
  (Gauss), and its leading coefficient divides lc(A), so it keeps its degree
  mod q and divides both images.  Hence coprime images mod q prove
  gcd(A, B) = 1 over Q; the exit is exact, not probabilistic.  Otherwise
  the gcd is the primitive PRS, which divides out the content of each
  remainder and avoids the coefficient blowup of fraction Euclid.
- The resultant is the subresultant PRS (Collins 1967; Brown-Traub 1971),
  whose divisions are exact in Z, so it returns the integer resultant
  itself.
- Interpolation (`mod_interpolate`) keeps a divided difference in Z when it
  divides exactly, which it always does for the values of an integer
  polynomial at integer nodes, and falls back to an exact Fraction
  otherwise.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

# the word prime of the modular exit in the Q gcd (`mod_gcd`)
EXIT_PRIME = 2**31 - 1


def trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def content(a: list[int]) -> int:
    g = 0
    for c in a:
        g = gcd(g, abs(c))
    return g if g else 1


def _clear(a: list) -> tuple[list[int], int]:
    """(d * a, d) for the least d > 0 that makes every entry an integer;
    d is built by a pairwise lcm, which measured leaner in peak memory than
    one `lcm(*dens)` call."""
    den = 1
    for c in a:
        den = lcm(den, c.denominator)
    return [c.numerator * (den // c.denominator) for c in a], den


def primitive(a: list[int]) -> list[int]:
    c = content(a)
    return [q // c for q in a]


def pseudo_rem(f: list[int], g: list[int]) -> list[int]:
    """Strict pseudo-remainder: lc(g)^(deg f - deg g + 1) * f = q*g + r.

    Requires deg f >= deg g >= 0 with g nonzero.  Scales at every step so
    the total scale factor is exactly lc(g)^(deg f - deg g + 1).
    """
    df, dg = len(f) - 1, len(g) - 1
    lead = g[-1]
    r = list(f)
    for k in range(df - dg, -1, -1):
        c = r[k + dg]
        if lead != 1:
            for i in range(len(r)):
                r[i] *= lead
        for i in range(dg + 1):
            r[k + i] -= c * g[i]
    return trim(r)


def prs_gcd(f: list[int], g: list[int]) -> list[int]:
    """Primitive gcd of two integer polynomials (content discarded)."""
    f = primitive(trim(list(f)))
    g = primitive(trim(list(g)))
    if not f:
        return g
    while g:
        if len(f) < len(g):
            f, g = g, f
            continue
        r = pseudo_rem(f, g)
        f, g = g, primitive(r) if r else []
    if f and f[-1] < 0:
        f = [-c for c in f]
    return f


def prs_resultant(f: list[int], g: list[int]) -> int:
    """Resultant of nonzero trimmed integer lists by the subresultant PRS.

    Each step swaps to Res(g, f) with the sign (-1)^(deg f * deg g) and
    replaces f by prem(f, g) / (lc_prev * h^delta); the scalars lc_prev and
    h (h <- lc^delta / h^(delta - 1)) make that division, and the one at the
    end, exact in Z (Cohen, A Course in Computational Algebraic Number
    Theory, Algorithm 3.3.7, without its optional content step).
    """
    sign = 1
    if len(f) < len(g):
        if (len(f) - 1) * (len(g) - 1) % 2:
            sign = -sign
        f, g = g, f
    lead = h = 1
    while len(g) > 1:
        df, dg = len(f) - 1, len(g) - 1
        delta = df - dg
        if df * dg % 2:
            sign = -sign
        r = pseudo_rem(f, g)
        if not r:
            return 0
        scale = lead * h ** delta
        f, g = g, [c // scale for c in r]
        lead = f[-1]
        if delta:
            h = lead ** delta // h ** (delta - 1)
    df = len(f) - 1
    return sign * g[0] ** df // h ** (df - 1) if df else sign


def mod_mul(a: list, b: list, p: int) -> list:
    """Product mod p.  When p = 0 both inputs are cleared once (`_clear`),
    multiplied in Z and divided once by the two denominators, so the
    result is Fractions (never ints) and the quadratic loop does no
    Fraction arithmetic."""
    if not a or not b:
        return []
    if not p:
        (a, da), (b, db) = _clear(a), _clear(b)
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    if p:
        return [c % p for c in out]
    d = da * db
    return [Fraction(c) for c in out] if d == 1 else [Fraction(c, d) for c in out]


def mod_divmod(f: list, g: list, p: int) -> tuple[list, list]:
    """f = q*g + r with deg r < deg g (g nonzero), mod p or exactly when
    p = 0.  Mod p, q is reduced as it is recorded and r once at the end, so
    both are residues in [0, p); reducing r at every step instead cost a
    fifth more at word-size p, over the F_p gcds, divisions and resultants
    of a seed-0 benchmark pass."""
    dg = len(g) - 1
    inv = pow(g[-1], -1, p) if p else 1 / Fraction(g[-1])
    r = list(f)
    q = [0] * max(len(f) - dg, 0)
    for k in range(len(q) - 1, -1, -1):
        c = r[k + dg] * inv % p if p else r[k + dg] * inv
        q[k] = c
        if c:
            for i in range(dg):
                r[k + i] -= c * g[i]
    return q, trim([c % p for c in r[:dg]] if p else r[:dg])


def mod_resultant(a: list, b: list, p: int):
    """Res(a, b) of nonzero lists, not both constant.  Mod p by Euclid on
    remainders: Res(a, b) = lc(b)^(deg a - deg r) Res(b, r) up to the sign
    (-1)^(deg a * deg b) of each swap and each step.  When p = 0, a = A/da
    and b = B/db with A, B integral, so Res(a, b) is the Fraction
    Res(A, B) / (da^deg b * db^deg a)."""
    if not p:
        (ai, da), (bi, db) = _clear(a), _clear(b)
        return Fraction(prs_resultant(ai, bi), da ** (len(b) - 1) * db ** (len(a) - 1))
    acc = 1
    sign = 1
    while True:
        da, db = len(a) - 1, len(b) - 1
        if da < db:
            if (da * db) % 2:
                sign = -sign
            a, b = b, a
            continue
        if db == 0:
            return sign * acc * pow(b[-1], da, p) % p
        r = mod_divmod(a, b, p)[1]
        if not r:
            return 0
        acc = acc * pow(b[-1], da - (len(r) - 1), p) % p
        if (da * db) % 2:
            sign = -sign
        a, b = b, r


def mod_gcd(a: list, b: list, p: int) -> list:
    """Monic gcd, inputs not both zero.  When p = 0 the cleared integer
    lists first try the modular exit: if the word prime EXIT_PRIME divides
    neither leading coefficient and the images mod EXIT_PRIME are coprime,
    the gcd is 1 (exact, see the module docstring).  Otherwise the answer is
    the primitive PRS.  Mod p it is Euclid on the remainders of
    `mod_divmod`."""
    if not p:
        a, b = _clear(a)[0], _clear(b)[0]
        q = EXIT_PRIME
        if (a and b and a[-1] % q and b[-1] % q
                and len(mod_gcd([c % q for c in a], [c % q for c in b], q)) == 1):
            return [Fraction(1)]
        d = prs_gcd(a, b)
        return [Fraction(c, d[-1]) for c in d]
    while b:
        a, b = b, mod_divmod(a, b, p)[1]
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def mod_interpolate(xs: list, ys: list, p: int) -> list:
    """Coefficients of the interpolant of degree < len(xs) through
    (xs[i], ys[i]) at distinct nodes, by Newton's divided differences, mod
    p or exactly when p = 0.  When p = 0 a difference quotient is an int
    when it divides exactly and an exact Fraction otherwise."""
    coeffs = list(ys)
    n = len(xs)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            num, den = coeffs[i] - coeffs[i - 1], xs[i] - xs[i - j]
            if p:
                coeffs[i] = num * pow(den, -1, p) % p
            else:
                q, r = divmod(num, den)
                coeffs[i] = Fraction(num) / den if r else q
    out = []
    for i in range(n - 1, -1, -1):
        out.insert(0, coeffs[i])  # out <- out * (x - xs[i]) + coeffs[i]
        x = xs[i]
        for k in range(len(out) - 1):
            out[k] = (out[k] - x * out[k + 1]) % p if p else out[k] - x * out[k + 1]
    return trim(out)


def mod_eval(a: list, x, p: int):
    """a(x) by Horner, mod p or exactly when p = 0."""
    acc = 0
    if p:
        for c in reversed(a):
            acc = (acc * x + c) % p
    else:
        for c in reversed(a):
            acc = acc * x + c
    return acc
