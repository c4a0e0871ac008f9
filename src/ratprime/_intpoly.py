"""Routines on integer coefficient lists (ascending powers): PRS over Z,
and the polynomial kernel for both fields (`mod_*`) on trimmed coefficient
lists, where p is the characteristic: ints in [0, p) over F_p, and p = 0
meaning exact entries (ints or Fractions) over Q.  Both fields share one
division loop, `mod_divmod`; the F_p gcd of short operands is Euclid on its
remainders.  Every other F_p Euclid is one driver, `_euclid`, on
Kronecker-packed ints (`_packed_euclid`), each step a few whole-int
operations and one fold of all slots: it reads the gcd of longer operands,
the resultant and the norm and inverse in F_p[x]/(c) off one remainder
sequence.  Over Z the resultant is the subresultant PRS, written with one
step, `_step`, whose normal step forms the pseudo-remainder and divides it
by its exact scale in the same pass; `_res_sequence` is a loop over `_step`.

Res_x(a - t*b, c) as a polynomial in t has one routine per field.  Over
every F_p, `mod_res_linear` reads it off the pencil's end, b or a, that is
a unit in F_p[x]/(c), or splits c: a scaled characteristic polynomial, power
sums by baby steps and giant steps, each product one int product and one
fold of packed ints, and Newton's identities, all mod p^(1 + v_p(deg c!))
(its docstring has the proof).  Over Z,
`res_linear_nodes` evaluates it at many integer nodes t0 for interpolation:
it runs the first steps once for all nodes, on remainders r0 + t*r1 whose
quotients and leading coefficients carry no t, and only the rest per node.

Over Q (p = 0) the kernel clears denominators once (`_clear`) and does its
work in Z[x]:

- The product runs on the cleared integer lists and divides by the two
  denominators once at the end.
- Exact division (`mod_exact_div`) divides the cleared dividend by the
  primitive part of the cleared divisor in Z[x] (`int_exact_div`) and
  scales the quotient once.  By Gauss a primitive divisor of an integer
  polynomial leaves an integer cofactor, so each step divides exactly by
  the divisor's leading coefficient, and a step that does not, or a
  nonzero remainder, proves that the division is inexact over Q.
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
  itself.  The same holds over Z[t], which makes the shared steps of
  `res_linear_nodes` exact in Z.
- Interpolation (`mod_interpolate`) keeps a divided difference in Z when it
  divides exactly, as it does for an integer polynomial's values at integer
  nodes, and an exact Fraction otherwise.

Powering and composition are written once, for both fields, on the
product.  `mod_pow` is the left-to-right binary method (Knuth, TAOCP vol. 2,
4.6.3), never a product by 1, with one hook that maps each product to what
the caller keeps (a remainder mod w, or a truncation); its monomial shortcut
runs only without the hook, so x^p mod w over a word-size p is never built
densely.
`mod_forms` lists the forms u^i v^(m-i) in which a rational g(u/v) of degree
m is written over v^m.  `mod_compose` is Horner's rule, which holds one
power of h at a time where the forms would hold all of them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import zip_longest
from math import gcd, isqrt, lcm
from operator import mul

# the word prime of the modular exit in the Q gcd (`mod_gcd`)
EXIT_PRIME = 2**31 - 1
# the F_p gcd packs its operands when both are longer than this (`mod_gcd`)
PACKED_GCD_ABOVE = 8


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


def int_exact_div(f: list[int], g: list[int]) -> list[int] | None:
    """f / g in Z[x] for a nonzero g, or None when g does not divide f there.
    For a primitive g that is the same as dividing in Q[x] (Gauss: a
    primitive divisor of an integer polynomial leaves an integer cofactor),
    so then every step divides exactly by lc(g)."""
    dg, lead = len(g) - 1, g[-1]
    if len(f) <= dg:
        return None if f else []
    r = list(f)
    q = [0] * (len(f) - dg)
    for k in range(len(q) - 1, -1, -1):
        c, e = divmod(r[k + dg], lead)
        if e:
            return None
        q[k] = c
        if c:
            r[k:k + dg] = [x - c * y for x, y in zip(r[k:k + dg], g)]
    return None if any(r[:dg]) else q


def mod_add(a: list, b: list, p: int) -> list:
    """a + b, trimmed, mod p when p > 0; entries past the shorter list's
    length are taken as they are, and so are those of a where b has a zero
    (a Fraction sum costs more than the test)."""
    if len(a) < len(b):
        a, b = b, a
    s = [(x + y) % p for x, y in zip(a, b)] if p else [x + y if y else x for x, y in zip(a, b)]
    if len(a) > len(b):
        s.extend(a[len(b):])
        return s
    return trim(s)


def mod_sub(a: list, b: list, p: int) -> list:
    """a - b, trimmed, mod p when p > 0 (over Q a zero of b is skipped, as in
    `mod_add`)."""
    s = [(x - y) % p for x, y in zip(a, b)] if p else [x - y if y else x for x, y in zip(a, b)]
    if len(a) > len(b):
        s.extend(a[len(b):])
    elif len(b) > len(a):
        s.extend(mod_neg(b[len(a):], p))
    else:
        trim(s)
    return s


def mod_neg(a: list, p: int) -> list:
    """-a, mod p when p > 0."""
    return [-c % p for c in a] if p else [-c for c in a]


def mod_deriv(a: list, p: int) -> list:
    """The derivative, trimmed, mod p when p > 0."""
    if p:
        return trim([i * c % p for i, c in enumerate(a[1:], 1)])
    return [i * c for i, c in enumerate(a[1:], 1)]


def pseudo_rem(f: list[int], g: list[int]) -> list[int]:
    """Strict pseudo-remainder: lc(g)^(deg f - deg g + 1) * f = q*g + r.

    Requires deg f >= deg g >= 0 with g nonzero.  Scales at every step so
    the total scale factor is exactly lc(g)^(deg f - deg g + 1).
    """
    lead = g[-1]
    r = list(f)
    for k in range(len(f) - len(g), -1, -1):
        c = r.pop()  # the leading term, which the step cancels
        if lead != 1:
            r = [x * lead for x in r]
        if c:
            r[k:] = [x - c * y for x, y in zip(r[k:], g)]
    return trim(r)


def prs_gcd(f: list[int], g: list[int]) -> list[int]:
    """Primitive gcd of two integer polynomials with a positive leading
    coefficient (content discarded)."""
    f = primitive(trim(list(f)))
    g = primitive(trim(list(g)))
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
    """Resultant of nonzero trimmed integer lists, not both constant, by the
    subresultant PRS (`_res_sequence`)."""
    return _res_sequence(f, g)


def _step(f: list, g: list, sign: int, u, h) -> tuple:
    """(r, sign, u, h) after one step of the subresultant PRS on integer
    lists f, g with deg f >= deg g >= 1, from the state (sign, u, h): r =
    prem(f, g) / (u * h^delta) with delta = deg f - deg g, then u <- lc(g)
    and h <- lc(g)^delta / h^(delta - 1); both divisions are exact in Z
    (Cohen, A Course in Computational Algebraic Number Theory, Algorithm
    3.3.7, without its optional content step).  The sign flips when deg f *
    deg g is odd.  The normal step (delta = 1) forms the pseudo-remainder
    lc^2 * f - (q1*x + q0)*g and divides it in one pass.  An empty r means a
    zero resultant, and then the state is not used.
    """
    df, dg, lc = len(f) - 1, len(g) - 1, g[-1]
    if df * dg % 2:
        sign = -sign
    delta = df - dg
    if delta == 1:  # the scalars below at delta = 1, without their powers
        fn, scale = f[-1], u * h
        q1, q0, l2 = lc * fn, lc * f[-2] - fn * g[-2], lc * lc
        r = trim([(l2 * x - q0 * y - q1 * z) // scale for x, y, z in zip(f, g, (0, *g))])
        h = lc
    else:
        scale = u * h ** delta
        r = [c // scale for c in pseudo_rem(f, g)]
        if delta:
            h = lc ** delta // h ** (delta - 1)
    return r, sign, lc, h


def _res_sequence(f: list, g: list, sign: int = 1, u=1, h=1):
    """Res(f, g) of nonzero trimmed integer lists, not both constant: `_step`
    in a loop from the state (sign, u, h) that earlier steps left (the
    defaults start it), down to a constant g, which closes with sign *
    g^deg f / h^(deg f - 1), exactly."""
    if len(f) < len(g):
        if (len(f) - 1) * (len(g) - 1) % 2:
            sign = -sign
        f, g = g, f
    while len(g) > 1:
        r, sign, u, h = _step(f, g, sign, u, h)
        if not r:
            return 0
        f, g = g, r
    df = len(f) - 1
    return sign * g[0] ** df // h ** (df - 1) if df else sign


def _at(pair: tuple, t0) -> list:
    """x0 + t0*x1 for the pair (x0, x1), trimmed."""
    x0, x1 = pair
    return trim([x + t0 * y for x, y in zip_longest(x0, x1, fillvalue=0)])


def res_linear_nodes(a: list, b: list, c: list, nodes) -> list:
    """[Res_x(a - t0*b, c) for t0 in nodes] over Z by the subresultant PRS;
    a, b, c are trimmed integer lists, c nonzero, and at each node a - t0*b
    keeps the degree max(deg a, deg b) >= 1.

    The sequence first runs once for all nodes, on pairs (x0, x1) that
    stand for x0 + t*x1, starting from f = (a, -b) and g = (c, 0), swapped
    when deg b < deg a < deg c.  A step of f by g is shared while
    - deg x1 < deg x0 in f and in g, so no leading coefficient carries t;
    - deg f >= deg g >= 1, the t-part of f lies below index deg g and that of
      g below 2 deg g - deg f: the quotient reads f only at indices >= deg g
      and g only at indices >= 2 deg g - deg f, so it carries no t;
    - the remainder r = r0 + t*r1 has r0 != 0 and deg r1 < deg r0.
    Why this is exact: at any node t0, f(t0) and g(t0) have the degrees of
    f0 and g0 and agree with them wherever the quotient reads, so the
    node's step computes the same quotient, its remainder is r0 + t0*r1,
    of degree deg r0, and the scalars (u, h, sign) are the same at every
    node.  The remainder is affine in t, so r1 = r(1) - r(0), and a shared
    step is `_step` at t = 0 and at t = 1, whose scalars hold at every node.
    The subresultant PRS of f and g over the domain Z[t] takes these same
    steps, and its divisions are exact in Z[t] (Collins 1967; Brown-Traub
    1971); the divisor u * h^delta has no t, so the remainders at t = 0 and
    t = 1 each divide exactly in Z.  The first step that breaks a condition
    is not taken: each node specialises f and g there and continues from the
    carried state (`_res_sequence`).  For D[f - t] (b = 1) t starts in the
    constant term and rises one index per step while the degrees fall by
    one, so about the first half of the steps is shared; when deg b >= deg a
    the leading coefficient carries t and nothing is shared.
    """
    f = (a, [-y for y in b])
    g = (c, [])
    sign, u, h = 1, 1, 1
    if len(b) < len(a) < len(c):
        if (len(a) - 1) * (len(c) - 1) % 2:
            sign = -sign
        f, g = g, f
    while True:
        (f0, f1), (g0, g1) = f, g
        df, dg = len(f0) - 1, len(g0) - 1
        if not (df >= dg >= 1 and len(f1) <= dg and len(g1) <= 2 * dg - df):
            break
        r0, *state = _step(f0, g0, sign, u, h)
        r1 = _at((_step(_at(f, 1), _at(g, 1), sign, u, h)[0], r0), -1)  # r(1) - r(0)
        if len(r1) >= len(r0):
            break
        sign, u, h = state
        f, g = g, (r0, r1)
    return [_res_sequence(_at(f, t0), _at(g, t0), sign, u, h) for t0 in nodes]


def _pack(a: list, k: int, order: str = "little") -> int:
    """The Kronecker substitution x -> 2^(8k) of a list of nonnegative ints
    below 2^(8k), one k-byte slot each; with order "big" the list is packed
    reversed."""
    return int.from_bytes(b"".join([x.to_bytes(k, order) for x in a]), order)


def _unpack(n: int, k: int, start: int, count: int, p: int) -> list:
    """The k-byte slots start .. start + count - 1 of a packed n, mod p."""
    raw, read = n.to_bytes((n.bit_length() + 7) // 8, "little"), int.from_bytes
    return [read(raw[i:i + k], "little") % p for i in range(start * k, (start + count) * k, k)]


def _lanes(pn: int, terms: int, slots: int) -> tuple:
    """(k, fold) for ints of at most `slots` k-byte slots below 4 terms M^2,
    M = pn, k = ceil((2 bits(M) + bits(terms) + 2)/8): fold brings every
    slot below 2M at once, each on its own (`mod_res_linear` has the proof)."""
    k = (2 * pn.bit_length() + terms.bit_length() + 9) // 8
    w = 8 * k
    mu = (1 << w) // pn
    even = int.from_bytes((b"\xff" * k + bytes(k)) * ((slots + 1) // 2), "little")

    def fold(n: int) -> int:
        e, o = n & even, (n >> w) & even
        e -= ((e * mu >> w) & even) * pn
        o -= ((o * mu >> w) & even) * pn
        return e | (o << w)

    return k, fold


def _packed_ring(c: list, pn: int, inverse: list) -> tuple:
    """(k, mulmod) for B = (Z/M)[x]/(c), M = pn, c monic of degree m and
    inverse = 1/rev(c) mod y^(m-1): the product of elements packed in k-byte
    slots in [0, 2M), packed the same way (`mod_res_linear` has the proof)."""
    m = len(c) - 1
    k, fold = _lanes(pn, m, 2 * m)
    w = 8 * k
    top, shift, low = w * m, w * max(m - 2, 0), (1 << w * m) - 1
    jpack, cneg = _pack(inverse, k, "big"), _pack([-x % pn for x in c[:m]], k)

    def mulmod(x: int, y: int) -> int:
        n = fold(x * y)
        q = fold(((n >> top) * jpack) >> shift)
        return fold((n + q * cneg) & low)

    return k, mulmod


def _packed_euclid(p: int, n: int) -> tuple:
    """(k, rem) for Euclid over F_p on polynomials of at most n coefficients
    packed (`_pack`) in k-byte slots in [0, 2p) (`_lanes`, two terms).
    rem(f, df, g, dg, s0, s1) = (r, dr, s) for f = q*g + r, deg f = df, deg
    g = dg >= 1: r masked to its dr + 1 slots (dr = -1 when r = 0), and s =
    s0 - q*s1 with slots above deg s 0 or p, formed only when s1 != 0.

    A step reads the top two slots of f with one shift and subtracts q*g for
    q = (q1*x + q0)*x^j, j = df - dg - 1, q1 = f_df/lc(g), q0 = (f_(df-1) -
    q1*g_(dg-1))/lc(g), cancelling slots df and df - 1 (q = f_df/lc(g) when
    df = dg), as one fold of f + K - q*g, K with 4p^2 in every slot.  Slots
    of f and g lie below 2p and q0, q1 < p, so a slot loses q0*g_i +
    q1*g_(i-1) < 4p^2 and borrows from no other, and stays below 4p^2 + 2p
    <= 2^w; the fold brings it below 2p.  A slot is 0 mod p exactly when it
    holds 0 or p, so the top slot is dropped while it is 0 % p: the
    cancelled slots and any degree drop, after which deg f - deg g >= 2 in
    the next division.  s takes the same steps with s1 in place of g."""
    k, fold = _lanes(p, 2, n)
    w, slot = 8 * k, (1 << 8 * k) - 1
    kk = int.from_bytes((b"\x01" + bytes(k - 1)) * n, "little") * 4 * p * p

    def rem(f: int, df: int, g: int, dg: int, s0: int = 0, s1: int = 0) -> tuple:
        inv, g1 = pow(g >> w * dg, -1, p), g >> w * (dg - 1) & slot
        while df >= dg:
            top = f >> w * (df - 1)
            q1 = (top >> w) * inv % p
            if df > dg:
                q, j, df = q1 << w | ((top & slot) - q1 * g1) * inv % p, df - dg - 1, df - 2
            else:
                q, j, df = q1, 0, df - 1
            f = fold(f + kk - (q * g << w * j))
            if s1:
                s0 = fold(s0 + kk - (q * s1 << w * j))
            while df >= 0 and not (f >> w * df & slot) % p:
                df -= 1
            f &= (1 << w * (df + 1)) - 1
        return f, df, s0

    return k, rem


def _euclid(a: list, b: list, p: int, inverse: bool) -> tuple:
    """(r, Res(a, b), s) for residue lists a, b over F_p, a nonzero and not
    both constant, by Euclid on packed ints (`_packed_euclid`; von zur
    Gathen-Gerhard, Modern Computer Algebra, ch. 6): r is the last nonzero
    remainder, a constant exactly when Res(a, b) != 0, and s = b^-1 mod a
    when `inverse` (for deg b < deg a) and Res(a, b) != 0, else None.

    Each step takes r = f mod g (a first step with deg f < deg g gives r =
    f, a swap), and Res(f, g) = (-1)^(deg f deg g) lc(g)^(deg f - deg r)
    Res(g, r); a nonzero constant g closes with Res(f, g) = g^deg f, and g =
    0 with Res = 0.  With `inverse`, each remainder is s*b mod a for the
    cofactor s it carries, of degree deg a - deg f, masked to those slots.
    A constant b takes no step, so nothing is packed."""
    if len(b) == 1:
        return [b[0]], pow(b[0], len(a) - 1, p), [pow(b[0], -1, p)] if inverse else None
    (k, rem), df, dg = _packed_euclid(p, max(len(a), len(b))), len(a) - 1, len(b) - 1
    w = 8 * k
    f, g, s0, s1, res = _pack(a, k), _pack(b, k), 0, int(inverse), 1
    while dg > 0:
        r, dr, s = rem(f, df, g, dg, s0, s1)
        res = res * pow(g >> w * dg, df - dr, p) % p
        if df & dg & 1:
            res = -res
        f, g, df, dg, s0, s1 = g, r, dg, dr, s1, s & (1 << w * (len(a) - dg)) - 1 if s else 0
    if dg < 0:
        return _unpack(f, k, 0, df + 1, p), 0, None
    s = None
    if inverse:
        inv = pow(g, -1, p)
        s = [x * inv % p for x in _unpack(s1, k, 0, len(a) - df, p)]
    return [g % p], res * pow(g, df, p) % p, s


def mod_res_linear(a: list, b: list, c: list, p: int) -> list:
    """Res_x(a - t*b, c) over F_p as a trimmed coefficient list in t, for
    residue lists with deg c = m >= 1 and n = max(deg a, deg b) >= 1, at
    every prime p: a scaled characteristic polynomial in A = F_p[x]/(c~),
    c~ = c / lc(c), after Bostan, Flajolet, Salvy and Schost, "Fast
    computation of special resultants" (JSC 2006).

    Let a~, b~ be a, b mod c~ and let beta run over the roots of c, with
    multiplicity, in an algebraic closure.  Over F_p(t), a - t*b has
    x-degree n identically, so Poisson's formula holds there:
        R(t) = (-1)^(nm) lc(c)^n prod_beta (a~(beta) - t*b~(beta)).
    For w in A let E_w(z) = prod_beta (1 - z*w(beta)), the determinant of
    1 - z*w on A, and N(u) = prod_beta u(beta) = Res(c~, u), nonzero exactly
    when u is a unit (`_euclid` gives it and u^-1).  The pencil's two ends:
    - t = oo, when b~ is a unit (every polynomial f, where b = 1): w =
      a~/b~ and prod_beta (w(beta) - t) = (-1)^m t^m E_w(1/t), so R(t) =
      (-1)^(nm+m) lc(c)^n N(b~) t^m E_w(1/t).
    - t = 0, when a~ is a unit: w = b~/a~, so R(t) = (-1)^(nm) lc(c)^n
      N(a~) E_w(t).
    - Neither: R = 0 if a~ = 0 or b~ = 0, as R = (-1)^(nm) lc(c)^n times
      (-t)^m N(b~) or N(a~).  Otherwise a~ != 0 is no unit, so its last
      Euclid remainder g = gcd(a~, c~) has 0 < deg g < m.  The roots of c~
      are those of g and of h = c~/g, and lc(g) lc(h) = 1, so Poisson's
      formula for g and h gives R = lc(c)^n Res_x(a - t*b, g) Res_x(a -
      t*b, h), each computed here.

    E_w comes from the power sums P_k = sum_beta w(beta)^k = Tr(w^k) (the
    trace of multiplication by w on A) by Newton's identities k*E_k =
    -sum_{i=1..k} P_i E_{k-i}, which divide by k <= m.  So the traces and
    the identities run mod M = p^N, N = 1 + v_p(m!) by Legendre's formula
    (M = p when p > m), on the residue lists read as integers, as lifts: c~
    of a monic C, w of some W in B = (Z/M)[x]/(C).  B is free on 1, ...,
    x^(m-1), which reduce to the same basis of A, so det(1 - z*W) on B
    reduces mod p to E_w for any lifts; a~, b~, N(u) and u^-1 stay mod p.
    The identities hold over Z/M, and by induction E_k holds mod p^(N -
    v_p(k!)): with every E_j, j < k, known mod p^N', N' = N - v_p((k-1)!),
    the sum is k*E_k mod p^N'; times the inverse mod M of the unit k/p^v, v
    = v_p(k), it is p^v E_k mod p^N', a multiple of p^v as N' - v = N -
    v_p(k!) >= 1, and its exact quotient by p^v is E_k mod p^(N - v_p(k!)),
    so at least mod p, which is all that is read.  M > m (p^L <= m <
    p^(L+1) gives L <= v_p(m!)), so C' keeps its degree m - 1 mod M.

    The traces: Tr(x^i) = s_i is the i-th power sum of the roots of C, and
    sum_i s_i y^i = rev(C')/rev(C), the logarithmic derivative reversed;
    Tr is linear, so Tr(g*h) = sum g_i h_j s_(i+j) for g, h in B.  The P_k
    come by baby steps and giant steps (Shoup 1994): with r = ceil(sqrt m),
    P_(jr+i) = <w^i, v> with v_l = Tr(x^l G^j) = sum_h (G^j)_h s_(l+h) for
    G = w^r: m slots of G^j times the reversed traces; about 2 sqrt(m) products.

    An element of B stays one packed int between products (`_packed_ring`):
    x -> 2^w (`_pack`), w = 8 ceil((2 bits(M) + bits(m) + 2)/8), each slot
    in [0, 2M).  A product's slot sums at most m products below 4M^2, so it
    is below 4mM^2 <= 2^w.  fold brings every slot below 2M by Barrett on
    two lanes, the even and the odd slots, with mu = floor(2^w/M): a slot x
    < 2^w has x*mu < 2^(2w), so no lane slot carries into the next; a shift
    by w moves the next one's bits only to bit w and above, which the lane
    mask clears; so q = floor(x*mu/2^w) >= floor(x/M) - 1 (x/2^w < 1), q*M
    <= x and x - q*M is in [0, 2M).  For f = q*C + r, deg f <= 2m - 2, q_i
    is slot m - 2 + i of (f div x^m)*rev(1/rev(C) mod y^(m-1)) (Barrett as
    a middle product), and r = f + q*C- mod x^m, C- = -C mod M below x^m,
    so nothing borrows; these slots sum at most m - 1 products below 2M^2
    and one f_i < 2M, and each is folded.
    """
    m, n = len(c) - 1, max(len(a), len(b)) - 1
    lead, inv = c[-1], pow(c[-1], -1, p)
    mc = [x * inv % p for x in c]
    abar, bbar = mod_divmod(a, mc, p)[1], mod_divmod(b, mc, p)[1]
    end, (_, norm, uinv), num = -1, _euclid(mc, bbar, p, True), abar  # t = oo
    if not norm:
        end, (g, norm, uinv), num = 1, _euclid(mc, abar, p, True), bbar  # t = 0
        if not norm:
            if not (abar and bbar):
                return []
            parts = [mod_res_linear(a, b, h, p) for h in (g, mod_divmod(mc, g, p)[0])]
            return [x * pow(lead, n, p) % p for x in mod_mul(*parts, p)]
    pn = p ** (1 + sum(m // p ** i for i in range(1, m.bit_length())))  # M = p^N
    # 1/rev(C) to 2m - 1 terms: the traces read all, Barrett the first m - 1
    rc, series = mc[-2::-1], [1]
    for i in range(1, 2 * m - 1):
        series.append(-sum(map(mul, rc, series[::-1])) % pn)
    k, mulmod = _packed_ring(mc, pn, series[:m - 1])
    traces = _unpack(_pack(mod_deriv(mc, pn), k, "big") * _pack(series, k), k, 0, 2 * m - 1, pn)
    w = mulmod(_pack(num, k), _pack(uinv, k))
    r, baby = isqrt(m - 1) + 1, [1, w]
    while len(baby) <= r:
        baby.append(mulmod(baby[-1], w))
    giant = g = baby.pop()
    baby, trev = [_unpack(x, k, 0, m, pn) for x in baby], _pack(traces, k, "big")
    sums = []
    for j in range(m // r + 1):
        if j > 1:
            g = mulmod(g, giant)
        v = _unpack(g * trev, k, m - 1, m, pn)[::-1] if j else traces[:m]
        sums.extend(sum(map(mul, x, v)) % pn for x in baby[:m + 1 - j * r])
    e = [1]
    for i in range(1, m + 1):
        power = gcd(i, pn)  # p^(v_p(i)), as v_p(i) < N
        e.append(-sum(map(mul, sums[1:i + 1], e[::-1])) * pow(i // power, -1, pn) % pn // power)
    e = [x % p for x in e]
    scale = (-1) ** (n * m + m * (end < 0)) * pow(lead, n, p) * norm % p
    return trim([x * scale % p for x in e[::end]])


def int_mul(a: list, b: list) -> list:
    """The product of two coefficient lists, by the schoolbook convolution,
    with no reduction."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def mod_mul(a: list, b: list, p: int) -> list:
    """Product mod p.  When p = 0 both inputs are cleared once (`_clear`),
    multiplied in Z and divided once by the two denominators, so the
    result is Fractions (never ints) and the quadratic loop does no
    Fraction arithmetic."""
    if not a or not b:
        return []
    if p:
        return [c % p for c in int_mul(a, b)]
    (a, da), (b, db) = _clear(a), _clear(b)
    out, d = int_mul(a, b), da * db
    return [Fraction(c) for c in out] if d == 1 else [Fraction(c, d) for c in out]


def mod_pow(a: list, e: int, p: int, reduce=None) -> list:
    """a^e for e >= 0 by the left-to-right binary method, mod p or exactly
    when p = 0, with `reduce`, if given, applied to every product.  Without
    `reduce`, a monomial a = c*x^d gives c^e*x^(d*e) with no products, in
    entries of a's type.  When p = 0, a is otherwise cleared once (`_clear`,
    a = A/d), A^e is formed in Z and divided by d^e at the end, so the
    result is Fractions, as from `mod_mul`; this needs a `reduce` that
    commutes with scaling by a constant, which a truncation does (a
    remainder mod w is taken over F_p only)."""
    if reduce is None:
        if a and not any(a[:-1]):  # c*x^d; a[0] is a zero entry when d > 0
            return [a[0]] * ((len(a) - 1) * e) + [pow(a[-1], e, p) if p else a[-1] ** e]
        reduce = lambda b: b
    if p:
        product = partial(mod_mul, p=p)
    else:
        product, (a, d) = int_mul, _clear(a)
    out = a if e else [1]
    for bit in bin(e)[3:]:
        out = reduce(product(out, out))
        if bit == "1":
            out = reduce(product(out, a))
    if p:
        return out
    d **= e
    return [Fraction(c) for c in out] if d == 1 else [Fraction(c, d) for c in out]


def mod_forms(u: list, v: list, m: int, p: int) -> list:
    """[u^i v^(m-i) for i = 0..m], mod p or exactly when p = 0; with v = 1
    they are the powers of u."""
    upow = [[1]]
    for _ in range(m):
        upow.append(mod_mul(upow[-1], u, p))
    if len(v) == 1 and v[0] == 1:
        return upow
    vpow = mod_forms(v, [1], m, p)
    return [mod_mul(x, y, p) for x, y in zip(upow, reversed(vpow))]


def mod_compose(g: list, h: list, p: int) -> list:
    """g(h(x)) by Horner's rule, mod p or exactly when p = 0."""
    acc = []
    for c in reversed(g):
        acc = mod_add(mod_mul(acc, h, p), [c] if c else [], p)
    return acc


def mod_divmod(f: list, g: list, p: int) -> tuple[list, list]:
    """f = q*g + r with deg r < deg g (g nonzero), mod p or exactly when
    p = 0.  Mod p, q is reduced as it is recorded and r once at the end, so
    both are residues in [0, p)."""
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
    """Res(a, b) of nonzero lists, not both constant.  Mod p it is read off
    the packed Euclid (`_euclid`).  When p = 0, a = A/da and b = B/db with A,
    B integral, so Res(a, b) is the Fraction Res(A, B) / (da^deg b *
    db^deg a)."""
    if not p:
        (ai, da), (bi, db) = _clear(a), _clear(b)
        return Fraction(prs_resultant(ai, bi), da ** (len(b) - 1) * db ** (len(a) - 1))
    return _euclid(a, b, p, False)[1]


def int_gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd with a positive leading coefficient of integer lists,
    not both zero.  If the word prime EXIT_PRIME divides neither leading
    coefficient and the images mod EXIT_PRIME are coprime, the gcd is 1
    (exact, see the module docstring); otherwise it is the primitive PRS."""
    q = EXIT_PRIME
    if (a and b and a[-1] % q and b[-1] % q
            and len(mod_gcd([c % q for c in a], [c % q for c in b], q)) == 1):
        return [1]
    return prs_gcd(a, b)


def mod_gcd(a: list, b: list, p: int) -> list:
    """Monic gcd, inputs not both zero.  When p = 0 it is `int_gcd` of the
    cleared integer lists, made monic.  Mod p it is Euclid on the remainders
    of `mod_divmod`, or the last remainder of the packed Euclid (`_euclid`)
    when both operands have more than PACKED_GCD_ABOVE coefficients, the one
    size selection of the F_p Euclid: packing gains from about 6 coefficients
    at p = 2^31 - 1, but only from about 16 over F_3..F_13."""
    if not p:
        d = int_gcd(_clear(a)[0], _clear(b)[0])
        return [Fraction(c, d[-1]) for c in d]
    if min(len(a), len(b)) > PACKED_GCD_ABOVE:
        a, b = _euclid(a, b, p, False)[0], []
    while b:
        a, b = b, mod_divmod(a, b, p)[1]
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def mod_exact_div(f: list, g: list, p: int) -> list | None:
    """f / g for a nonzero g, or None when g does not divide f.  Mod p by
    `mod_divmod`.  When p = 0 the division runs in Z[x]: with f = F/df and
    g = G/dg cleared and G = cg * pg, pg primitive, f / g = (F / pg) * dg /
    (df * cg), and F / pg is `int_exact_div`, exact at every step when pg
    divides F."""
    if p:
        q, r = mod_divmod(f, g, p)
        return None if r else q
    (fi, df), (gi, dg) = _clear(f), _clear(g)
    cg = content(gi)
    q = int_exact_div(fi, [c // cg for c in gi] if cg != 1 else gi)
    if q is None:
        return None
    d = df * cg
    return [Fraction(c * dg, d) for c in q]


def mod_interpolate(xs: list, ys: list, p: int) -> list:
    """Coefficients of the interpolant of degree < len(xs) through
    (xs[i], ys[i]) at distinct nodes, by Newton's divided differences, mod
    p or exactly when p = 0.  Mod p each distinct node difference is
    inverted once (the nodes are few small integers, so there are few).
    When p = 0 a difference quotient is an int when it divides exactly and
    an exact Fraction otherwise."""
    coeffs = list(ys)
    n = len(xs)
    invs = {}
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            num, den = coeffs[i] - coeffs[i - 1], xs[i] - xs[i - j]
            if p:
                if den not in invs:
                    invs[den] = pow(den, -1, p)
                coeffs[i] = num * invs[den] % p
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
