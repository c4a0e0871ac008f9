"""Decomposition search used as ground truth.

Polynomials: base-h digit expansion decides "is h a right factor" exactly.
A right-factor degree k is tame when the characteristic does not divide
m = deg f / k, and then the one candidate solves for the top coefficients of
f (von zur Gathen 1990); a wild k (p | m) tries divisors of f - f(0).

Rational functions over F_p: right factors are taken up to degree-1 units,
as reduced echelon pairs (u monic of degree k with zero coefficient at
deg v, v monic of lower degree).  Every class holds a u/v whose u and v
divide fiber polynomials of f (Alonso-Gutierrez-Recio 1995); the F_p
factorization in `squarefree` lists those divisors, and shifted to echelon
form they give each degree a finite, complete candidate set of known size,
at any p and k.  The left factor, once
h is fixed, is the kernel of an exact linear system on int residues
(`_intpoly`); the same solver serves Q.  Over Q the search runs on
good-reduction images mod small primes, and witnesses are lifted
symmetrically and re-verified exactly, so absence over Q is never claimed to
be exhaustive.

"Budget exhausted" and "exhaustively absent" are distinct outcomes; only
the second lets an absent witness count as a proof.  The budget's
candidate cap bounds one whole search, across every right-factor
degree and lift prime; a space (one degree, over Q at one lift prime) runs
whole or not at all.  `decompose` picks the search for f.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from itertools import product, zip_longest

from ._intpoly import mod_gcd, mod_mul
from .errors import FieldMismatchError, PreconditionError
from .fields import PrimeField, QQ
from .numutil import is_prime, proper_composite_divisors
from .poly import Poly, poly_compose, poly_divmod, poly_exact_div
from .ratfun import RatFun, rat_compose
from .squarefree import divisor_counts, divisors, irreducible_factors


@dataclass(frozen=True)
class OracleBudget:
    """candidate_cap bounds the candidates one search tries in total."""

    candidate_cap: int = 100_000

    def __post_init__(self):
        if self.candidate_cap < 1:
            raise PreconditionError("oracle candidate cap must be at least 1")


@dataclass(frozen=True)
class SearchResult:
    """witness is a verified (g, h) pair or None; exhaustive means the verdict
    is conclusive (a witness, or a fully enumerated space with none)."""

    witness: tuple | None
    exhaustive: bool
    candidates: int


# ---------------------------------------------------------------------------
# Right-factor candidates over F_p, from divisors of fiber polynomials


class _RightFactors:
    """Complete candidate sets of right factors h = u/v of f over F_p.

    A degree-1 unit on the left makes h(inf) = inf and h(a) = 0, where a is
    the first point with f(a) != f(inf), and u, v monic: one pair per class.
    Then u (degree k) divides the fiber polynomial d*num - c*den of f over
    f(a) = (c : d), and v (degree < k) the one over f(inf); fibers over
    distinct values are coprime.  If f is constant on P^1(F_p), no a exists
    and u runs over every echelon u, so only then can u and v share a factor
    (`fallback`).  The factorizations run once, on first use, for every k.
    """

    def __init__(self, f: RatFun):
        self.f = f
        self.p = f.field.char

    @cached_property
    def _fibers(self):
        num, den = self.f.numerator, self.f.denominator
        n = self.f.degree
        top = max(_right_degrees(n), default=1)  # no candidate divisor is larger
        at_infinity = num.scale(den.coeff(n)) - den.scale(num.coeff(n))
        poles = irreducible_factors(at_infinity, top)
        a = next((a for a in range(self.p) if at_infinity(a)), None)
        if a is None:
            return None, None, poles
        at_a = num.scale(den(a)) - den.scale(num(a))
        # u = (x - a) w for a divisor w of the rest of that fiber
        return a, irreducible_factors(poly_exact_div(at_a, Poly(num.field, (-a, 1))), top), poles

    @property
    def fallback(self) -> bool:
        return self._fibers[0] is None

    def size(self, k: int) -> int:
        """The number of (u, v) pairs of degree k."""
        a, zeros, poles = self._fibers
        us = self.p ** (k - 1) if a is None else divisor_counts(zeros, k - 1)[k - 1]
        return us * sum(divisor_counts(poles, k - 1))

    def candidates(self, k: int):
        """The pairs of degree k shifted to their echelon representatives
        (u - u_{deg v} v, v), in the order of the whole echelon space: by
        deg v, then v's and u's free coefficients, constant term first."""
        a, zeros, poles = self._fibers
        p = self.p
        if a is not None:
            normalized = [mod_mul([-a % p, 1], w, p) for w in divisors(zeros, k - 1, p)]
        for v in sorted((v for d in range(k) for v in divisors(poles, d, p)),
                        key=lambda v: (len(v), v)):
            dv = len(v) - 1
            if a is None:
                us = ([*free[:dv], 0, *free[dv:], 1] for free in product(range(p), repeat=k - 1))
            else:
                us = sorted(([(c - u[dv] * b) % p for c, b in zip_longest(u, v, fillvalue=0)]
                             for u in normalized), key=lambda u: u[:dv] + u[dv + 1:])
            for u in us:
                yield u, v


# ---------------------------------------------------------------------------
# Polynomial decomposition


def h_adic_expansion(f: Poly, h: Poly) -> list[Poly]:
    """Digits c_0..c_m with f = sum(c_i * h^i) and deg c_i < deg h."""
    if h.degree < 1:
        raise PreconditionError("base must be nonconstant")
    digits = []
    rest = f
    while not rest.is_zero:
        rest, digit = poly_divmod(rest, h)
        digits.append(digit)
    return digits


def right_factor_quotient(f: Poly, h: Poly) -> Poly | None:
    """g with f = g o h, or None.  Exists iff every h-adic digit is constant;
    the result is re-verified by composition before returning."""
    if h.degree < 2:
        raise PreconditionError("right factor must have degree >= 2")
    if f.degree % h.degree:
        raise PreconditionError("right-factor degree must divide deg f")
    coeffs = []
    for digit in h_adic_expansion(f, h):
        if digit.degree > 0:
            return None
        coeffs.append(digit.coeff(0))
    g = Poly(f.field, coeffs)
    return g if poly_compose(g, h) == f else None


def _tame_right_factor(f: Poly, k: int) -> Poly:
    """The unique monic, zero-constant-term candidate of degree k whose m-th
    power matches the top coefficients of f/lc(f); it divides only by m, so it
    is valid when p does not divide m."""
    field = f.field
    n = f.degree
    m = n // k
    target = f.monic()
    h = Poly.x(field) ** k
    for j in range(1, k):
        gap = target - h ** m
        c = gap.coeff(n - j)
        if c:
            h = h + Poly(field, (field.zero,) * (k - j) + (field.div(c, m),))
    return h


def _right_degrees(n: int) -> list[int]:
    """Candidate right-factor degrees, largest first (the canonical order)."""
    return list(reversed(proper_composite_divisors(n)))


def poly_decompose(f: Poly, budget: OracleBudget) -> SearchResult:
    """First verified (g, h) with f = g o h, trying right-factor degrees in
    the canonical (descending) order.  A tame degree costs one candidate; a
    wild one (p | deg f / k) costs the divisors of f - f(0) of degree k."""
    n = f.degree
    if n < 4 or is_prime(n):
        raise PreconditionError("decomposition search needs composite degree >= 4")
    field = f.field
    p = field.char
    spaces = _RightFactors(RatFun(f))
    tried = 0
    exhaustive = True
    for k in _right_degrees(n):
        wild = p and (n // k) % p == 0
        if tried + (spaces.size(k) if wild else 1) > budget.candidate_cap:
            exhaustive = False
            continue
        if wild:
            candidates = (Poly(field, u) for u, _ in spaces.candidates(k))
        else:
            candidates = (_tame_right_factor(f, k),)
        for h in candidates:
            tried += 1
            g = right_factor_quotient(f, h)
            if g is not None:
                return SearchResult((g, h), True, tried)
    return SearchResult(None, exhaustive, tried)


# ---------------------------------------------------------------------------
# Rational decomposition over F_p, on int residues (ascending coefficients);
# the kernel and the left-factor solve also take Fractions (p = 0) for Q


def _kernel(rows: list[list], ncols: int, p: int) -> list[list]:
    """Kernel basis of a matrix (rows of length ncols) over F_p with int
    residue entries, or over Q with Fraction entries when p = 0."""
    mat = [list(r) for r in rows if any(r)]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(mat)):
            if mat[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = pow(mat[r][c], -1, p) if p else 1 / Fraction(mat[r][c])
        mat[r] = [x * inv % p for x in mat[r]] if p else [x * inv for x in mat[r]]
        row_r = mat[r]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                factor = mat[i][c]
                if p:
                    mat[i] = [(x - factor * y) % p for x, y in zip(mat[i], row_r)]
                else:
                    mat[i] = [x - factor * y for x, y in zip(mat[i], row_r)]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [0] * ncols
        vec[fc] = 1
        for i, pc in enumerate(pivots):
            vec[pc] = -mat[i][fc] % p if p else -mat[i][fc]
        basis.append(vec)
    return basis


def _left_factor(f1: list, f2: list, u: list, v: list, m: int, p: int):
    """Solve f1 * Qh - f2 * Ph = 0 for the coefficients of g = P/Q, where
    Ph, Qh homogenize P, Q with (u, v), over F_p on int residues or over Q
    on Fractions (p = 0).  Returns (P, Q) lists or None."""
    upow, vpow = [[1]], [[1]]
    for _ in range(m):
        upow.append(mod_mul(upow[-1], u, p))
        vpow.append(mod_mul(vpow[-1], v, p))
    forms = [mod_mul(upow[j], vpow[m - j], p) for j in range(m + 1)]
    minus_f2 = [-c for c in f2]
    cols = [mod_mul(f1, w, p) for w in forms] + [mod_mul(minus_f2, w, p) for w in forms]
    height = max(len(c) for c in cols)
    rows = [[col[r] if r < len(col) else 0 for col in cols] for r in range(height)]
    for vec in _kernel(rows, 2 * (m + 1), p):
        q = vec[:m + 1]
        if any(q):
            return vec[m + 1:], q
    return None


def _verified(f: RatFun, h: RatFun, pp: list, q: list) -> RatFun | None:
    """g = pp/q when g o h equals f exactly, else None."""
    g = RatFun(Poly(f.field, pp), Poly(f.field, q))
    return g if rat_compose(g, h) == f else None


def _rat_search(spaces: _RightFactors, degrees, cap: int) -> SearchResult:
    """The one rational search over F_p: each right-factor degree k of
    spaces.f, in the order given, tries its whole candidate space when it
    fits in what is left of `cap`.  A space that does not run makes an
    absent witness non-exhaustive."""
    f = spaces.f
    field = f.field
    if not isinstance(field, PrimeField):
        raise PreconditionError("direct rational search runs over prime fields")
    p = field.char
    f1, f2 = f.numerator.coeffs, f.denominator.coeffs
    tried = 0
    exhaustive = True
    for k in degrees:
        size = spaces.size(k)
        if size > cap - tried:
            exhaustive = False
            continue
        for n, (u, v) in enumerate(spaces.candidates(k), 1):
            if spaces.fallback and len(mod_gcd(u, v, p)) > 1:
                continue
            sol = _left_factor(f1, f2, u, v, f.degree // k, p)
            if sol is None:
                continue
            h = RatFun(Poly(field, u), Poly(field, v))
            g = _verified(f, h, *sol)
            if g is not None:
                return SearchResult((g, h), True, tried + n)
        tried += size
    return SearchResult(None, exhaustive, tried)


def rat_decompose(f: RatFun, k: int, budget: OracleBudget) -> SearchResult:
    """Witness search for f = g o h over F_p with deg h = k.

    An absent witness with exhaustive=True proves no decomposition with a
    degree-k right factor exists over the base field.
    """
    if f.is_zero or f.is_constant:
        raise PreconditionError("nonconstant function required")
    deg = f.degree
    if deg % k or k < 2 or k > deg // 2:
        raise PreconditionError("k must divide deg f with 2 <= k <= deg f / 2")
    return _rat_search(_RightFactors(f), [k], budget.candidate_cap)


def rat_decompose_all_k(f: RatFun, budget: OracleBudget) -> SearchResult:
    """rat_decompose over every admissible right-factor degree, descending,
    all degrees together trying at most the budget's cap."""
    return _rat_search(_RightFactors(f), _right_degrees(f.degree), budget.candidate_cap)


# ---------------------------------------------------------------------------
# Rational decomposition over Q by reduction and lifting

_LIFT_PRIMES = (5, 7, 11, 13)


def _reduce_mod(f: RatFun, p: int) -> RatFun | None:
    """Good-reduction image of f mod p, or None (coefficient denominator
    divisible by p, degree drop, or lost coprimality)."""
    field = PrimeField(p)
    try:
        num = Poly(field, f.numerator.coeffs)
        den = Poly(field, f.denominator.coeffs)
    except ZeroDivisionError:
        return None
    image = RatFun(num, den)
    if (image.numerator.degree != f.numerator.degree
            or image.denominator.degree != f.denominator.degree):
        return None
    return image


def _symmetric_lift(a: list[int], p: int) -> list[Fraction]:
    return [Fraction(c if c <= p // 2 else c - p) for c in a]


def solve_left_factor(f: RatFun, h: RatFun) -> RatFun | None:
    """Given a candidate right factor h, solve the exact linear system for g
    with f = g o h; the left factor is unique when it exists."""
    if f.field != h.field:
        raise FieldMismatchError(f"{f.field!r} vs {h.field!r}")
    deg = f.degree
    k = h.degree
    if deg % k:
        return None
    sol = _left_factor(f.numerator.coeffs, f.denominator.coeffs, h.numerator.coeffs,
                       h.denominator.coeffs, deg // k, f.field.char)
    return None if sol is None else _verified(f, h, *sol)


def rat_decompose_via_reduction(f: RatFun, budget: OracleBudget) -> SearchResult:
    """Witness search for proper rational functions over Q: search a
    good-reduction image over a small prime field, lift candidate right
    factors symmetrically, and re-verify exactly over Q.

    A returned witness is exact and conclusive; an absent one proves
    nothing (the result is never exhaustive over Q).
    """
    if f.field != QQ:
        raise PreconditionError("reduction-and-lift search runs over Q")
    images = []
    for p in _LIFT_PRIMES:
        image = _reduce_mod(f, p)
        if image is not None:
            images.append((p, _RightFactors(image)))
    tried = 0
    for k in _right_degrees(f.degree):
        for p, spaces in images:
            search = _rat_search(spaces, [k], budget.candidate_cap - tried)
            tried += search.candidates
            if search.witness is None:
                continue
            h_bar = search.witness[1]
            h = RatFun(Poly(QQ, _symmetric_lift(h_bar.numerator.coeffs, p)),
                       Poly(QQ, _symmetric_lift(h_bar.denominator.coeffs, p)))
            if h.degree != k:
                continue
            g = solve_left_factor(f, h)
            if g is not None:
                return SearchResult((g, h), True, tried)
            # a mod-p witness that does not lift goes on to the next prime,
            # which may reduce the true witness non-spuriously
    return SearchResult(None, False, tried)


# ---------------------------------------------------------------------------
# Dispatch


def decompose(f: RatFun, budget: OracleBudget) -> SearchResult:
    """The search that fits f: polynomial search, rational search over F_p,
    or reduce-and-lift over Q.  A witness is always a (RatFun, RatFun) pair."""
    if f.is_polynomial:
        search = poly_decompose(f.numerator, budget)
        if search.witness:
            search = replace(search, witness=tuple(RatFun(w) for w in search.witness))
        return search
    if f.field.char:
        return rat_decompose_all_k(f, budget)
    return rat_decompose_via_reduction(f, budget)
