"""Decomposition search used as ground truth.

Right factors are taken up to degree-1 units on the left.  Once a candidate
h = u/v of degree k is fixed, the left factor g = P/Q of f = f1/f2 comes
from one triangular expansion (`_left_factor`): with m = deg f / k and
deg u != deg v, the forms u^i v^(m-i) have distinct degrees, and f = g o h
exactly when f1 and f2 both expand in them; the digits are the coefficients
of P and Q.  With v = 1 this is the h-adic test.  A pair u, v with a
common factor never expands, since every form is divisible by its m-th
power and f1, f2 are coprime.  The same solve runs on int residues over F_p
and on Fractions over Q.

Candidates: a polynomial right-factor degree k is tame when the
characteristic does not divide m; then one candidate solves for the top
coefficients of f (von zur Gathen 1990).  Every other space is over F_p:
reduced echelon pairs (u monic of degree k with zero coefficient at deg v,
v monic of lower degree).  Every class holds a u/v whose u and v divide
fiber polynomials of f (Alonso-Gutierrez-Recio 1995); the F_p factorization
in `squarefree` lists those divisors, and shifted to echelon form they give
each degree a finite, complete candidate set of known size, at any p and k.
Over Q the rational search runs on good-reduction images mod small primes,
and witnesses are lifted symmetrically and re-verified exactly, so absence
over Q is claimed to be exhaustive only where there is nothing to search (a
prime degree).

"Budget exhausted" and "exhaustively absent" are distinct outcomes; only
the second lets an absent witness count as a proof.  One loop (`_search`)
runs every route, and it alone applies the budget's candidate cap, which
bounds one whole search across every right-factor degree and lift prime; a
space (one degree, over Q at one lift prime) runs whole or not at all.
`decompose` picks one of two searches: the direct one
(`rat_decompose_all_k`) over F_p or for a polynomial, else reduce-and-lift.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from itertools import product, zip_longest

from ._intpoly import mod_forms, mod_mul, mod_pow, trim
from .errors import FieldMismatchError, PreconditionError
from .fields import PrimeField, QQ
from .numutil import proper_composite_divisors
from .poly import Poly, poly_compose, poly_exact_div
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
# Right-factor candidates: the tame one, or divisors of fiber polynomials


class _RightFactors:
    """Complete candidate sets of right factors h = u/v of f.

    A tame degree k of a polynomial f (p does not divide deg f / k, any p)
    has one candidate, the tame h with v = 1.  Every other space is over
    F_p.  A degree-1 unit on the left makes h(inf) = inf and h(a) = 0, where
    a is the first point with f(a) != f(inf), and u, v monic: one pair per
    class.  Then u (degree k) divides the fiber polynomial d*num - c*den of f
    over f(a) = (c : d), and v (degree < k) the one over f(inf); fibers over
    distinct values are coprime.  If f is constant on P^1(F_p), no a exists
    and u runs over every echelon u, so only then can u and v share a factor
    (and such a pair has no left factor).  The factorizations run once, on
    first use, for every k.
    """

    def __init__(self, f: RatFun):
        self.f = f
        self.p = f.field.char

    def _tame(self, k: int) -> bool:
        return self.f.is_polynomial and (not self.p or (self.f.degree // k) % self.p != 0)

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

    def size(self, k: int) -> int:
        """The number of (u, v) pairs of degree k."""
        if self._tame(k):
            return 1
        a, zeros, poles = self._fibers
        us = self.p ** (k - 1) if a is None else divisor_counts(zeros, k - 1)[k - 1]
        return us * sum(divisor_counts(poles, k - 1))

    def candidates(self, k: int):
        """The tame pair (h, 1), or the pairs of degree k shifted to their
        echelon representatives (u - u_{deg v} v, v), in the order of the
        whole echelon space: by deg v, then v's and u's free coefficients,
        constant term first."""
        if self._tame(k):
            yield list(_tame_right_factor(self.f.numerator, k).coeffs), [1]
            return
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


def _tame_right_factor(f: Poly, k: int) -> Poly:
    """The unique monic, zero-constant-term candidate of degree k whose m-th
    power matches the top coefficients of f/lc(f); it divides only by m, so it
    is valid when p does not divide m.  The coefficient of x^(n-j) in h^m
    depends only on the top j + 1 coefficients of h, so each step raises
    just those, reversed and truncated after degree j, to the m-th power."""
    field = f.field
    p = field.char
    m = f.degree // k
    target = f.monic().coeffs[::-1]  # target[j] is the coefficient of x^(n-j)
    top = [field.one]  # top[j] is the coefficient of x^(k-j) in h
    for j in range(1, k):
        power = mod_pow(top, m, p, lambda a: a[:j + 1])
        gap = target[j] - (power[j] if j < len(power) else 0)
        top.append(field.div(gap, m))
    return Poly(field, [0, *reversed(top)])


def _right_degrees(n: int) -> list[int]:
    """Candidate right-factor degrees, largest first (the canonical order)."""
    return list(reversed(proper_composite_divisors(n)))


# ---------------------------------------------------------------------------
# The left factor, on int residues over F_p or Fractions over Q (p = 0)


def _left_factor(f1: list, f2: list, u: list, v: list, m: int, p: int):
    """Digits (P, Q) with f1 = sum P_i u^i v^(m-i) and f2 = sum Q_i u^i v^(m-i),
    or None when either does not expand.  Needs deg u != deg v: the forms
    then have distinct degrees, and each digit is read off the leading
    term of what is left."""
    forms = mod_forms(u, v, m, p)
    order = range(m, -1, -1) if len(u) > len(v) else range(m + 1)  # by degree, descending
    digits = []
    for rest in (list(f1), list(f2)):
        digit = [0] * (m + 1)
        for i in order:
            form = forms[i]
            if len(rest) > len(form):
                return None
            if len(rest) == len(form):
                c = rest[-1] * pow(form[-1], -1, p) % p if p else Fraction(rest[-1]) / form[-1]
                rest = [a - c * b for a, b in zip(rest, form)]
                rest = trim([a % p for a in rest] if p else rest)
                digit[i] = c
        if rest:
            return None
        digits.append(digit)
    return digits


def solve_left_factor(f: RatFun, h: RatFun) -> RatFun | None:
    """g with f = g o h, or None; the left factor is unique when it exists.
    When h = u/v has deg u = deg v, the expansion runs in h - c, where
    c = lc u / lc v, and g is shifted back by c."""
    if f.field != h.field:
        raise FieldMismatchError(f"{f.field!r} vs {h.field!r}")
    k = h.degree
    if k < 1:
        raise PreconditionError("right factor must be nonconstant")
    if f.degree % k:
        return None
    field = f.field
    u, v = h.numerator, h.denominator
    c = field.div(u.lc, v.lc) if u.degree == v.degree else field.zero
    sol = _left_factor(f.numerator.coeffs, f.denominator.coeffs, (u - v.scale(c)).coeffs,
                       v.coeffs, f.degree // k, field.char)
    if sol is None:
        return None
    g = RatFun(*(Poly(field, digits).taylor_shift(-c) for digits in sol))
    return g if rat_compose(g, h) == f else None


def right_factor_quotient(f: Poly, h: Poly) -> Poly | None:
    """g with f = g o h, or None: the left-factor solve with v = 1 (every
    h-adic digit of f is constant), re-verified by composition."""
    if h.degree < 2:
        raise PreconditionError("right factor must have degree >= 2")
    if f.degree % h.degree:
        raise PreconditionError("right-factor degree must divide deg f")
    sol = _left_factor(f.coeffs, [1], h.coeffs, [1], f.degree // h.degree, f.field.char)
    if sol is None:
        return None
    g = Poly(f.field, sol[0])
    return g if poly_compose(g, h) == f else None


# ---------------------------------------------------------------------------
# The search


def _search(spaces: _RightFactors, degrees, cap: int) -> SearchResult:
    """The one decomposition search: each right-factor degree k of spaces.f,
    in the order given, tries its whole candidate space when it fits in
    what is left of `cap`.  A space that does not run makes an absent
    witness non-exhaustive."""
    f = spaces.f
    field = f.field
    f1, f2 = f.numerator.coeffs, f.denominator.coeffs
    tried = 0
    exhaustive = True
    for k in degrees:
        size = spaces.size(k)
        if size > cap - tried:
            exhaustive = False
            continue
        for n, (u, v) in enumerate(spaces.candidates(k), 1):
            sol = _left_factor(f1, f2, u, v, f.degree // k, field.char)
            if sol is None:
                continue
            g = RatFun(Poly(field, sol[0]), Poly(field, sol[1]))
            h = RatFun(Poly(field, u), Poly(field, v))
            if rat_compose(g, h) == f:
                return SearchResult((g, h), True, tried + n)
        tried += size
    return SearchResult(None, exhaustive, tried)


def poly_decompose(f: Poly, budget: OracleBudget) -> SearchResult:
    """First verified (g, h) with f = g o h, trying right-factor degrees in
    the canonical (descending) order.  A tame degree costs one candidate; a
    wild one (p | deg f / k) costs the divisors of f - f(0) of degree k.  A
    degree with no right-factor degree (1 or a prime) leaves nothing to
    search: the absence is exhaustive after 0 candidates."""
    if f.degree < 1:  # the zero polynomial has degree -inf
        raise PreconditionError("nonconstant polynomial required")
    search = _search(_RightFactors(RatFun(f)), _right_degrees(f.degree), budget.candidate_cap)
    if search.witness:
        search = replace(search, witness=tuple(w.numerator for w in search.witness))
    return search


def rat_decompose_all_k(f: RatFun, budget: OracleBudget) -> SearchResult:
    """Witness search for f = g o h over every admissible right-factor
    degree, descending, all degrees together trying at most the budget's
    cap: for any f over F_p, and for a polynomial f over Q, whose every
    degree is tame (one candidate).  An absent witness with exhaustive=True
    proves that f has no decomposition over the base field."""
    if f.is_zero or f.is_constant:
        raise PreconditionError("nonconstant function required")
    if not (f.field.char or f.is_polynomial):
        raise PreconditionError("over Q the direct search runs on polynomials only")
    return _search(_RightFactors(f), _right_degrees(f.degree), budget.candidate_cap)


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


def rat_decompose_via_reduction(f: RatFun, budget: OracleBudget) -> SearchResult:
    """Witness search for proper rational functions over Q: search a
    good-reduction image over a small prime field, lift candidate right
    factors symmetrically, and re-verify exactly over Q.

    A returned witness is exact and conclusive; an absent one proves
    nothing, unless no right-factor degree exists (deg f is 1 or prime),
    where the result is exhaustive.
    """
    if f.field != QQ:
        raise PreconditionError("reduction-and-lift search runs over Q")
    images = []
    for p in _LIFT_PRIMES:
        image = _reduce_mod(f, p)
        if image is not None:
            images.append((p, _RightFactors(image)))
    tried = 0
    degrees = _right_degrees(f.degree)
    for k in degrees:
        for p, spaces in images:
            search = _search(spaces, [k], budget.candidate_cap - tried)
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
    return SearchResult(None, not degrees, tried)


# ---------------------------------------------------------------------------
# Dispatch


def decompose(f: RatFun, budget: OracleBudget) -> SearchResult:
    """The search that fits f: the one search (`rat_decompose_all_k`) over
    F_p or for a polynomial, or reduce-and-lift over Q.  A witness is always
    a (RatFun, RatFun) pair."""
    if f.field.char or f.is_polynomial:
        return rat_decompose_all_k(f, budget)
    return rat_decompose_via_reduction(f, budget)
