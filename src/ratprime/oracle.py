"""Decomposition search used as ground truth.

Polynomials: base-h digit expansion decides "is h a right factor" exactly;
degree-1 units shrink right factors to monic ones with zero constant term.
A right-factor degree k is tame when the characteristic does not divide
m = deg f / k, and then that candidate is unique and solves for the top
coefficients of f (von zur Gathen 1990); only a wild k (p | m) brute-forces.

Rational functions over F_p: right factors are enumerated up to degree-1
units as 2-dimensional coefficient subspaces in reduced echelon form, and
the left factor, once h is fixed, is the kernel of an exact linear system;
both run on int residues (`_intpoly`), and the same solver serves Q.
Over Q the same search runs on good-reduction images mod small primes and
candidate witnesses are lifted symmetrically and re-verified exactly;
absence of a witness over Q is therefore never claimed to be exhaustive.

"Budget exhausted" and "exhaustively absent" are distinct outcomes; the
exhaustive flag is what lets the primality soundness tests treat an absent
witness as a proof.  The budget's candidate cap bounds one whole search,
across every right-factor degree and lift prime.  Every rational route runs
`_rat_search`, where a space (one right-factor degree, over Q at one lift
prime) is searched whole or not at all.  `decompose` picks the search for f.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import product

from ._intpoly import mod_eval, mod_gcd, mod_mul
from .errors import FieldMismatchError, PreconditionError
from .fields import PrimeField, QQ
from .numutil import is_prime, proper_composite_divisors
from .poly import Poly, poly_compose, poly_divmod
from .ratfun import RatFun, rat_compose


# Brute-force limits (rational searches, wild polynomial degrees): larger
# fields and right-factor degrees are skipped, so the search is not exhaustive.
_MAX_FIELD_SIZE = 13
_MAX_RIGHT_DEGREE = 8


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
    wild one (p | deg f / k) costs the p^(k-1) of the brute force."""
    n = f.degree
    if n < 4 or is_prime(n):
        raise PreconditionError("decomposition search needs composite degree >= 4")
    field = f.field
    p = field.char
    tried = 0
    exhaustive = True
    for k in _right_degrees(n):
        wild = p and (n // k) % p == 0
        if (wild and (p > _MAX_FIELD_SIZE or k > _MAX_RIGHT_DEGREE)
                or tried + (p ** (k - 1) if wild else 1) > budget.candidate_cap):
            exhaustive = False
            continue
        if wild:
            candidates = (Poly(field, (0,) + tail + (1,))
                          for tail in product(range(p), repeat=k - 1))
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


def _projective_table(num: list[int], den: list[int], p: int) -> list[int]:
    """Value of num/den at 0..p-1 and infinity; p encodes the point at
    infinity as a value.  Assumes gcd(num, den) = 1."""
    table = []
    for a in range(p):
        bottom = mod_eval(den, a, p)
        if bottom:
            table.append((mod_eval(num, a, p) * pow(bottom, -1, p)) % p)
        else:
            table.append(p)
    dn, dd = len(num) - 1, len(den) - 1
    if dn > dd:
        table.append(p)
    elif dn < dd:
        table.append(0)
    else:
        table.append((num[-1] * pow(den[-1], -1, p)) % p)
    return table


def _fibers_respected(u: list[int], v: list[int], f_table: list[int], p: int) -> bool:
    """Necessary condition for f = g o (u/v): points identified by u/v must
    already be identified by f (as maps on the projective line)."""
    groups: dict[int, int] = {}
    for a in range(p):
        bottom = mod_eval(v, a, p)
        if bottom:
            hv = (mod_eval(u, a, p) * pow(bottom, -1, p)) % p
        else:
            hv = p
        fv = f_table[a]
        if hv in groups:
            if groups[hv] != fv:
                return False
        else:
            groups[hv] = fv
    # u is monic of full degree and deg v < deg u, so infinity maps to infinity
    return groups.get(p, f_table[p]) == f_table[p]


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


def _subspace_count(p: int, k: int) -> int:
    """Size of the canonical degree-k right-factor space over F_p."""
    return p ** (k - 1) * (p ** k - 1) // (p - 1)


def _canonical_right_factors(p: int, k: int):
    """Degree-k right factors up to composition with degree-1 units.

    Each class corresponds to the 2-dimensional coefficient subspace
    spanned by numerator and denominator; reduced echelon bases (u monic of
    degree k with zero coefficient at deg v, v monic of lower degree)
    enumerate every such subspace exactly once, in a fixed order.
    """
    for dv in range(k):
        for v_tail in product(range(p), repeat=dv):
            v = list(v_tail) + [1]
            for u_free in product(range(p), repeat=k - 1):
                u = list(u_free[:dv]) + [0] + list(u_free[dv:]) + [1]
                yield u, v


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


def _search_right_factors(f: RatFun, k: int) -> tuple[tuple | None, int]:
    """Enumerate the whole canonical space of degree-k right factors over F_p,
    returning the first fully verified witness pair (or None) and the number
    of candidates tried."""
    field = f.field
    p = field.char
    m = f.degree // k
    f1, f2 = f.numerator.coeffs, f.denominator.coeffs
    f_table = _projective_table(f1, f2, p)
    for tried, (u, v) in enumerate(_canonical_right_factors(p, k), 1):
        if len(mod_gcd(u, v, p)) > 1:
            continue
        if not _fibers_respected(u, v, f_table, p):
            continue
        sol = _left_factor(f1, f2, u, v, m, p)
        if sol is None:
            continue
        h = RatFun(Poly(field, u), Poly(field, v))
        g = _verified(f, h, *sol)
        if g is not None:
            return (g, h), tried
    return None, _subspace_count(p, k)


def _rat_search(f: RatFun, degrees, cap: int) -> SearchResult:
    """The one rational search over F_p: each right-factor degree k, in the
    order given, searches its whole canonical space when p and k are within
    the brute-force limits and the space fits in what is left of `cap`.  A
    space that does not run makes an absent witness non-exhaustive."""
    if not isinstance(f.field, PrimeField):
        raise PreconditionError("direct rational search runs over prime fields")
    p = f.field.char
    tried = 0
    exhaustive = True
    for k in degrees:
        if (p > _MAX_FIELD_SIZE or k > _MAX_RIGHT_DEGREE
                or _subspace_count(p, k) > cap - tried):
            exhaustive = False
            continue
        witness, used = _search_right_factors(f, k)
        tried += used
        if witness:
            return SearchResult(witness, True, tried)
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
    return _rat_search(f, [k], budget.candidate_cap)


def rat_decompose_all_k(f: RatFun, budget: OracleBudget) -> SearchResult:
    """rat_decompose over every admissible right-factor degree, descending,
    all degrees together trying at most the budget's cap."""
    return _rat_search(f, _right_degrees(f.degree), budget.candidate_cap)


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
    tried = 0
    for k in _right_degrees(f.degree):
        for p in _LIFT_PRIMES:
            image = _reduce_mod(f, p)
            if image is None:
                continue
            search = _rat_search(image, [k], budget.candidate_cap - tried)
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
