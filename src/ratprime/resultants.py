"""Resultants, discriminants, and critical-value bookkeeping.

`resultant` is the kernel's `mod_resultant`: the subresultant PRS over Z
after clearing denominators, and over F_p the kernel's one packed Euclid
(`_intpoly._euclid`), which also gives its long gcds and inverses.  The
polynomial-in-t resultants Res_x(a - t*b, c) take one route per field.
Over every F_p it is a scaled characteristic polynomial in F_p[x]/(c)
(`_intpoly.mod_res_linear`), whose elements stay packed ints, with no
evaluation and no interpolation.  Over Q it is evaluated at deg c + 1
integer nodes on integer lists, cleared once, whose remainder sequences
share their t-free first steps (`_intpoly.res_linear_nodes`), and the
values are interpolated in Z (`_intpoly.mod_interpolate`), with one
division by the cleared denominators at the end.  The test suite
cross-checks both routes against the Sylvester determinant.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from . import _intpoly
from .errors import DegenerateDerivativeError, PreconditionError
from .fields import QQ
from .poly import NEG_INF, Poly, _same_field
from .ratfun import RatFun
from .squarefree import SquarefreeFactorization, squarefree_decompose

# ---------------------------------------------------------------------------
# Scalar resultants


def resultant(f: Poly, g: Poly):
    """Res(f, g) by the kernel's `mod_resultant`: the subresultant PRS over
    Q, read off the packed Euclid over F_p."""
    _same_field(f, g)
    if f.is_zero or g.is_zero:
        raise PreconditionError("resultant needs nonzero polynomials")
    if f.degree == 0 and g.degree == 0:
        raise PreconditionError("resultant of two constants")
    return _intpoly.mod_resultant(f.coeffs, g.coeffs, f.field.char)


def discriminant(f: Poly):
    """(-1)^(n(n-1)/2) / lc(f) times Res(f, f')."""
    if f.degree is NEG_INF or f.degree < 1:
        raise PreconditionError("discriminant needs degree >= 1")
    n = f.degree
    fp = f.derivative()
    if fp.is_zero:
        raise DegenerateDerivativeError("derivative vanishes identically")
    res = resultant(f, fp)
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return f.field.div(sign * res, f.lc)


# ---------------------------------------------------------------------------
# Resultants with the auxiliary variable t


def interpolate(field, xs, ys) -> Poly:
    """Newton-form interpolation through (xs[i], ys[i]) at distinct nodes,
    exact in the field (the kernel's `mod_interpolate`)."""
    if field.char:
        xs, ys = [field(x) for x in xs], [field(y) for y in ys]
        if len(set(xs)) < len(xs):  # the kernel's pow(0, -1, p) would raise ValueError
            raise ZeroDivisionError("interpolation nodes repeat mod p")
    return Poly(field, _intpoly.mod_interpolate(xs, ys, field.char))


def _nodes(count: int, forbidden) -> list[int]:
    """count distinct integer nodes 0, 1, -1, 2, -2, ... avoiding `forbidden`."""
    out = []
    k = 0
    while len(out) < count:
        for cand in ([0] if k == 0 else [k, -k]):
            if len(out) < count and cand not in forbidden:
                out.append(cand)
        k += 1
    return out


def res_x_linear_t(a: Poly, b: Poly, c: Poly) -> Poly:
    """Res_x(a(x) - t*b(x), c(x)) as an exact polynomial in t.

    The t-degree is at most deg c (only the deg-c rows of the Sylvester
    matrix carry t).  One route runs per field.

    Over F_p, for every p, the kernel's `mod_res_linear` reads it off as a
    scaled characteristic polynomial in F_p[x]/(c) of a/b (reversed in t),
    else of b/a, else splits c; its docstring has the proof.

    Over Q it is evaluated at deg c + 1 integer nodes, which determine it;
    nodes where the x-leading coefficient of a - t*b would vanish are
    excluded so specialization commutes with the determinant.  a, b and c
    are cleared once, to A/da, B/db and C/dc.  With L = lcm(da, db), a
    node's value is the subresultant PRS of the integer list (L/da)*A -
    t0*(L/db)*B against C at integer nodes avoiding A_n/B_n.  Those values
    lie on an integer polynomial in t, so they interpolate in Z, and one
    division by L^deg c * dc^n at the end gives the resultant over Q.  The
    remainder sequence is not run from scratch at each node: while no
    quotient and no leading coefficient involves t, every remainder is r0 +
    t*r1 and one run on the pair serves all nodes, which then continue from
    the carried state (`_intpoly.res_linear_nodes`).  For D[f - t] that
    shares about the first half of the steps; when deg b >= deg a (a
    rational f with b_n != 0) the leading coefficient carries t and every
    node runs alone.
    """
    _same_field(a, b)
    _same_field(a, c)
    if c.is_zero:
        raise PreconditionError("second argument is zero")
    n = max(len(a.coeffs), len(b.coeffs)) - 1
    if n < 1:
        raise PreconditionError("first argument is constant in x")
    field = a.field
    if c.degree == 0:
        return Poly.constant(field, c.lc ** n)
    if field.char:
        return Poly._of(field, _intpoly.mod_res_linear(a.coeffs, b.coeffs, c.coeffs, field.char))
    bound = c.degree
    an, bn = a.coeff(n), b.coeff(n)
    (ai, da), (bi, db), (ci, dc) = map(_intpoly._clear, (a.coeffs, b.coeffs, c.coeffs))
    lden = lcm(da, db)
    ai, bi = [x * (lden // da) for x in ai], [y * (lden // db) for y in bi]
    nodes = _nodes(bound + 1, {Fraction(an, bn)} if bn else ())
    res = interpolate(QQ, nodes, _intpoly.res_linear_nodes(ai, bi, ci, nodes))
    den = lden ** bound * dc ** n
    return res if den == 1 else res.scale(Fraction(1, den))


def disc_in_t(f: Poly) -> Poly:
    """D[f - t]: the discriminant of f - t as a polynomial in t.

    Roots in the closure are exactly the critical values of f.
    """
    if f.degree is NEG_INF or f.degree < 2:
        raise PreconditionError("disc_in_t needs degree >= 2")
    fp = f.derivative()
    if fp.is_zero:
        raise DegenerateDerivativeError("derivative vanishes identically")
    n = f.degree
    res = res_x_linear_t(f, Poly.one(f.field), fp)
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return res.scale(f.field.div(sign, f.lc))


def rat_resultant_in_t(f: RatFun) -> Poly:
    """Res_x(f(x) - t, f'(x)) computed on numerators of the reduced forms.

    This is the discriminant analog for rational functions: its roots in
    the closure are exactly the critical values of f.
    """
    if f.is_zero or f.is_constant:
        raise PreconditionError("needs a nonconstant function")
    deriv = f.derivative()
    if deriv.numerator.is_zero:
        raise DegenerateDerivativeError("derivative vanishes identically")
    return res_x_linear_t(f.numerator, f.denominator, deriv.numerator)


# ---------------------------------------------------------------------------
# Critical values


@dataclass(frozen=True)
class CriticalValueReport:
    """Multiplicity bookkeeping for critical values, counted in the closure.

    simple_count comes from the degree of the multiplicity-one part of the
    squarefree decomposition, so no root extraction ever happens; the zero
    critical value is detected by a vanishing constant term.
    """

    disc_t: Poly
    squarefree: SquarefreeFactorization
    simple_count: int
    nonzero_simple_count: int
    zero_multiplicity: int


def critical_values(disc: Poly) -> CriticalValueReport:
    if disc.is_zero:
        raise PreconditionError("zero discriminant")
    sf = squarefree_decompose(disc)
    simple = 0
    zero_is_simple = False
    zero_mult = 0
    for factor, mult in sf.parts:
        if mult == 1:
            simple += factor.degree
        if not factor.coeff(0):
            zero_mult = mult
            zero_is_simple = mult == 1
    return CriticalValueReport(
        disc_t=disc,
        squarefree=sf,
        simple_count=simple,
        nonzero_simple_count=simple - (1 if zero_is_simple else 0),
        zero_multiplicity=zero_mult,
    )


def critical_report(f: RatFun) -> CriticalValueReport | None:
    """Critical values of f, read off D[f - t] for a polynomial and off
    Res_x(f - t, f') otherwise; None when f' vanishes identically."""
    try:
        disc = disc_in_t(f.numerator) if f.is_polynomial else rat_resultant_in_t(f)
    except DegenerateDerivativeError:
        return None
    return critical_values(disc)
