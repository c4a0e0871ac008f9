import random
from fractions import Fraction
from itertools import product

import pytest
import sympy
from hypothesis import settings

from ratprime import (Poly, PrimeField, QQ, RatFun, disc_in_t, from_table, poly_compose,
                      poly_divmod, rat_compose, res_x_linear_t)

# how long one hypothesis example takes depends on the host, not on the code
# under test
untimed = settings(deadline=None)

# the largest prime below the Miller-Rabin bound, the largest field modulus
TOP_PRIME = 3_317_044_064_679_887_385_961_813


def qpoly(*coeffs):
    return Poly(QQ, coeffs)


def fppoly(p, *coeffs):
    return Poly(PrimeField(p), coeffs)


def random_poly(rng, field, degree, lc_choices=(1, 2, 3, -1, -2)):
    """Random polynomial of exact degree with small integer coefficients; the
    leading coefficient is drawn again until it is nonzero in the field (2
    is 0 over F_2)."""
    coeffs = [rng.randint(-3, 3) for _ in range(degree)]
    lead = rng.choice(lc_choices)
    while not field(lead):
        lead = rng.choice(lc_choices)
    return Poly(field, coeffs + [lead])


def random_ratfun(rng, field, num_degree, den_degree):
    """Random reduced rational function with the requested component degrees
    (resampled until reduction preserves them)."""
    while True:
        num = random_poly(rng, field, num_degree)
        den = random_poly(rng, field, den_degree)
        f = RatFun(num, den)
        if (not f.is_zero and f.numerator.degree == num_degree
                and f.denominator.degree == den_degree):
            return f


@pytest.fixture
def rng():
    return random.Random(0x5EED)


# ---------------------------------------------------------------------------
# definitional references and the paper's lemmas, stated on library calls

def sylvester_matrix(fd, gd, zero):
    """Sylvester layout of descending coefficient lists: deg g shifted copies
    of fd, then deg f shifted copies of gd."""
    n, m = len(fd) - 1, len(gd) - 1
    return ([[zero] * i + fd + [zero] * (m - 1 - i) for i in range(m)]
            + [[zero] * i + gd + [zero] * (n - 1 - i) for i in range(n)])


def bareiss_determinant(rows, zero, one, exact_div):
    """Fraction-free determinant; every division is exact in the entry ring."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, one
    for k in range(n - 1):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return zero
            m[k], m[swap], sign = m[swap], m[k], -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = exact_div(m[k][k] * m[i][j] - m[i][k] * m[k][j], prev)
        prev = m[k][k]
    return m[n - 1][n - 1] if sign > 0 else -m[n - 1][n - 1]


def sylvester_resultant(f, g):
    """Res(f, g) as the Sylvester determinant: the definitional route."""
    field = f.field
    rows = sylvester_matrix(list(f.coeffs[::-1]), list(g.coeffs[::-1]), field.zero)
    return field(bareiss_determinant(rows, field.zero, field.one, field.div))


def split_discriminant(g, h):
    """(a, A, B) with D[g o h - t] = a * A^k * B for A = D[g - t],
    B = Res_x(g o h - t, h') and k = deg h, when the characteristic is 0 or
    exceeds the degrees: a is the closed-form constant, whose halved exponent
    is an integer since n(n - deg g) is even."""
    f = poly_compose(g, h)
    n, k, s = f.degree, h.degree, g.derivative().degree
    exponent = (n * (n - 1) - n * (g.degree - 1)) // 2 + n * s * (k - 1)
    a = f.field.div((-1) ** exponent * g.lc ** k * h.lc ** (n * s), f.lc)
    return a, disc_in_t(g), res_x_linear_t(f, Poly.one(f.field), h.derivative())


def normalize_right_factor(g, h):
    """g o h rewritten as G o H with ord_infinity(H) < 0: unchanged when
    ord_infinity(h) < 0, else conjugated by the unit 1/(x - a), a the
    constant quotient of h's numerator by its denominator."""
    if h.ord_infinity < 0:
        return g, h
    field = h.field
    a = poly_divmod(h.numerator, h.denominator)[0].coeff(0)
    mu = RatFun(Poly.one(field), Poly(field, (-a, 1)))
    mu_inverse = RatFun(Poly(field, (1, a)), Poly.x(field))
    return rat_compose(g, mu_inverse), rat_compose(mu, h)


def valency(f, a):
    """Order of vanishing of f(x + a) - f(a) at 0, read off Taylor
    coefficients, so it stays meaningful in characteristic p; f(a) rejects a
    pole."""
    f = f if isinstance(f, RatFun) else RatFun(f)
    value = f(a)
    offset = f.numerator.taylor_shift(a) - f.denominator.taylor_shift(a).scale(value)
    return next(i for i, c in enumerate(offset.coeffs) if c)


def all_functions(p):
    """Every function on F_p, by value table in lexicographic order."""
    return (from_table(p, values) for values in product(range(p), repeat=p))


# ---------------------------------------------------------------------------
# sympy as the differential reference: p = 0 stands for Q

_X = sympy.Symbol("x")


def field_of(p):
    return PrimeField(p) if p else QQ


def to_sympy(p, coeffs):
    domain = {"modulus": p} if p else {"domain": sympy.QQ}
    return sympy.Poly(list(reversed(coeffs)) or [0], _X, **domain)


def sympy_fraction(c):
    r = sympy.Rational(c)
    return Fraction(int(r.p), int(r.q))


def from_sympy(p, poly):
    return Poly(field_of(p), [sympy_fraction(c) for c in reversed(poly.all_coeffs())])


def sympy_homogenized(p, g, h):
    """The numerator and denominator of g o h as sympy Polys, by sympy
    arithmetic alone: g's components homogenized to degree m = deg g in u and
    v, for h = u/v.  They may share a factor; they are not reduced."""
    u, v = (to_sympy(p, c.coeffs) for c in (h.numerator, h.denominator))
    m = max(g.numerator.degree, g.denominator.degree, 0)
    return tuple(sum((to_sympy(p, [c]) * u ** i * v ** (m - i) for i, c in enumerate(part.coeffs)),
                     to_sympy(p, [])) for part in (g.numerator, g.denominator))
