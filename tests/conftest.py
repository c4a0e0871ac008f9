import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import settings

from ratprime import Poly, PrimeField, QQ, RatFun

# how long one hypothesis example takes depends on the host, not on the code
# under test
untimed = settings(deadline=None)


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
