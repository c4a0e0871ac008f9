"""The paper's primality certificates against the exhaustive F_p oracle.

Over a small F_p the decomposition search is exhaustive, so it decides
independently of the certificates whether f = g o h over the base field.
Every PrimeBy* certificate proves primality over the base field at least,
so three properties must hold:

- a PrimeBy* verdict at degree 4 or 6 comes with an exhaustive search that
  finds no witness;
- a constructed composite g o h never gets a PrimeBy* verdict, over F_p or
  over Q;
- a constructed composite over F_p always gets a witness.

The composites are built in sympy, from g's components homogenized with h's
numerator and denominator, so these checks do not rest on `rat_compose`.
"""

from functools import cache
from itertools import product

from hypothesis import assume, given, settings, strategies as st

from ratprime import OracleBudget, Poly, RatFun, analyze, decompose
from conftest import field_of, from_sympy, sympy_homogenized

SMALL_PRIMES = (3, 5, 7, 11)

# enough draws that each certificate, made one step weaker, is caught
_sweep = settings(deadline=None, max_examples=150)


def _entries(p):
    """The coefficients drawn: residues mod p, or small integers over Q."""
    return range(p) if p else range(-4, 5)


def _coeff(p):
    """One of `_entries`, drawn evenly: integer strategies lean towards 0 and
    the bounds, which makes most draws degenerate cases."""
    return st.sampled_from(_entries(p))


@st.composite
def _function(draw, p, degree, polynomial):
    """A reduced function of the given degree over F_p (Q when p = 0) with
    small coefficients: a polynomial, or a numerator and denominator of
    random degrees, one of them equal to `degree`."""
    coeff = _coeff(p)
    lead = coeff.filter(bool)
    if polynomial:
        degrees = (degree, 0)
    else:
        other = draw(st.sampled_from(range(degree + 1)))
        degrees = draw(st.sampled_from([(degree, other), (other, degree)]))
    num, den = ([*draw(st.lists(coeff, min_size=d, max_size=d)), draw(lead)] for d in degrees)
    f = RatFun(Poly(field_of(p), num), Poly(field_of(p), den))
    assume(f.degree == degree)
    return f


def _compose(p, g, h):
    """g o h, built in sympy (`sympy_homogenized`)."""
    return RatFun(*(from_sympy(p, part) for part in sympy_homogenized(p, g, h)))


@cache
def _units(p):
    """The invertible 2x2 matrices (a, b, e, d) over `_entries`."""
    field = field_of(p)
    return [m for m in product(_entries(p), repeat=4) if field(m[0] * m[3] - m[1] * m[2])]


@st.composite
def _tight_pair(draw, p, right):
    """(g, h) with deg g = 2, deg h = `right` and g critical at c = h(inf):
    g = (a s + b) / (e s + d) for s = (x - c)^2, and h = c + r / v with
    deg r < deg v = `right`."""
    field, c = field_of(p), draw(_coeff(p))
    a, b, e, d = draw(st.sampled_from(_units(p)))
    s = Poly(field, [c * c, -2 * c, 1])
    g = RatFun(s.scale(a) + Poly.constant(field, b), s.scale(e) + Poly.constant(field, d))
    v = Poly(field, [*draw(st.lists(_coeff(p), min_size=right, max_size=right)), 1])
    r = Poly(field, draw(st.lists(_coeff(p), min_size=right, max_size=right)))
    assume(r)
    h = RatFun(v.scale(c) + r, v)
    assume(h.degree == right)
    return g, h


@st.composite
def _composite(draw, primes):
    """(p, f, g, h) with f = g o h, deg g * deg h in {4, 6}: g and h are each
    a polynomial or a proper rational function, or g is quadratic and
    critical at c = h(inf) (`_tight_pair`).  Then f(inf) = g(c), and when h
    is quadratic too, that fiber has one affine point, a simple critical
    value that a generic composite lacks: 2d - 1 = 3 nonzero simple critical
    values, one short of the bound 2d."""
    p = draw(st.sampled_from(primes))
    left, right = draw(st.sampled_from([(2, 2), (2, 3), (3, 2)]))
    if left == 2 and draw(st.booleans()):
        g, h = draw(_tight_pair(p, right))
    else:
        g = draw(_function(p, left, draw(st.booleans())))
        h = draw(_function(p, right, draw(st.booleans())))
    f = _compose(p, g, h)
    assert f.degree == left * right
    return p, f, g, h


@st.composite
def _small_field_function(draw):
    """A polynomial or rational function of degree 4 or 6 over a small F_p."""
    p = draw(st.sampled_from(SMALL_PRIMES))
    return draw(_function(p, draw(st.sampled_from([4, 6])), draw(st.booleans())))


@_sweep
@given(_small_field_function())
def test_certified_functions_have_no_decomposition(f):
    verdict = analyze(f)
    if not verdict.is_prime_certificate:
        return
    search = decompose(f, OracleBudget())
    assert search.witness is None and search.exhaustive, (verdict, f)


@_sweep
@given(_composite((0, *SMALL_PRIMES)))
def test_composites_are_never_certified(case):
    p, f, g, h = case
    verdict = analyze(f)
    assert not verdict.is_prime_certificate, (verdict, g, h)


@_sweep
@given(_composite(SMALL_PRIMES))
def test_composites_over_small_fields_have_a_witness(case):
    p, f, g, h = case
    witness = decompose(f, OracleBudget()).witness
    assert witness is not None, (g, h)
    left, right = witness
    assert left.degree >= 2 and right.degree >= 2
    assert _compose(p, left, right) == f
