from fractions import Fraction

import pytest

from ratprime import (Poly, PreconditionError, PrimeField, QQ, RatFun, parse_expression,
                      rat_compose, ratfun)
from conftest import fppoly, normalize_right_factor, qpoly, random_poly, random_ratfun


def _ex_ordi():
    """f, g, h with f = g o h: the degree-16 worked example."""
    g = RatFun(qpoly(1, 1), qpoly(0, 0, 0, 0, 1))          # (x+1)/x^4
    h = RatFun(qpoly(1, 0, 1), qpoly(1, 0, 0, 0, 1))        # (x^2+1)/(x^4+1)
    f = rat_compose(g, h)
    return f, g, h


# ---------------------------------------------------------------------------
# reduction

def test_reduce_cancels_common_factor():
    f = RatFun(qpoly(-1, 0, 1) * qpoly(1, 1), qpoly(-1, 1))
    assert f.numerator == qpoly(1, 2, 1)
    assert f.denominator == Poly.one(QQ)


def test_reduce_keeps_coprime_pair():
    f = RatFun(qpoly(1, 4, 6, 4, 1), qpoly(0, 0, 0, 1))
    assert f.numerator == qpoly(1, 4, 6, 4, 1)
    assert f.denominator == qpoly(0, 0, 0, 1)


def test_reduce_mod3():
    f = RatFun(fppoly(3, 0, -1, 0, 1), fppoly(3, -1, 1))
    assert f.numerator == fppoly(3, 0, 1, 1)
    assert f.denominator == Poly.one(PrimeField(3))


def test_reduce_rejects_zero_denominator():
    with pytest.raises(PreconditionError):
        RatFun(qpoly(1), Poly.zero(QQ))


def test_reduction_idempotent(rng):
    for _ in range(25):
        f = random_ratfun(rng, QQ, rng.randint(0, 4), rng.randint(0, 4))
        again = RatFun(f.numerator, f.denominator)
        assert again == f


def test_random_ratfun_over_f2_keeps_its_degrees(rng):
    # over F_2 the helper's leading choices 2 and -2 reduce to 0; it must
    # draw again instead of building a zero denominator
    field = PrimeField(2)
    for _ in range(30):
        num_degree, den_degree = rng.randint(0, 3), rng.randint(1, 3)
        f = random_ratfun(rng, field, num_degree, den_degree)
        assert (f.numerator.degree, f.denominator.degree) == (num_degree, den_degree)


def test_monic_denominator_normalization():
    f = RatFun(qpoly(0, 1), qpoly(0, 0, 2))
    assert f.denominator.lc == Fraction(1)
    assert f.numerator == Poly.constant(QQ, Fraction(1, 2))


def test_constant_denominator_needs_no_gcd(monkeypatch):
    def no_gcd(f, g):
        raise AssertionError(f"poly_gcd({f!r}, {g!r})")

    monkeypatch.setattr(ratfun, "poly_gcd", no_gcd)
    assert RatFun(qpoly(1, 2, 3)).numerator == qpoly(1, 2, 3)
    f = RatFun(qpoly(1, 2), qpoly(4))
    assert (f.numerator, f.denominator) == (qpoly(Fraction(1, 4), Fraction(1, 2)),
                                            Poly.one(QQ))
    f = parse_expression("(x^2+x+1)^3 - x/2 + 3*x^5", QQ)
    assert f.denominator == Poly.one(QQ) and f.numerator.degree == 6


def test_sum_over_a_shared_denominator_reduces():
    for f, g in ((qpoly(1, 2, 3), qpoly(Fraction(1, 2), 0, 0, 1)),
                 (fppoly(7, 1, 2, 3), fppoly(7, 4, 0, 0, 1))):
        assert RatFun(f) + RatFun(g) == RatFun(f + g)
        assert RatFun(f) - RatFun(g) == RatFun(f - g)
    den = qpoly(-1, 1)
    assert RatFun(qpoly(1), den) + RatFun(qpoly(-2, 1), den) == RatFun(qpoly(1))
    assert RatFun(qpoly(0, 1), den) - RatFun(qpoly(1), den) == RatFun(qpoly(1))


# ---------------------------------------------------------------------------
# degree and order at infinity

def test_degree_and_ord_examples():
    f, g, h = _ex_ordi()
    assert f.degree == 16
    assert (g.ord_infinity, h.ord_infinity) == (3, 2)
    assert f.ord_infinity == -8
    assert RatFun(qpoly(1, 4, 6, 4, 1), qpoly(0, 0, 0, 1)).degree == 4
    assert RatFun.constant(QQ, 5).degree == 0
    assert RatFun.constant(QQ, 5).ord_infinity == 0
    assert RatFun(Poly.x(QQ)).ord_infinity == -1


def test_ord_bounded_by_degree(rng):
    for _ in range(30):
        f = random_ratfun(rng, QQ, rng.randint(0, 5), rng.randint(0, 5))
        if f.is_zero or f.is_constant:
            continue
        assert abs(f.ord_infinity) <= f.degree


def test_ord_invariant_under_common_factors(rng):
    for _ in range(25):
        f = random_ratfun(rng, QQ, rng.randint(1, 4), rng.randint(0, 4))
        w = random_poly(rng, QQ, rng.randint(1, 3))
        c = QQ(rng.choice([2, 3, -5]))
        blown_num = f.numerator.scale(c) * w
        blown_den = f.denominator.scale(c) * w
        assert RatFun(blown_num, blown_den) == f


def test_zero_function_has_no_degree():
    zero = RatFun(Poly.zero(QQ), Poly.one(QQ))
    with pytest.raises(PreconditionError):
        zero.degree
    with pytest.raises(PreconditionError):
        zero.ord_infinity


# ---------------------------------------------------------------------------
# derivative

def test_derivative_worked_example():
    f = RatFun(qpoly(1, 4, 6, 4, 1), qpoly(0, 0, 0, 1))
    d = f.derivative()
    assert d.numerator == qpoly(1, 1) ** 3 * qpoly(-3, 1)
    assert d.denominator == qpoly(0, 0, 0, 0, 1)


def test_derivative_polynomial():
    assert RatFun(qpoly(0, 0, 1)).derivative() == RatFun(qpoly(0, 2))


def test_derivative_by_hand():
    # quotient rule on (x^2+1)/(x^4+1), reduced form computed by hand
    f = RatFun(qpoly(1, 0, 1), qpoly(1, 0, 0, 0, 1))
    d = f.derivative()
    assert d.numerator == qpoly(0, 2, 0, -4, 0, -2)
    assert d.denominator == qpoly(1, 0, 0, 0, 2, 0, 0, 0, 1)


def test_ord_of_derivative_char0(rng):
    # -ord f' = (-ord f) - 1 whenever ord f != 0
    count = 0
    while count < 40:
        f = random_ratfun(rng, QQ, rng.randint(0, 4), rng.randint(0, 4))
        if f.is_zero or f.is_constant or f.ord_infinity == 0:
            continue
        count += 1
        assert -f.derivative().ord_infinity == -f.ord_infinity - 1


def test_ord_of_derivative_mod_p(rng):
    # asserted only when p does not divide ord f (the top coefficient of the
    # derivative's numerator is a multiple of ord f)
    p = 5
    field = PrimeField(p)
    count = 0
    while count < 40:
        f = random_ratfun(rng, field, rng.randint(0, 4), rng.randint(0, 4))
        if f.is_zero or f.is_constant or f.ord_infinity % p == 0:
            continue
        if f.derivative().is_zero:
            continue
        count += 1
        assert -f.derivative().ord_infinity == -f.ord_infinity - 1


# ---------------------------------------------------------------------------
# composition

def test_compose_reproduces_worked_example():
    f, g, h = _ex_ordi()
    target_num = qpoly(1, 0, 0, 0, 1) ** 3 * qpoly(2, 0, 1, 0, 1)
    target_den = qpoly(1, 0, 1) ** 4
    assert f == RatFun(target_num, target_den)
    big_g = RatFun(qpoly(0, 0, 0, 1, 1))
    big_h = RatFun(qpoly(1, 0, 0, 0, 1), qpoly(1, 0, 1))
    assert rat_compose(big_g, big_h) == f


def test_compose_monomials():
    assert rat_compose(RatFun(qpoly(0, 0, 1)), RatFun(qpoly(0, 0, 0, 1))) \
        == RatFun(qpoly(0, 0, 0, 0, 0, 0, 1))


def test_compose_degree_multiplicative(rng):
    count = 0
    while count < 30:
        g = random_ratfun(rng, QQ, rng.randint(0, 3), rng.randint(0, 3))
        h = random_ratfun(rng, QQ, rng.randint(0, 3), rng.randint(0, 3))
        if g.is_zero or h.is_zero or g.is_constant or h.is_constant:
            continue
        count += 1
        assert rat_compose(g, h).degree == g.degree * h.degree


def test_compose_rejects_constant_right_factor():
    with pytest.raises(PreconditionError):
        rat_compose(RatFun(qpoly(0, 1)), RatFun.constant(QQ, 3))


def test_negative_ord_composition_law(rng):
    # -ord(g o h) = ord g * ord h whenever ord h < 0
    count = 0
    while count < 40:
        g = random_ratfun(rng, QQ, rng.randint(1, 3), rng.randint(0, 3))
        dh1 = rng.randint(1, 3)
        h = random_ratfun(rng, QQ, dh1, rng.randint(0, dh1 - 1))
        if g.is_zero or g.is_constant or h.is_constant:
            continue
        assert h.ord_infinity < 0
        count += 1
        f = rat_compose(g, h)
        assert -f.ord_infinity == g.ord_infinity * h.ord_infinity


# ---------------------------------------------------------------------------
# unit inversion and right-factor normalization

def mobius_inverse(u):
    """The compositional inverse (d x - b)/(a - c x) of a degree-1
    u = (a x + b)/(c x + d)."""
    if u.degree != 1:
        raise PreconditionError("only degree-1 functions invert under composition")
    (b, a), (d, c) = ((part.coeff(0), part.coeff(1)) for part in (u.numerator, u.denominator))
    return RatFun(Poly(u.field, (-b, d)), Poly(u.field, (a, -c)))


def test_mobius_inverse_round_trip(rng):
    for field in (QQ, PrimeField(7)):
        x = RatFun(Poly.x(field))
        count = 0
        while count < 25:
            u = random_ratfun(rng, field, rng.randint(0, 1), rng.randint(0, 1))
            if u.is_zero or u.is_constant:
                continue
            count += 1
            v = mobius_inverse(u)
            assert rat_compose(u, v) == x
            assert rat_compose(v, u) == x


def test_mobius_inverse_rejects_higher_degree():
    with pytest.raises(PreconditionError):
        mobius_inverse(RatFun(qpoly(0, 0, 1)))


def test_normalize_right_factor_worked_example():
    f, g, h = _ex_ordi()
    big_g, big_h = normalize_right_factor(g, h)
    assert big_g == RatFun(qpoly(0, 0, 0, 1, 1))             # x^4 + x^3
    assert big_h == RatFun(qpoly(1, 0, 0, 0, 1), qpoly(1, 0, 1))
    assert (big_g.ord_infinity, big_h.ord_infinity) == (-4, -2)
    assert rat_compose(big_g, big_h) == f


def test_normalize_right_factor_identity_when_negative():
    g = RatFun(qpoly(1, 1), qpoly(0, 0, 0, 0, 1))
    h = RatFun(qpoly(1, 0, 0, 0, 1), qpoly(1, 0, 1))  # ord -2 already
    assert normalize_right_factor(g, h) == (g, h)


def test_normalize_right_factor_nonzero_quotient():
    # h1 = 1 * h2 + x, so a = 1 and H = (x^2+1)/x with ord -1
    g = RatFun(qpoly(0, 0, 1))
    h = RatFun(qpoly(1, 1, 1), qpoly(1, 0, 1))
    big_g, big_h = normalize_right_factor(g, h)
    assert big_h == RatFun(qpoly(1, 0, 1), qpoly(0, 1))
    assert big_h.ord_infinity == -1
    assert rat_compose(big_g, big_h) == rat_compose(g, h)


def test_normalize_right_factor_random(rng):
    count = 0
    while count < 25:
        g = random_ratfun(rng, QQ, rng.randint(1, 3), rng.randint(0, 3))
        h = random_ratfun(rng, QQ, rng.randint(1, 3), rng.randint(0, 3))
        if g.is_zero or g.is_constant or h.is_constant or h.is_zero:
            continue
        count += 1
        big_g, big_h = normalize_right_factor(g, h)
        assert big_h.ord_infinity < 0
        assert rat_compose(big_g, big_h) == rat_compose(g, h)
