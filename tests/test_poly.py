import random
from fractions import Fraction
from math import gcd, prod

import pytest
import sympy
from hypothesis import assume, example, given, strategies as st

from ratprime import _intpoly, squarefree
from ratprime import (NEG_INF, Poly, PreconditionError, PrimeField, QQ, RatFun,
                      discriminant, poly_compose, poly_divmod, poly_exact_div, poly_gcd,
                      rat_compose, resultant, squarefree_decompose)
from conftest import (TOP_PRIME, field_of, fppoly, from_sympy, qpoly, random_poly,
                      sylvester_resultant, sympy_fraction, sympy_homogenized, to_sympy, untimed,
                      valency)


# ---------------------------------------------------------------------------
# canonical form and degree sentinel

def test_trailing_zeros_are_stripped():
    assert Poly(QQ, (1, 2, 0, 0)).coeffs == (Fraction(1), Fraction(2))


def test_foreign_coefficients_are_converted():
    # 1/2 is 3 in F_5, as a coefficient, a scale factor, a shift, a base
    # point and an argument alike; a denominator divisible by p has no image
    f5 = PrimeField(5)
    half = Fraction(1, 2)
    assert Poly(f5, [half, 1]) == Poly(f5, [3, 1])
    f = Poly(f5, [1, 2, 0, 1])
    assert f.scale(half) == f.scale(3)
    assert f.taylor_shift(half) == f.taylor_shift(3)
    assert valency(f, half) == valency(f, 3)
    assert f(half) == f(3)
    assert RatFun(f)(half) == RatFun(f)(3)
    with pytest.raises(ZeroDivisionError):
        Poly(f5, [Fraction(1, 5), 1])


def test_zero_polynomial_degree_sentinel():
    z = Poly.zero(QQ)
    assert z.degree == NEG_INF
    assert z.degree < 0
    assert not z


# ---------------------------------------------------------------------------
# sums, differences and scalings

def test_sum_trims_cancelled_leading_terms():
    x3_plus_x = qpoly(0, 1, 0, 1)
    assert x3_plus_x - qpoly(0, 0, 0, 1) == qpoly(0, 1)
    assert (x3_plus_x - qpoly(0, 0, 0, 1)).degree == 1
    assert x3_plus_x + qpoly(0, -1, 0, -1) == Poly.zero(QQ)
    assert qpoly(0, 0, 0, 1) - x3_plus_x == qpoly(0, -1)  # the longer side subtracted


def test_sum_wraps_around_mod_p():
    assert fppoly(5, 4, 3, 1) + fppoly(5, 3, 2, 4) == fppoly(5, 2)
    assert fppoly(5, 1, 1) - fppoly(5, 3, 1) == fppoly(5, 3)
    assert fppoly(5, 1) - fppoly(5, 2, 0, 4) == fppoly(5, 4, 0, 1)
    assert fppoly(7, 0, 2, 0, 3).scale(4) == fppoly(7, 0, 1, 0, 5)
    assert fppoly(7, 0, 2, 0, 3).scale(7) == Poly.zero(PrimeField(7))


def test_sum_and_scale_with_zero_operands():
    for field in (QQ, PrimeField(5)):
        f, zero = Poly(field, (1, 0, 2)), Poly.zero(field)
        assert f + zero == zero + f == f - zero == f
        assert zero - f == -f
        assert f - f == zero + zero == zero - zero == zero
        assert f.scale(0) == zero.scale(3) == zero
        assert f.scale(1) == f


@st.composite
def _scaled_pair(draw):
    p, a, b = draw(_kernel_pair())
    scalar = st.integers(-2 * p, 2 * p) if p else st.fractions(-9, 9, max_denominator=9)
    return p, a, b, draw(scalar)


@untimed
@given(_scaled_pair())
def test_sum_difference_scale_match_sympy(case):
    p, a, b, s = case
    field = field_of(p)
    f, g = Poly(field, a), Poly(field, b)
    fs, gs = to_sympy(p, a), to_sympy(p, b)
    assert f + g == from_sympy(p, fs + gs)
    assert f - g == from_sympy(p, fs - gs)
    assert g - f == from_sympy(p, gs - fs)
    assert f.scale(s) == from_sympy(p, fs * to_sympy(p, [s]))


# ---------------------------------------------------------------------------
# division

def test_divmod_low_degree_dividend():
    # quotient 0, remainder the dividend itself
    q, r = poly_divmod(qpoly(1, 0, 1), qpoly(1, 0, 0, 0, 1))
    assert q.is_zero and r == qpoly(1, 0, 1)


def test_divmod_exact():
    q, r = poly_divmod(qpoly(-1, 0, 1), qpoly(-1, 1))
    assert q == qpoly(1, 1) and r.is_zero


def test_divmod_mod3():
    # long division by hand over F_3: x^3 + x = x * x^2 + x
    f, g = fppoly(3, 0, 1, 0, 1), fppoly(3, 0, 0, 1)
    q, r = poly_divmod(f, g)
    assert q == fppoly(3, 0, 1) and r == fppoly(3, 0, 1)
    assert q * g + r == f


def test_divmod_by_zero_rejected():
    with pytest.raises(PreconditionError):
        poly_divmod(qpoly(1, 1), Poly.zero(QQ))


def test_exact_div_over_q():
    # the divisor x/2 - 1/2 is neither integral nor primitive once cleared
    half = Fraction(1, 2)
    assert poly_exact_div(qpoly(-1, 0, 1), qpoly(-half, half)) == qpoly(2, 2)
    assert poly_exact_div(qpoly(-1, 0, 1), qpoly(-3, 3)) == qpoly(Fraction(1, 3), Fraction(1, 3))
    assert poly_exact_div(Poly.zero(QQ), qpoly(1, 1)).is_zero
    # x / (2x + 1): the first step does not divide by lc = 2, and nothing
    # is left in the remainder to show it
    for f, g in ((qpoly(1, 0, 1), qpoly(1, 1)), (qpoly(1, 1), qpoly(1, 0, 1)),
                 (qpoly(2, 1), qpoly(Fraction(1, 3), 1)), (qpoly(0, 1), qpoly(1, 2))):
        with pytest.raises(PreconditionError):
            poly_exact_div(f, g)
    with pytest.raises(PreconditionError):
        poly_exact_div(qpoly(1, 1), Poly.zero(QQ))


@pytest.mark.parametrize("p", [5, 2**31 - 1])
def test_exact_div_over_fp(p):
    field = PrimeField(p)
    u, w = Poly(field, [3, 1, 4]), Poly(field, [p - 2, 0, 1])
    assert poly_exact_div(u * w, w) == u
    assert poly_exact_div(Poly.zero(field), w).is_zero
    for f, g in ((u * w + Poly.one(field), w), (Poly(field, [1, 1]), w),
                 (w, Poly(field, [1, 0, 0, 1]))):
        with pytest.raises(PreconditionError, match="inexact polynomial division"):
            poly_exact_div(f, g)
    with pytest.raises(PreconditionError, match="zero polynomial"):
        poly_exact_div(u, Poly.zero(field))


def test_exact_div_over_q_matches_divmod(rng):
    def draw(degree):
        return Poly(QQ, [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                         for _ in range(degree)] + [Fraction(rng.choice([-3, 1, 5]), 7)])

    for _ in range(50):
        u, w = draw(rng.randint(0, 5)), draw(rng.randint(0, 4))
        assert poly_exact_div(u * w, w) == u == poly_divmod(u * w, w)[0]
        if w.degree:
            with pytest.raises(PreconditionError):
                poly_exact_div(u * w + Poly.one(QQ), w)


def test_operations_reject_mixed_fields():
    from ratprime.errors import FieldMismatchError
    with pytest.raises(FieldMismatchError):
        poly_divmod(qpoly(1, 1), fppoly(5, 1, 1))
    with pytest.raises(FieldMismatchError):
        poly_compose(qpoly(1, 1), fppoly(5, 1, 1))


def test_division_identity_random(rng):
    for field in (QQ, PrimeField(5)):
        for _ in range(60):
            f = random_poly(rng, field, rng.randint(0, 7))
            g = random_poly(rng, field, rng.randint(0, 4))
            q, r = poly_divmod(f, g)
            assert q * g + r == f
            assert r.is_zero or r.degree < g.degree


# ---------------------------------------------------------------------------
# gcd

def test_gcd_examples():
    assert poly_gcd(qpoly(-1, 0, 1), qpoly(-1, 1)) == qpoly(-1, 1)
    assert poly_gcd(qpoly(1, 4, 6, 4, 1), qpoly(0, 0, 0, 1)) == Poly.one(QQ)
    # roots {0, 1} of x^2 - x lie in F_5, so it divides x^5 - x
    assert poly_gcd(fppoly(5, 0, -1, 0, 0, 0, 1), fppoly(5, 0, -1, 1)) \
        == fppoly(5, 0, 4, 1)


def test_gcd_of_zeros_rejected():
    with pytest.raises(PreconditionError):
        poly_gcd(Poly.zero(QQ), Poly.zero(QQ))


def test_gcd_symmetry_and_divisibility(rng):
    for field in (QQ, PrimeField(7)):
        for _ in range(40):
            w = random_poly(rng, field, rng.randint(0, 2))
            f = random_poly(rng, field, rng.randint(0, 3)) * w
            g = random_poly(rng, field, rng.randint(0, 3)) * w
            if f.is_zero and g.is_zero:
                continue
            d = poly_gcd(f, g)
            assert d == poly_gcd(g, f)
            assert d.lc == field.one
            for h in (f, g):
                if not h.is_zero:
                    assert poly_divmod(h, d)[1].is_zero
            # any common divisor divides the gcd
            if not w.is_zero and w.degree >= 1:
                assert poly_divmod(d, w.monic())[1].is_zero


# ---------------------------------------------------------------------------
# the modular exit of the Q gcd: coprime images mod the word prime q prove
# gcd 1 over Q; images that share a factor, and a leading coefficient that q
# divides (an image of lower degree), must fall through to the primitive PRS

_Q = _intpoly.EXIT_PRIME


def _root(r):
    return qpoly(-r, 1)


def _exit_cases():
    """(f, g, gcd) over Q."""
    one = Poly.one(QQ)
    drops = qpoly(1, _Q) * qpoly(2, 1)  # (q x + 1)(x + 2): degree drops mod q
    return [
        # coprime over Q, one shared root mod q
        (_root(3), _root(3 + _Q), one),
        (_root(3), _root(3 - 5 * _Q), one),
        (_root(3) * _root(-5), _root(3 + _Q) * _root(7), one),
        (_root(3) * _root(-5), _root(3 + 2 * _Q) * _root(-5 + _Q), one),
        (qpoly(1, 0, 1), qpoly(1, _Q, 1), one),
        # q divides a leading coefficient, as an integer and after clearing
        (drops, qpoly(1, _Q) * qpoly(3, 1), qpoly(Fraction(1, _Q), 1)),
        (qpoly(Fraction(1, _Q), 1) * qpoly(2, 1), qpoly(Fraction(1, _Q), 1) * qpoly(3, 1),
         qpoly(Fraction(1, _Q), 1)),
        (drops, qpoly(Fraction(1, _Q), 1) * qpoly(3, 1), qpoly(Fraction(1, _Q), 1)),
        (qpoly(1, _Q), qpoly(2, 1), one),
        (qpoly(1, 2 * _Q, 0, _Q), qpoly(5, 1), one),
        # gcds that are not 1, with and without extra shared roots mod q
        (_root(3) * _root(-5), _root(3) * _root(-5 + _Q), _root(3)),
        (_root(1) ** 2 * _root(2), _root(1) * _root(2) ** 3, _root(1) * _root(2)),
        (drops * _root(4), drops * _root(4 + _Q), drops.monic()),
    ]


def _sympy_gcd(f, g):
    return from_sympy(0, to_sympy(0, f.coeffs).gcd(to_sympy(0, g.coeffs))).monic()


def test_q_gcd_exit_is_exact():
    for f, g, d in _exit_cases():
        assert poly_gcd(f, g) == poly_gcd(g, f) == d == _sympy_gcd(f, g)
        prs = _intpoly.prs_gcd(_intpoly._clear(f.coeffs)[0], _intpoly._clear(g.coeffs)[0])
        assert d == Poly(QQ, prs).monic()


def test_int_gcd_is_primitive_with_a_positive_leading_coefficient():
    for a, b, d in (([], [-2, -4], [1, 2]), ([-6, 0, 3], [], [-2, 0, 1]),
                    ([2, 2], [-3, -3], [1, 1]), ([-1, 0, 1], [4, -4], [-1, 1]),
                    ([1, 1], [1, 2], [1])):
        assert _intpoly.int_gcd(a, b) == _intpoly.int_gcd(b, a) == d


@st.composite
def _near_q_triple(draw):
    """Integer or Fraction lists u, v, w with entries that vanish or agree
    mod q, including leading coefficients."""
    coeff = st.one_of(st.integers(-3, 3),
                      st.sampled_from([_Q, -_Q, 2 * _Q, _Q + 1, 1 - _Q, Fraction(1, _Q),
                                       Fraction(2, _Q), Fraction(_Q, 3)]))
    lists = st.lists(coeff, min_size=1, max_size=4)
    return draw(lists), draw(lists), draw(lists)


@untimed
@given(_near_q_triple())
def test_q_gcd_near_q_matches_sympy(case):
    u, v, w = (Poly(QQ, c) for c in case)
    f, g = u * w, v * w
    assume(f or g)
    assert poly_gcd(f, g) == _sympy_gcd(f, g)


def test_squarefree_q_needs_no_prs_gcd(monkeypatch):
    # gcd(f, f') of a squarefree f is decided by the exit alone
    calls = []
    prs_gcd = _intpoly.prs_gcd
    monkeypatch.setattr(_intpoly, "prs_gcd", lambda f, g: calls.append(1) or prs_gcd(f, g))
    for f in (qpoly(5, 2, 0, 1), qpoly(1, -1, 0, 0, 0, 1),
              qpoly(Fraction(1, 3), 0, 7, 0, 0, 0, 0, -2)):
        assert squarefree_decompose(f).parts == ((f.monic(), 1),)
    assert calls == []
    assert squarefree_decompose(qpoly(1, 1) ** 3).parts == ((qpoly(1, 1), 3),)
    assert calls


def test_yun_divides_by_no_gcd_of_1(monkeypatch):
    # a squarefree f has gcd(f, f') = 1 and needs no exact division; g^2
    # divides f and f' by g, and its multiplicity-1 gcd of 1 divides nothing
    calls = []
    for name in ("mod_exact_div", "int_exact_div"):
        monkeypatch.setattr(squarefree, name, lambda *args, real=getattr(squarefree, name), **kw:
                            calls.append(1) or real(*args, **kw))
    for f in (fppoly(7, 3, 1, 0, 0, 0, 1), fppoly(2**31 - 1, *range(1, 22)),
              qpoly(5, 2, 0, 1)):
        assert squarefree_decompose(f).parts == ((f.monic(), 1),)
    assert calls == []
    for g in (fppoly(7, 3, 1, 1), qpoly(1, 0, 2)):
        assert squarefree_decompose(g * g).parts == ((g.monic(), 2),)
        assert len(calls) == 2
        calls.clear()


def test_squarefree_takes_musser_only_when_p_is_at_most_the_degree(monkeypatch):
    # Yun's loop needs every multiplicity below p; (x+1)^4 (x+2)^2 over F_3
    # has degree 6 >= 3, and its leftover cube root x + 1 has degree 1 < 3
    degrees = []
    musser = squarefree._musser
    monkeypatch.setattr(squarefree, "_musser",
                        lambda f, p: degrees.append(len(f) - 1) or musser(f, p))
    for p in (0, 3, 7, 101):
        field = field_of(p)
        f = Poly(field, (1, 1)) ** 4 * Poly(field, (2, 1)) ** 2
        assert squarefree_decompose(f).parts == ((Poly(field, (2, 1)), 2),
                                                 (Poly(field, (1, 1)), 4))
        assert degrees == ([6] if p == 3 else [])
        degrees.clear()


# ---------------------------------------------------------------------------
# product, division and gcd against sympy, over Q (p = 0, Fraction
# coefficients) and over small and word-size p

# over Q the kernel clears denominators, so the draws mix ints with small
# Fractions and with Fractions over large coprime denominators (a large lcm)
_Q_COEFF = st.one_of(st.fractions(-9, 9, max_denominator=9), st.integers(-9, 9),
                     st.builds(Fraction, st.integers(-10**6, 10**6),
                               st.sampled_from([999_983, 1_000_003, 2**31 - 1, 2**61 - 1])))


@st.composite
def _kernel_pair(draw):
    p = draw(st.sampled_from([0, 2, 3, 7, 13, 1_000_003, 2**31 - 1, TOP_PRIME]))
    coeff = _Q_COEFF if p == 0 else st.integers(0, p - 1)
    coeffs = st.lists(coeff, max_size=9)
    return p, draw(coeffs), draw(coeffs)


@untimed
@given(_kernel_pair())
def test_fp_product_matches_sympy(case):
    p, a, b = case
    field = field_of(p)
    product = from_sympy(p, to_sympy(p, a) * to_sympy(p, b))
    assert Poly(field, a) * Poly(field, b) == product
    # the kernel itself on the drawn lists, ints and Fractions mixed at p = 0
    raw = _intpoly.mod_mul(_intpoly.trim(list(a)), _intpoly.trim(list(b)), p)
    assert Poly(field, raw) == product
    assert all(_is_residue(c, p) for c in raw)


def test_q_products_are_fractions():
    # p = 0 products are Fractions even from int lists such as the [[1]]
    # powers the left-factor solver starts from
    for a, b, ab in (([1], [1], [1]), ([2, 0, -1], [3], [6, 0, -3]),
                     ([1], [Fraction(1, 2), 3], [Fraction(1, 2), 3]),
                     ([Fraction(1, 3), 2], [Fraction(3, 2), 1],
                      [Fraction(1, 2), Fraction(10, 3), 2])):
        product = _intpoly.mod_mul(a, b, 0)
        assert product == ab
        assert all(type(c) is Fraction for c in product)


# deg f = deg g + 1 at every width of p: every residue p - 1, where the
# quotient is x, and g = -(x^3 + x + 1), lc(g) = p - 1, where it is x + 1
# and a remainder entry goes negative before its final reduction
@untimed
@example((2, [1] * 5, [1] * 4))
@example((2, [1] * 5, [1, 1, 0, 1]))
@example((3, [2] * 5, [2] * 4))
@example((3, [2] * 5, [2, 2, 0, 2]))
@example((1_000_003, [1_000_002] * 5, [1_000_002] * 4))
@example((1_000_003, [1_000_002] * 5, [1_000_002, 1_000_002, 0, 1_000_002]))
@example((2**31 - 1, [2**31 - 2] * 5, [2**31 - 2] * 4))
@example((2**31 - 1, [2**31 - 2] * 5, [2**31 - 2, 2**31 - 2, 0, 2**31 - 2]))
@example((TOP_PRIME, [TOP_PRIME - 1] * 5, [TOP_PRIME - 1] * 4))
@example((TOP_PRIME, [TOP_PRIME - 1] * 5, [TOP_PRIME - 1, TOP_PRIME - 1, 0, TOP_PRIME - 1]))
@given(_kernel_pair())
def test_fp_divmod_matches_sympy(case):
    p, a, b = case
    field = field_of(p)
    f, g = Poly(field, a), Poly(field, b)
    if g.is_zero:
        return
    q, r = poly_divmod(f, g)
    assert q * g + r == f
    assert r.is_zero or r.degree < g.degree
    sq, sr = to_sympy(p, a).div(to_sympy(p, b))
    assert (q, r) == (from_sympy(p, sq), from_sympy(p, sr))


@untimed
@given(_kernel_pair())
def test_fp_gcd_matches_sympy(case):
    p, a, b = case
    field = field_of(p)
    f, g = Poly(field, a), Poly(field, b)
    if f.is_zero and g.is_zero:
        return
    d = poly_gcd(f, g)
    assert d.lc == field.one
    assert poly_divmod(f, d)[1].is_zero and poly_divmod(g, d)[1].is_zero
    assert d == from_sympy(p, to_sympy(p, a).gcd(to_sympy(p, b))).monic()


_EUCLID_PRIMES = (2, 3, 5, 1_000_003, 2**31 - 1, 2**61 - 1, TOP_PRIME)


def _gcd_cases(rng, p):
    """(a, b, d, exact) operand pairs of 9 to 80 coefficients, where d is
    gcd(a, b) when `exact` and a divisor of it otherwise."""
    def poly(n):  # n coefficients, the top one nonzero
        return [rng.randrange(p) for _ in range(n - 1)] + [rng.randrange(1, p)]

    mul = _intpoly.mod_mul
    cases = []
    for degree in (0, 1, 7, 30):  # a common factor of known degree
        h = _intpoly.mod_gcd(poly(degree + 1), [], p)
        cases.append((mul(h, poly(rng.randint(9, 50)), p), mul(h, poly(rng.randint(9, 50)), p),
                      h, False))
    for n, m in ((9, 9), (80, 9), (60, 45), (64, 64)):
        # (x^n - 1)/(x - 1) and (x^m - 1)/(x - 1) times p - 1: the gcd is
        # (x^g - 1)/(x - 1), g = gcd(n, m), and the remainders drop degrees
        cases.append(([p - 1] * n, [p - 1] * m, [1] * gcd(n, m), True))
    for drop in (2, 3, 12):  # a = q*b + r with deg r = deg b - drop
        b = poly(rng.randint(drop + 9, 40))
        a = _intpoly.mod_add(mul(b, poly(rng.randint(1, 30)), p), poly(len(b) - drop), p)
        cases.append((a, b, [1], False))
    sparse = [[1 if rng.random() < 0.2 else 0 for _ in range(n)] + [1] for n in (40, 70)]
    cases.append((*sparse, [1], False))
    return cases


@pytest.mark.parametrize("p", _EUCLID_PRIMES)
def test_packed_gcd_matches_the_list_loop(rng, p, monkeypatch):
    # operands of more than PACKED_GCD_ABOVE coefficients take the packed
    # Euclid; the list loop, taken when the bound is raised, is the reference
    cases = _gcd_cases(rng, p)
    packed = [_intpoly.mod_gcd(list(a), list(b), p) for a, b, _, _ in cases]
    calls = []
    euclid = _intpoly._packed_euclid
    monkeypatch.setattr(_intpoly, "_packed_euclid", lambda *args: calls.append(1) or euclid(*args))
    assert [_intpoly.mod_gcd(list(b), list(a), p) for a, b, _, _ in cases] == packed
    assert len(calls) == len(cases)
    monkeypatch.setattr(_intpoly, "PACKED_GCD_ABOVE", 10**9)
    for (a, b, d, exact), got in zip(cases, packed):
        assert _intpoly.mod_gcd(list(a), list(b), p) == got
        assert got == d if exact else not _intpoly.mod_divmod(got, d, p)[1]
    assert len(calls) == len(cases)
    a, b, _, _ = cases[3]  # sympy on a sample: a common factor of degree 30
    assert Poly(field_of(p), packed[3]) == from_sympy(p, to_sympy(p, a).gcd(to_sympy(p, b))).monic()


@pytest.mark.parametrize("p", _EUCLID_PRIMES)
def test_packed_remainder_at_the_slot_bounds(p):
    # f's low slots 0 against g's 2p - 1 with q0 = q1 = p - 1: a slot loses
    # 2(p - 1)(2p - 1), just under K = 4p^2; f's low slots 2p - 1 against
    # g's 0: a slot holds 4p^2 + 2p - 1.  g is monic mod p in the slot value
    # p + 1, and the cofactors hold 2p - 1 in every slot
    for n in (2, 3, 9, 40, 80):
        k, rem = _intpoly._packed_euclid(p, n + 1)
        for low_f, low_g in ((0, 2 * p - 1), (2 * p - 1, 0)):
            g = [low_g] * (n - 1) + [p + 1]
            f = [low_f] * (n - 1) + [(p - 1) * (1 + low_g) % p, p - 1]
            s0, s1 = [2 * p - 1] * (n - 1), [2 * p - 1] * n
            fp, gp, s0p, s1p = (_intpoly._pack(x, k) for x in (f, g, s0, s1))
            r, dr, s = rem(fp, n, gp, n - 1, s0p, s1p)
            q, want = _intpoly.mod_divmod([x % p for x in f], [x % p for x in g], p)
            assert q == [p - 1, p - 1]
            qs1 = _intpoly.mod_mul(q, [x % p for x in s1], p)
            cofactor = _intpoly.mod_sub([x % p for x in s0], qs1, p)
            for packed, count, residues in ((r, dr + 1, want), (s, len(cofactor), cofactor)):
                slots = _intpoly._unpack(packed, k, 0, count, 1 << 8 * k)
                assert max(slots, default=0) < 2 * p
                assert [x % p for x in slots] == residues


# ---------------------------------------------------------------------------
# powers: square only while bits of the exponent remain

def test_pow_multiplies_once_per_bit(monkeypatch):
    f = qpoly(1, 1)
    expected = [Poly.one(QQ)]
    for _ in range(13):
        expected.append(expected[-1] * f)
    # every product of the kernel, in both fields, is one `int_mul`
    calls = []
    int_mul = _intpoly.int_mul
    monkeypatch.setattr(_intpoly, "int_mul", lambda a, b: calls.append(1) or int_mul(a, b))
    for n in (0, 1, 2, 5, 8, 13):
        calls.clear()
        assert f ** n == expected[n]
        # one squaring per bit below the top one, one product per further
        # set bit: never a product by 1
        assert len(calls) == max(n.bit_length() - 1, 0) + max(bin(n).count("1") - 1, 0)


def test_monomial_pow_takes_no_products(monkeypatch):
    # (c*x^d)^n is c^n*x^(d*n), built without squarings
    monomials = (qpoly(0, 0, Fraction(-2, 3)), fppoly(7, 0, 0, 0, 3), qpoly(5), fppoly(3, 1))
    expected = []
    for f in monomials:
        powers = [Poly.one(f.field)]
        for _ in range(6):
            powers.append(powers[-1] * f)
        expected.append(powers)
    # every product of the kernel, in both fields, is one `int_mul`
    calls = []
    int_mul = _intpoly.int_mul
    monkeypatch.setattr(_intpoly, "int_mul", lambda a, b: calls.append(1) or int_mul(a, b))
    for f, powers in zip(monomials, expected):
        assert [f ** n for n in range(7)] == powers
    assert calls == []
    assert Poly.zero(QQ) ** 0 == Poly.one(QQ)
    assert Poly.zero(QQ) ** 3 == Poly.zero(QQ)


# ---------------------------------------------------------------------------
# powering and composition (`_intpoly.mod_pow`, `mod_forms`, `mod_compose`)
# against sympy, through every entry point that uses them, over Q and over
# small and word-size p

_POW_PRIMES = [0, 2, 3, 101, 2**31 - 1]


def _coeff(p):
    return _Q_COEFF if p == 0 else st.integers(0, p - 1)


@st.composite
def _power_case(draw):
    p = draw(st.sampled_from(_POW_PRIMES))
    return p, draw(st.lists(_coeff(p), max_size=5)), draw(st.integers(0, 13))


@untimed
@given(_power_case())
@example((0, [], 0)).via("the zero polynomial to the 0th")
@example((3, [], 5)).via("the zero polynomial")
@example((2**31 - 1, [7], 13)).via("a constant")
@example((101, [1, 2, 3], 0)).via("n = 0")
@example((0, [Fraction(1, 2), 3, 1], 1)).via("n = 1")
@example((0, [0, 0, Fraction(-2, 3)], 13)).via("a monomial over Q")
@example((2**31 - 1, [0, 0, 0, 5], 13)).via("a monomial over a word-size F_p")
@example((0, [0, 1], 0)).via("x to the 0th")
def test_pow_matches_sympy(case):
    p, a, n = case
    assert Poly(field_of(p), a) ** n == from_sympy(p, to_sympy(p, a) ** n)


@untimed
@given(a=st.lists(st.fractions(-9, 9, max_denominator=9), min_size=1, max_size=5),
       e=st.integers(0, 13), keep=st.integers(1, 8))
@example(a=[Fraction(1, 7), Fraction(1, 3)], e=13, keep=3).via("denominators to the e-th")
@example(a=[Fraction(2, 3)], e=0, keep=1).via("e = 0")
def test_mod_pow_over_q_matches_sympy_under_truncation(a, e, keep):
    # over Q, mod_pow clears a once and powers in Z; a truncation after
    # `keep` terms commutes with that scaling, so every truncated product
    # leaves the truncated power
    got = _intpoly.mod_pow(a, e, 0, lambda b: b[:keep])
    assert all(type(c) is Fraction for c in got)
    want = [sympy_fraction(c) for c in reversed((to_sympy(0, a) ** e).all_coeffs())]
    pad = [0] * keep
    assert (got + pad)[:keep] == (want + pad)[:keep]


@st.composite
def _compose_case(draw):
    p = draw(st.sampled_from(_POW_PRIMES))
    coeffs = st.lists(_coeff(p), max_size=5)
    return p, draw(coeffs), draw(coeffs), draw(_coeff(p))


@untimed
@given(_compose_case())
@example((0, [], [1, 2], Fraction(1, 3))).via("a zero g")
@example((101, [5], [1, 2], 7)).via("a constant g")
@example((3, [1, 2, 1], [], 0)).via("a zero h")
@example((2**31 - 1, [1, 2, 1], [9], 2**31 - 2)).via("a constant h")
def test_compose_and_taylor_shift_match_sympy(case):
    p, g, h, s = case
    field = field_of(p)
    gs = to_sympy(p, g)
    assert poly_compose(Poly(field, g), Poly(field, h)) == from_sympy(p, gs.compose(to_sympy(p, h)))
    shift = gs.shift(s if p else sympy.Rational(s.numerator, s.denominator))
    assert Poly(field, g).taylor_shift(s) == from_sympy(p, shift)


@st.composite
def _rat_compose_case(draw):
    p = draw(st.sampled_from(_POW_PRIMES))
    coeffs = st.lists(_coeff(p), max_size=4)
    return p, draw(coeffs), draw(coeffs), draw(coeffs), draw(coeffs)


@untimed
@given(_rat_compose_case())
@example((0, [Fraction(3, 2)], [1], [1, 1], [0, 1])).via("a constant g")
@example((101, [1, 2, 3], [4, 5], [0, 1, 1], [1])).via("v = 1")
@example((3, [1, 1], [2, 0, 1], [1, 0, 1], [2, 1, 1])).via("deg u = deg v")
@example((2, [0, 1, 1], [1, 1], [1, 0, 1], [1, 1, 0, 1])).via("deg u < deg v")
def test_rat_compose_matches_sympy(case):
    # r = g(h) is checked against g(u/v) = A / B, built in sympy: r1 * B = r2 * A
    p, g1, g2, h1, h2 = case
    field = field_of(p)
    assume(any(g2) and any(h2))
    g = RatFun(Poly(field, g1), Poly(field, g2))
    h = RatFun(Poly(field, h1), Poly(field, h2))
    assume(not h.is_constant)
    r = rat_compose(g, h)
    a, b = sympy_homogenized(p, g, h)
    r1, r2 = (to_sympy(p, c.coeffs) for c in (r.numerator, r.denominator))
    assert r1 * b == r2 * a


@st.composite
def _powmod_case(draw):
    p = draw(st.sampled_from(_POW_PRIMES))
    w = draw(st.lists(_coeff(p), min_size=1, max_size=4))
    lead = draw(_coeff(p).filter(bool))
    return p, draw(st.lists(_coeff(p), max_size=6)), draw(st.integers(0, 30)), w + [lead]


@untimed
@given(_powmod_case())
@example((0, [], 3, [1, 1])).via("a zero a")
@example((101, [5], 0, [1, 0, 1])).via("e = 0")
@example((2, [1, 1], 1, [1, 1, 1])).via("e = 1")
@example((101, [0, 1], 101, [1, 1, 0, 1])).via("a monomial under a hook")
def test_powmod_matches_sympy(case):
    # `_powmod` takes a reduced a, so a is reduced mod w first
    p, a, e, w = case
    field, ws = field_of(p), to_sympy(p, w)
    reduced = to_sympy(p, a).rem(ws)
    got = squarefree._powmod(list(from_sympy(p, reduced).coeffs), e, w, p)
    assert Poly(field, got) == from_sympy(p, (reduced ** e).rem(ws))


# ---------------------------------------------------------------------------
# representation: over F_p every coefficient and scalar result is an int in
# [0, p), whatever ints (negative, or p and beyond) went in; over Q (p = 0)
# it is a Fraction, never an int the kernel computed on the way


@st.composite
def _residue_case(draw):
    p = draw(st.sampled_from([0, 2, 7, 2**31 - 1]))
    scalar = st.integers(-2 * p, 2 * p) if p else st.fractions(-9, 9, max_denominator=9)
    coeffs = st.lists(scalar, max_size=6)
    return p, draw(coeffs), draw(coeffs), draw(scalar), draw(st.integers(0, 3))


def _is_residue(c, p):
    return type(c) is int and 0 <= c < p if p else type(c) is Fraction


@untimed
@given(_residue_case())
def test_fp_results_are_residues(case):
    p, a, b, s, e = case
    field = field_of(p)
    f, g = Poly(field, a), Poly(field, b)
    polys = [f, f + g, f - g, -f, f * g, f ** e, f.scale(s), f.derivative(),
             f.taylor_shift(s), poly_compose(f, g)]
    scalars = [f.coeff(i) for i in range(-1, len(a) + 1)] + [f(s)]
    if f:
        polys.append(f.monic())
        scalars.append(f.lc)
    if g:
        polys.extend(poly_divmod(f, g))
    if f or g:
        polys.append(poly_gcd(f, g))
    if f and g and max(f.degree, g.degree) > 0:
        scalars += [resultant(f, g), sylvester_resultant(f, g)]
    if f.degree >= 1 and f.derivative():
        scalars.append(discriminant(f))
    for h in polys:
        assert all(_is_residue(c, p) for c in h.coeffs)
        assert not h.coeffs or h.coeffs[-1]
    assert all(_is_residue(c, p) for c in scalars)


# ---------------------------------------------------------------------------
# composition

def test_compose_examples():
    assert poly_compose(qpoly(0, 1, 1), qpoly(0, 0, 1)) == qpoly(0, 0, 1, 0, 1)
    h = qpoly(2, -1, 0, 3)
    assert poly_compose(Poly.x(QQ), h) == h
    assert poly_compose(qpoly(0, 0, 0, 1, 1), Poly.x(QQ)) == qpoly(0, 0, 0, 1, 1)


def test_compose_degree_law(rng):
    for field in (QQ, PrimeField(5)):
        for _ in range(40):
            g = random_poly(rng, field, rng.randint(1, 4))
            h = random_poly(rng, field, rng.randint(1, 4))
            assert poly_compose(g, h).degree == g.degree * h.degree


# ---------------------------------------------------------------------------
# squarefree decomposition

def test_squarefree_known_quartic():
    # t^3 (256 - 27 t), ascending coefficients [0, 0, 0, 256, -27]
    sf = squarefree_decompose(qpoly(0, 0, 0, 256, -27))
    assert sf.constant == Fraction(-27)
    assert sf.parts == ((qpoly(Fraction(-256, 27), 1), 1), (qpoly(0, 1), 3))


def test_squarefree_double_root():
    sf = squarefree_decompose(qpoly(1, 2, 1))
    assert sf.parts == ((qpoly(1, 1), 2),)


def test_squarefree_mod3_separable():
    # x^3 - x has derivative -1 over F_3, so it is already squarefree
    sf = squarefree_decompose(fppoly(3, 0, -1, 0, 1))
    assert sf.parts == ((fppoly(3, 0, -1, 0, 1).monic(), 1),)


def test_squarefree_perfect_power_mod3():
    sf = squarefree_decompose(fppoly(3, 0, 0, 0, 1))
    assert sf.parts == ((fppoly(3, 0, 1), 3),)


def test_squarefree_mixed_mod3():
    f = fppoly(3, 0, 0, 1) * fppoly(3, 1, 1) ** 3
    sf = squarefree_decompose(f)
    assert sf.parts == ((fppoly(3, 0, 1), 2), (fppoly(3, 1, 1), 3))


@st.composite
def _powered_factors(draw):
    """p (0 for Q) and factors of degree at most 2 with exponents up to 3p
    for p <= 7, so multiplicities p, 2p and 3p (p^2 for p = 3) all occur and
    Musser's loop runs; exponents up to 4 for p = 101 and up to 8 over Q,
    where the degree stays below p and Yun's loop runs."""
    p = draw(st.sampled_from([0, 3, 5, 7, 101]))
    coeff = st.integers(-3, 3) if p == 0 else st.integers(0, p - 1)
    top = {0: 8, 101: 4}.get(p, 3 * p)
    factor = st.tuples(st.lists(coeff, min_size=2, max_size=3), st.integers(1, top))
    return p, draw(st.lists(factor, min_size=1, max_size=3))


@untimed
@given(_powered_factors())
def test_squarefree_matches_sympy(case):
    p, factors = case
    field = field_of(p)
    f, reference = Poly.one(field), to_sympy(p, [1])
    for coeffs, e in factors:
        f = f * Poly(field, coeffs) ** e
        reference = reference * to_sympy(p, coeffs) ** e
    assume(not f.is_zero)
    sf = squarefree_decompose(f)
    constant, theirs = reference.sqf_list()
    assert sf.constant == field(sympy_fraction(constant))
    assert set(sf.parts) == {(from_sympy(p, g).monic(), m) for g, m in theirs}


def test_squarefree_reconstruction_random(rng):
    for field in (QQ, PrimeField(3)):
        for _ in range(30):
            f = Poly.constant(field, rng.choice([1, 2, -1]))
            for _ in range(rng.randint(1, 3)):
                f = f * random_poly(rng, field, rng.randint(1, 2)) ** rng.randint(1, 3)
            if f.degree < 1:
                continue
            sf = squarefree_decompose(f)
            assert prod((factor ** m for factor, m in sf.parts),
                        start=Poly.constant(field, sf.constant)) == f
            for factor, _ in sf.parts:
                assert factor.lc == field.one
                assert poly_gcd(factor, factor.derivative()).degree == 0


# ---------------------------------------------------------------------------
# valency sum (multiplicities of f' partition deg f - 1 in char 0)

def _valency_sum(f):
    return sum(mult * factor.degree
               for factor, mult in squarefree_decompose(f.derivative()).parts)


def test_valency_sum_equality_char0(rng):
    for _ in range(40):
        f = random_poly(rng, QQ, rng.randint(1, 8))
        assert _valency_sum(f) == f.degree - 1


def test_valency_sum_mod_p(rng):
    p = 5
    field = PrimeField(p)
    for _ in range(60):
        f = random_poly(rng, field, rng.randint(2, 7))
        if f.derivative().is_zero:
            continue
        total = _valency_sum(f)
        assert total <= f.degree - 1
        if f.degree % p:
            assert total == f.degree - 1


# ---------------------------------------------------------------------------
# valency at a point

def test_valency_worked_example():
    f = RatFun(qpoly(1, 4, 6, 4, 1), qpoly(0, 0, 0, 1))  # (x+1)^4 / x^3
    assert valency(f, -1) == 4
    assert valency(f, 3) == 2


def test_valency_noncritical_point():
    assert valency(qpoly(0, 0, 1), 1) == 1


def test_valency_rejects_pole():
    f = RatFun(qpoly(1, 4, 6, 4, 1), qpoly(0, 0, 0, 1))
    with pytest.raises(PreconditionError):
        valency(f, 0)


def test_valency_matches_derivative_order_char0(rng):
    # smallest i with f^(i)(a) != 0 equals the shift-based order over Q
    for _ in range(20):
        f = random_poly(rng, QQ, rng.randint(2, 5))
        a = QQ(rng.randint(-2, 2))
        deriv = f.derivative()
        order = 1
        while not deriv(a):
            deriv = deriv.derivative()
            order += 1
        assert order == valency(f, a)
