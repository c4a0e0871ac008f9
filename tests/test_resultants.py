from fractions import Fraction
from itertools import permutations, zip_longest
from math import gcd, lcm

import pytest
from hypothesis import assume, given, strategies as st

from ratprime import (DegenerateDerivativeError, Poly, PreconditionError,
                      PrimeField, QQ, RatFun, critical_values, disc_in_t, discriminant,
                      greatest_proper_divisor, interpolate, poly_compose, rat_compose,
                      rat_resultant_in_t, res_x_linear_t, resultant)
from ratprime import _intpoly, resultants
from ratprime.poly import poly_divmod, poly_exact_div, poly_gcd
from conftest import (TOP_PRIME, bareiss_determinant, field_of, fppoly, qpoly, random_poly,
                      random_ratfun, split_discriminant, sylvester_matrix,
                      sylvester_resultant, sympy_fraction, to_sympy, untimed, valency)


def _naive_det(rows):
    """Permutation-expansion determinant: the independent oracle for Bareiss."""
    n = len(rows)
    total = None
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = rows[0][perm[0]]
        for i in range(1, n):
            term = term * rows[i][perm[i]]
        term = term if sign > 0 else -term
        total = term if total is None else total + term
    return total


def _tpoly_sylvester(a: Poly, b: Poly, c: Poly) -> Poly:
    """Res_x(a(x) - t*b(x), c(x)) by Bareiss with entries in K[t]: the
    definitional reference for `res_x_linear_t`."""
    field = c.field
    n = max(len(a.coeffs), len(b.coeffs))
    # x-coefficients of a - t*b, descending; the leading one is nonzero
    cols = [Poly(field, (a.coeff(i), -b.coeff(i))) for i in reversed(range(n))]
    zero = Poly.zero(field)
    rows = sylvester_matrix(cols, [Poly.constant(field, cc) for cc in reversed(c.coeffs)],
                            zero)
    return bareiss_determinant(rows, zero, Poly.one(field), poly_exact_div)


# ---------------------------------------------------------------------------
# scalar resultants

def test_sylvester_examples():
    assert sylvester_resultant(qpoly(-2, 1), qpoly(-5, 1)) == Fraction(-3)
    assert sylvester_resultant(qpoly(-1, 0, 1), qpoly(-1, 1)) == Fraction(0)
    assert sylvester_resultant(qpoly(1, 0, 1), Poly.x(QQ)) == Fraction(1)


def test_sylvester_matrix_shape():
    rows = sylvester_matrix([1, 0, 1], [1, 0], 0)  # x^2 + 1 and x
    assert len(rows) == 3 and all(len(r) == 3 for r in rows)
    assert _naive_det(rows) == Fraction(1)


def test_bareiss_matches_naive_determinant(rng):
    for field in (QQ, PrimeField(7)):
        for _ in range(25):
            f = random_poly(rng, field, rng.randint(1, 3))
            g = random_poly(rng, field, rng.randint(1, 3))
            rows = sylvester_matrix(list(f.coeffs[::-1]), list(g.coeffs[::-1]), field.zero)
            assert sylvester_resultant(f, g) == field(_naive_det(rows))


def test_fast_resultant_agrees_with_sylvester(rng):
    # random_poly redraws a leading coefficient that vanishes mod p
    for field in (QQ, PrimeField(5), PrimeField(1_000_003), PrimeField(2**31 - 1),
                  PrimeField(2), PrimeField(3)):
        for _ in range(40):
            f = random_poly(rng, field, rng.randint(1, 5))
            g = random_poly(rng, field, rng.randint(1, 5))
            assert resultant(f, g) == sylvester_resultant(f, g)


@pytest.mark.parametrize("p", [2, 3, 5, 1_000_003, 2**31 - 1, 2**61 - 1, TOP_PRIME])
def test_fp_resultant_of_long_operands(rng, monkeypatch, p):
    # over F_p resultant and discriminant read Res off one packed remainder
    # sequence (`_intpoly._euclid`) at every size; here past 8 coefficients,
    # in both orders: deg a < deg b, a or b constant, a common factor (Res =
    # 0), remainders that drop 2 and 5 degrees, every residue p - 1, sparse
    # operands, leading coefficients other than 1 when p > 2; odd degree
    # products (9 * 21, 19 * 15, 15 * 13) make the sign of a step matter
    field = PrimeField(p)

    def poly(n):  # degree n
        return Poly(field, [rng.randrange(p) for _ in range(n)] + [rng.randrange(p > 2, p - 1) + 1])

    h = poly(3)
    pairs = [(poly(24), poly(17)), (poly(9), poly(21)), (poly(0), poly(20)), (poly(24), poly(0)),
             (h * poly(12), h * poly(9)), (Poly(field, [p - 1] * 25), Poly(field, [p - 1] * 13))]
    for drop in (2, 5):  # a = q*b + r with deg r = deg b - drop
        b = poly(15)
        pairs.append((b * poly(4) + poly(15 - drop), b))
    pairs.append(tuple(Poly(field, [int(rng.random() < 0.2) for _ in range(n)] + [1])
                       for n in (24, 16)))
    calls = []
    euclid = _intpoly._euclid
    monkeypatch.setattr(_intpoly, "_euclid", lambda *args: calls.append(1) or euclid(*args))
    for a, b in pairs:
        for f, g in ((a, b), (b, a)):
            assert resultant(f, g) == sylvester_resultant(f, g)
    assert resultant(*pairs[4]) == 0
    for f in (pairs[0][0], pairs[5][0], pairs[6][0]):
        n = f.degree
        assert discriminant(f) == field.div((-1) ** (n * (n - 1) // 2)
                                            * sylvester_resultant(f, f.derivative()), f.lc)
    assert len(calls) == 2 * len(pairs) + 4
    # sympy on a sample: the first pair and the discriminant of its a
    a, b = pairs[0]
    assert resultant(a, b) == field(sympy_fraction(to_sympy(p, a.coeffs).resultant(
        to_sympy(p, b.coeffs))))
    assert discriminant(a) == field(sympy_fraction(to_sympy(p, a.coeffs).discriminant()))


@st.composite
def _prs_pair(draw):
    """(f, g, shared) over Q with Fraction coefficients, built backwards from
    the remainder sequence, r_(i-1) = q_i * r_i + r_(i+1), with sparse
    quotients of degree 1 to 3: each quotient of degree 2 or 3 is a step
    where the remainder degree drops by 2 or more.  The sequence ends in a
    nonzero constant, or in a nonconstant common factor (shared, so the
    resultant is 0); or g is a constant and f is not."""
    coeff = st.fractions(-6, 6, max_denominator=4)

    def sparse(n):
        coeffs = [Fraction(0)] * n + [draw(coeff.filter(bool))]
        for i in (draw(st.sets(st.integers(0, n - 1), max_size=2)) if n else ()):
            coeffs[i] = draw(coeff)
        return qpoly(*coeffs)

    kind = draw(st.sampled_from(["coprime", "shared", "constant"]))
    if kind == "constant":
        return sparse(draw(st.integers(1, 7))), sparse(0), False
    b = sparse(draw(st.integers(1, 2)) if kind == "shared" else 0)
    a = sparse(draw(st.integers(1, 3))) * b
    for _ in range(draw(st.integers(1, 3))):
        a, b = sparse(draw(st.integers(1, 3))) * a + b, a
    return a, b, kind == "shared"


@untimed
@given(_prs_pair())
def test_resultant_matches_sylvester_off_the_normal_prs(case):
    f, g, shared = case
    for a, b in ((f, g), (g, f)):
        res = resultant(a, b)
        assert res == sylvester_resultant(a, b)
        assert type(res) is Fraction
        if shared:
            assert res == 0


def test_normal_prs_steps_divide_in_the_same_pass(rng, monkeypatch):
    # over Z a step with deg f = deg g + 1 forms prem(f, g) / (u * h) itself;
    # only the first step of deg f = deg g + 2 goes through pseudo_rem
    calls = []
    prem = _intpoly.pseudo_rem
    monkeypatch.setattr(_intpoly, "pseudo_rem", lambda f, g: calls.append(1) or prem(f, g))
    for _ in range(20):
        f, g = random_poly(rng, QQ, 12), random_poly(rng, QQ, 10)
        assert resultant(f, g) == sylvester_resultant(f, g)
        assert len(calls) <= 1
        calls.clear()


@st.composite
def _disc_case(draw):
    """p (0 for Q) and the ascending coefficients of a degree-1..7 polynomial."""
    p = draw(st.sampled_from([0, 2, 3, 5, 7, 1_000_003]))
    if p:
        coeff, lead = st.integers(0, p - 1), st.integers(1, p - 1)
    else:
        coeff = st.fractions(-9, 9, max_denominator=9)
        lead = coeff.filter(bool)
    n = draw(st.integers(1, 7))
    return p, draw(st.lists(coeff, min_size=n, max_size=n)) + [draw(lead)]


@untimed
@given(_disc_case())
def test_discriminant_matches_sympy(case):
    # the definition (-1)^(n(n-1)/2) Res(f, f') / lc(f) through the Sylvester
    # determinant is the reference; sympy must agree with it too
    p, coeffs = case
    field = field_of(p)
    f = Poly(field, coeffs)
    assume(not f.derivative().is_zero)
    n = f.degree
    by_definition = field.div((-1) ** (n * (n - 1) // 2)
                              * sylvester_resultant(f, f.derivative()), f.lc)
    assert discriminant(f) == by_definition
    assert discriminant(f) == field(sympy_fraction(to_sympy(p, coeffs).discriminant()))


def test_resultant_swap_sign(rng):
    for _ in range(30):
        f = random_poly(rng, QQ, rng.randint(1, 4))
        g = random_poly(rng, QQ, rng.randint(1, 4))
        sign = -1 if (f.degree * g.degree) % 2 else 1
        assert resultant(f, g) == sign * resultant(g, f)


def test_resultant_multiplicative(rng):
    for _ in range(30):
        f = random_poly(rng, QQ, rng.randint(1, 3))
        g = random_poly(rng, QQ, rng.randint(1, 3))
        h = random_poly(rng, QQ, rng.randint(1, 3))
        assert resultant(f, g * h) == resultant(f, g) * resultant(f, h)


def test_resultant_zero_iff_common_root(rng):
    for _ in range(25):
        shared = qpoly(rng.randint(-4, 4), 1)
        f = random_poly(rng, QQ, rng.randint(1, 3)) * shared
        g = random_poly(rng, QQ, rng.randint(1, 3)) * shared
        assert resultant(f, g) == 0
    # distinct planted linear factors, no sharing
    f = qpoly(-1, 1) * qpoly(-2, 1)
    g = qpoly(-3, 1) * qpoly(-4, 1)
    assert resultant(f, g) != 0


def test_resultant_product_over_roots(rng):
    for _ in range(25):
        roots = rng.sample(range(-6, 7), rng.randint(1, 3))
        lead = QQ(rng.choice([1, 2, 3, -2]))
        f = Poly.constant(QQ, lead)
        for r in roots:
            f = f * qpoly(-r, 1)
        g = random_poly(rng, QQ, rng.randint(1, 3))
        expected = lead ** g.degree
        for r in roots:
            expected *= g(QQ(r))
        assert resultant(f, g) == expected


def test_resultant_scalar_rule(rng):
    for _ in range(25):
        f = random_poly(rng, QQ, rng.randint(1, 4))
        g = random_poly(rng, QQ, rng.randint(1, 4))
        c = QQ(rng.choice([2, 3, -1, Fraction(1, 2)]))
        assert resultant(f, g.scale(c)) == c ** f.degree * resultant(f, g)


# ---------------------------------------------------------------------------
# discriminants

def test_discriminant_quadratic_oracle(rng):
    # classical b^2 - 4c for monic quadratics
    for _ in range(20):
        b, c = rng.randint(-5, 5), rng.randint(-5, 5)
        assert discriminant(qpoly(c, b, 1)) == Fraction(b * b - 4 * c)
    assert discriminant(qpoly(-4, 0, 1)) == Fraction(16)


def test_discriminant_repeated_root():
    assert discriminant(qpoly(1, -2, 1)) == Fraction(0)


def test_discriminant_depressed_cubic_oracle(rng):
    # -4p^3 - 27q^2 for x^3 + px + q
    for _ in range(20):
        p, q = rng.randint(-4, 4), rng.randint(-4, 4)
        assert discriminant(qpoly(q, p, 0, 1)) == Fraction(-4 * p ** 3 - 27 * q * q)
    assert discriminant(qpoly(0, -3, 0, 1)) == Fraction(108)


# ---------------------------------------------------------------------------
# discriminant in t

def test_disc_in_t_square():
    assert disc_in_t(qpoly(0, 0, 1)) == qpoly(0, 4)


def test_disc_in_t_quartic_plus_x():
    assert disc_in_t(qpoly(0, 1, 0, 0, 1)) == qpoly(-27, 0, 0, -256)


def test_disc_in_t_pure_quartic_multiplicity():
    report = critical_values(disc_in_t(qpoly(0, 0, 0, 0, 1)))
    assert [(f, m) for f, m in report.squarefree.parts] == [(qpoly(0, 1), 3)]


def test_disc_in_t_degenerate_mod_p():
    with pytest.raises(DegenerateDerivativeError):
        disc_in_t(fppoly(3, 0, 0, 0, 1))


def test_interpolation_route_matches_direct_determinant(rng):
    for field in (QQ, PrimeField(5)):
        for _ in range(15):
            f = random_poly(rng, field, rng.randint(2, 4))
            if f.derivative().is_zero:
                continue
            direct = _tpoly_sylvester(f, Poly.one(field), f.derivative())
            assert res_x_linear_t(f, Poly.one(field), f.derivative()) == direct


def test_rational_interpolation_route_matches_direct(rng):
    count = 0
    while count < 10:
        f = random_ratfun(rng, QQ, rng.randint(1, 3), rng.randint(1, 3))
        if f.is_zero or f.is_constant:
            continue
        deriv = f.derivative()
        if deriv.numerator.is_zero:
            continue
        count += 1
        assert rat_resultant_in_t(f) == _tpoly_sylvester(f.numerator, f.denominator,
                                                         deriv.numerator)


def _fraction_poly(rng, field, degree, lc):
    """Exact degree, non-integral coefficients with mixed denominators
    (none divisible by 3 or 7 off Q)."""
    dens = (2, 4, 5) if field.char else (2, 3, 4, 6)
    coeffs = [Fraction(rng.randint(-5, 5), rng.choice(dens)) for _ in range(degree)]
    return Poly(field, coeffs + [lc])


@pytest.mark.parametrize("p", [0, 7, 3])
def test_interpolation_route_matches_direct_with_denominators(rng, p):
    # a - t*b and c carry denominators, so over Q every node clears them and
    # the interpolant is divided once; p = 3 <= deg c runs the characteristic
    # polynomial mod 3^2
    field = field_of(p)
    ratios = (0, 1, -1, 2, Fraction(1, 2))  # a_n / b_n, integral nodes first
    for trial in range(30):
        n = rng.randint(1, 3)
        c = _fraction_poly(rng, field, rng.randint(3, 4) if p else rng.randint(1, 4),
                           Fraction(rng.choice((1, -2, 4)), rng.choice((1, 2, 5))))
        if trial % 3 == 0:  # deg b < n
            a = _fraction_poly(rng, field, n, Fraction(rng.choice((1, -5)), 2))
            b = _fraction_poly(rng, field, rng.randint(0, n - 1), Fraction(2, 5))
        else:  # deg b = n, a_n = r * b_n (a_n = 0 when r = 0)
            b_n = Fraction(rng.choice((1, -1, 5)), rng.choice((2, 4)))
            b = _fraction_poly(rng, field, n, b_n)
            a = _fraction_poly(rng, field, n, ratios[trial % len(ratios)] * b_n)
        assert max(a.degree, b.degree) == n and (b.degree == n) == (trial % 3 != 0)
        if p == 3:
            assert c.degree >= p
        assert res_x_linear_t(a, b, c) == _tpoly_sylvester(a, b, c)


def test_small_field_disc_in_t_matches_the_determinant():
    # over F_5 deg f' = 5 = p, so Newton's identities divide by 5 and the
    # characteristic polynomial runs mod 5^2
    field = PrimeField(5)
    f = fppoly(5, 1, 2, 0, 1, 0, 0, 1)
    d = disc_in_t(f)
    raw = _tpoly_sylvester(f, Poly.one(field), f.derivative())
    assert d == raw.scale(field.div(-1, f.lc))  # n = 6: sign (-1)^15


# over F_2 every nonzero residue lifts to 1, so A_n/B_n is always integral
@pytest.mark.parametrize("p, lead", [(p, lead) for p in (2, 3, 5, 7)
                                     for lead in ("b_n = 0", "integral", "non-integral")
                                     if (p, lead) != (2, "non-integral")])
def test_route_switch_matches_direct_determinant(rng, p, lead):
    # deg c from p - 2 to p + 1: the characteristic polynomial runs mod p
    # below p and mod p^2 from p on, with or without a node a_n/b_n where
    # the x-leading coefficient of a - t*b vanishes
    field = PrimeField(p)
    for bound in (p - 2, p - 1, p, p + 1):
        if bound < 1:
            continue
        for _ in range(4):
            n = rng.randint(1, 3)
            c = Poly(field, [rng.randrange(p) for _ in range(bound)] + [rng.randrange(1, p)])
            if lead == "b_n = 0":
                a_n, b_n = rng.randrange(1, p), 0
            elif lead == "integral":  # A_n/B_n is 0 or 1, both integer nodes
                b_n = rng.randrange(1, p)
                a_n = rng.choice((0, b_n))
            else:  # A_n/B_n = 1/2 over Q
                a_n, b_n = 1, 2
            a = Poly(field, [rng.randrange(p) for _ in range(n)] + [a_n])
            b = Poly(field, [rng.randrange(p) for _ in range(n)] + [b_n])
            assert max(len(a.coeffs), len(b.coeffs)) == n + 1
            assert res_x_linear_t(a, b, c) == _tpoly_sylvester(a, b, c)
        count = 0
        while count < 3:
            num, den = ([rng.randrange(p) for _ in range(rng.randint(1, k))] + [1]
                        for k in (bound + 1, 3))
            f = RatFun(Poly(field, num), Poly(field, den))
            if f.is_constant or f.derivative().numerator.is_zero:
                continue
            count += 1
            assert rat_resultant_in_t(f) == _tpoly_sylvester(
                f.numerator, f.denominator, f.derivative().numerator)


def test_small_field_evaluates_no_polynomial_determinant(rng, monkeypatch):
    # the library holds no determinant: over F_3 every call is one
    # characteristic polynomial, mod 3^N, and none takes the integer nodes
    routes = []
    for name in ("res_linear_nodes", "mod_res_linear"):
        kernel = getattr(_intpoly, name)
        monkeypatch.setattr(_intpoly, name, lambda *args, kernel=kernel, name=name:
                            routes.append(name) or kernel(*args))
    field = PrimeField(3)
    for degree in (8, 10, 14):
        f = random_poly(rng, field, degree, lc_choices=(1, 2))
        assert f.derivative().degree >= 3  # so Newton's identities divide by 3
        disc_in_t(f)
        rat_resultant_in_t(RatFun(f, random_poly(rng, field, 3, lc_choices=(1, 2))))
    assert routes == ["mod_res_linear"] * 6


def _per_node_res_x_linear_t(a: Poly, b: Poly, c: Poly) -> Poly:
    """Res_x(a - t*b, c) by one full remainder sequence from scratch at each
    node and interpolation: residue nodes when F_p has more than deg c of
    them besides a_n/b_n, and integer nodes otherwise, over Q and over a
    smaller F_p, whose residues are read as integers (the integer
    determinant reduces mod p to the one over F_p).  The per-node loop that
    both library routes replaced, kept as the reference."""
    field = a.field
    n = max(len(a.coeffs), len(b.coeffs)) - 1
    if c.degree == 0:
        return Poly.constant(field, c.lc ** n)
    bound = c.degree
    p = field.char
    if p:
        pairs = list(zip_longest(a.coeffs, b.coeffs, fillvalue=0))
        an, bn = pairs[-1]
        bad = {field.div(an, bn)} if bn else ()
        if p - len(bad) > bound:
            nodes = [v for v in range(bound + 2) if v not in bad][:bound + 1]
            values = [_intpoly.mod_resultant([(x - t0 * y) % p for x, y in pairs],
                                             c.coeffs, p) for t0 in nodes]
            return interpolate(field, nodes, values)
        ci = c.coeffs
    else:
        (ai, da), (bi, db), (ci, dc) = map(_intpoly._clear, (a.coeffs, b.coeffs, c.coeffs))
        lden = lcm(da, db)
        pairs = list(zip_longest([x * (lden // da) for x in ai],
                                 [y * (lden // db) for y in bi], fillvalue=0))
        an, bn = pairs[-1]
    nodes = resultants._nodes(bound + 1, {Fraction(an, bn)} if bn else ())
    values = [_intpoly.prs_resultant([x - t0 * y for x, y in pairs], ci) for t0 in nodes]
    res = interpolate(QQ, nodes, values)
    if p:
        return Poly(field, res.coeffs)
    den = lden ** bound * dc ** n
    return res if den == 1 else res.scale(Fraction(1, den))


_SHARE_KINDS = ("b = 1, c = a'", "deg b < deg a", "deg b = deg a", "p | deg a",
                "common factor", "deg c <= 1")


@st.composite
def _linear_t_case(draw):
    """(a, b, c, kind) over Q or F_p, p in {2, 3, 13, 1000003, 2^31 - 1},
    with c nonzero and max(deg a, deg b) >= 1."""
    p = draw(st.sampled_from([0, 2, 3, 13, 1_000_003, 2**31 - 1]))
    field = field_of(p)
    kind = draw(st.sampled_from(_SHARE_KINDS if p in (2, 3, 13) else
                                [k for k in _SHARE_KINDS if k != "p | deg a"]))
    coeff = st.integers(0, p - 1) if p else st.fractions(-9, 9, max_denominator=4)

    def poly(degree):
        lead = draw(coeff.filter(lambda v: field(v) != 0))
        return Poly(field, draw(st.lists(coeff, min_size=degree, max_size=degree)) + [lead])

    if kind in ("b = 1, c = a'", "p | deg a"):
        a = poly(p * draw(st.integers(1, 13 // p)) if kind == "p | deg a"
                 else draw(st.integers(2, 14)))
        b, c = Poly.one(field), a.derivative()
    elif kind == "deg b = deg a":
        n = draw(st.integers(1, 10))
        a, b, c = poly(n), poly(n), poly(draw(st.integers(1, 10)))
    elif kind == "common factor":
        w = poly(draw(st.integers(1, 3)))
        a, b, c = (w * poly(draw(st.integers(0, 5))) for _ in range(3))
    else:
        n = draw(st.integers(1, 12))
        a, b = poly(n), poly(draw(st.integers(0, n - 1)))
        c = poly(draw(st.integers(0, 1) if kind == "deg c <= 1" else st.integers(0, 12)))
    return a, b, c, kind


@untimed
@given(_linear_t_case())
def test_res_x_linear_t_matches_per_node_reference(case):
    a, b, c, kind = case
    assume(not c.is_zero and max(a.degree, b.degree) >= 1)
    res = res_x_linear_t(a, b, c)
    assert res == _per_node_res_x_linear_t(a, b, c)
    if kind == "common factor":
        assert res.is_zero


@pytest.mark.parametrize("field", [QQ], ids=["Q"])
def test_disc_in_t_shares_the_first_half_of_the_sequence(rng, monkeypatch, field):
    # D[f - t] at degree 32 on the integer route: t starts in the constant
    # term and rises one index per step, so every step down to degree 17 is
    # run once for all 32 nodes and no node starts its own remainder
    # sequence above it (every step goes through _intpoly._step)
    dividends, starts = [], []
    run, step = _intpoly._res_sequence, _intpoly._step

    def per_node(f, g, *state):
        starts.append(max(len(f), len(g)) - 1)
        return run(f, g, *state)

    def counting(f, g, *state):
        dividends.append(len(f) - 1)
        return step(f, g, *state)

    monkeypatch.setattr(_intpoly, "_res_sequence", per_node)
    monkeypatch.setattr(_intpoly, "_step", counting)
    f = random_poly(rng, field, 32)
    disc_in_t(f)
    # a shared step runs twice (its remainder at t = 0 and at t = 1)
    assert sum(d > 17 for d in dividends) <= 2 * (32 - 17)
    assert len(starts) == 32 and max(starts) <= 17


def test_disc_in_t_over_a_word_prime_evaluates_no_nodes(rng, monkeypatch):
    # over F_(2^31-1) D[f - t] is one characteristic polynomial: no node
    # values and no interpolation
    def refuse(*args):
        raise AssertionError("node route taken")

    monkeypatch.setattr(_intpoly, "res_linear_nodes", refuse)
    monkeypatch.setattr(resultants, "interpolate", refuse)
    field = PrimeField(2**31 - 1)
    f = random_poly(rng, field, 32)
    assert disc_in_t(f).degree == 31


_KERNEL_KINDS = ("D[f - t]", "rational f", "zero at t = 0", "b shares a square with c",
                 "common factor", "both ends non-units", "deg c = 1", "deg b >= deg a",
                 "bad node")


@st.composite
def _mod_res_linear_case(draw):
    """(a, b, c, kind) over F_p that take `_intpoly.mod_res_linear`, with p
    = deg c + 2 (the smallest such prime field when b_n != 0), 101,
    1000003 or 2^31 - 1; deg c reaches 24 at the word-size primes."""
    kind = draw(st.sampled_from(_KERNEL_KINDS))
    p = draw(st.sampled_from([0, 101, 1_000_003, 2**31 - 1] if kind != "rational f"
                             else [101, 1_000_003, 2**31 - 1]))
    if kind == "deg c = 1":
        m = 1
    elif p:
        m = draw(st.integers(2, 24 if p > 101 else 9))
    else:  # deg c + 2 prime
        m = draw(st.sampled_from([3, 5, 9, 11] if kind != "D[f - t]" else [3, 5, 9]))
    p = p or m + 2
    field = PrimeField(p)

    def poly(degree):
        if degree < 0:
            return Poly.zero(field)
        return Poly(field, draw(st.lists(st.integers(0, p - 1), min_size=degree,
                                         max_size=degree)) + [draw(st.integers(1, p - 1))])

    n = draw(st.integers(1, 7))
    a, b, c = poly(n), poly(draw(st.integers(-1, n - 1))), poly(m)
    if kind == "D[f - t]":
        a, b = poly(m + 1), Poly.one(field)
        c = a.derivative()
    elif kind == "rational f":
        f = RatFun(poly(draw(st.integers(1, 5))), poly(draw(st.integers(1, 5))))
        assume(not f.is_constant and not f.derivative().numerator.is_zero)
        a, b, c = f.numerator, f.denominator, f.derivative().numerator
    elif kind == "zero at t = 0":  # Res(a, c) = 0 and b is not constant mod c
        s = poly(1)
        a, b, c = s * poly(n - 1), poly(draw(st.integers(1, m - 1))), s * poly(m - 1)
    elif kind == "b shares a square with c":
        s = poly(1)
        b, c = s * s * poly(draw(st.integers(0, 3))), s * poly(m - 1)
    elif kind == "common factor":
        s = poly(1)
        a, b, c = s * poly(n - 1), s * poly(draw(st.integers(0, 3))), s * poly(m - 1)
    elif kind == "both ends non-units":  # a~ shares s1 with c, b~ shares s2
        s1, s2 = poly(1), poly(1)
        a, b, c = s1 * poly(n - 1), s2 * poly(draw(st.integers(0, n - 1))), s1 * s2 * poly(m - 2)
    elif kind == "deg b >= deg a":
        a, b = poly(draw(st.integers(-1, n))), poly(n)
    elif kind == "bad node":  # a_n / b_n = s for an s in 0..m+1
        b = poly(n)
        a = poly(n - 1) + b.scale(draw(st.integers(0, m + 1)))
    return a, b, c, kind


def _splits(a: Poly, b: Poly, c: Poly) -> bool:
    """Whether `mod_res_linear` splits c: a and b mod c are both nonzero and
    both share a factor with c."""
    abar, bbar = poly_divmod(a, c)[1], poly_divmod(b, c)[1]
    return all(not u.is_zero and poly_gcd(u, c).degree > 0 for u in (abar, bbar))


@untimed
@given(_mod_res_linear_case())
def test_mod_res_linear_matches_the_references(case):
    a, b, c, kind = case
    assume(max(a.degree, b.degree) >= 1 and c.degree >= 1)
    calls = []
    kernel = _intpoly.mod_res_linear
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_intpoly, "mod_res_linear", lambda *args: calls.append(1) or kernel(*args))
        res = res_x_linear_t(a, b, c)
    # one level, or a split into at least two more
    assert len(calls) >= 3 if _splits(a, b, c) else calls == [1]
    assert res == _per_node_res_x_linear_t(a, b, c)
    if a.degree + c.degree <= 12:
        assert res == _tpoly_sylvester(a, b, c)
    if kind == "common factor":
        assert res.is_zero
    if kind in ("zero at t = 0", "both ends non-units"):
        assert not res.coeff(0)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 1_000_003, 2**31 - 1])
def test_split_matches_the_closed_form(rng, monkeypatch, p):
    # a = s1*A, b = s2*B, c = s1*s2*h with deg a, deg b < deg c, so a~ = a and
    # b~ = b are nonzero and share s1 and s2 with c: neither end of the pencil
    # is a unit and the kernel splits c.  lc(c) = lc(h) != 1 (for p > 2) pins
    # its lc(c)^n; the reference is the Sylvester determinant over F_p[t]
    calls = []
    kernel = _intpoly.mod_res_linear
    monkeypatch.setattr(_intpoly, "mod_res_linear",
                        lambda *args: calls.append(1) or kernel(*args))
    field = PrimeField(p)

    def poly(degree, lead=1):
        return Poly(field, [rng.randrange(p) for _ in range(degree)] + [lead])

    for _ in range(30):
        s1, s2 = poly(rng.randint(1, 2)), poly(rng.randint(1, 2))
        a, b = s1 * poly(rng.randint(0, 1), rng.randrange(1, p)), s2 * poly(rng.randint(0, 1))
        c = s1 * s2 * poly(rng.randint(1, 2), rng.randrange(2, p) if p > 2 else 1)
        assert _splits(a, b, c)
        calls.clear()
        assert res_x_linear_t(a, b, c) == _tpoly_sylvester(a, b, c)
        assert len(calls) > 1


@pytest.mark.parametrize("p", [3, 1_000_003, 2**31 - 1])
def test_mod_res_linear_tries_b_then_a_then_splits(rng, monkeypatch, p):
    # each level of the kernel runs one Euclid for b~ (the end t = oo) and,
    # when b~ is no unit, one for a~ (the end t = 0); a split follows only
    # after both, and no level shifts E in t or takes a separate gcd; a
    # constant b~ (every polynomial f) is a unit without a packed Euclid
    events = []

    def spy(name):
        kernel = getattr(_intpoly, name)
        monkeypatch.setattr(_intpoly, name, lambda *args: events.append(name) or kernel(*args))

    for name in ("mod_res_linear", "_euclid", "_packed_euclid", "mod_compose", "mod_gcd"):
        spy(name)
    field = PrimeField(p)

    def poly(degree):
        return Poly(field, [rng.randrange(p) for _ in range(degree)] + [rng.randrange(1, p)])

    def coprime_to(c, degree):
        while poly_gcd(u := poly(degree), c).degree:
            pass
        return u

    def euclids_per_level(a, b, c):
        expected = _per_node_res_x_linear_t(a, b, c)
        events.clear()  # from here on, the events of res_x_linear_t alone
        assert res_x_linear_t(a, b, c) == expected
        counts = []  # a level's Euclids all run before the levels it splits into
        for event in events:
            assert event in ("mod_res_linear", "_euclid", "_packed_euclid")
            if event == "mod_res_linear":
                counts.append(0)
            elif event == "_euclid":
                counts[-1] += 1
        return counts

    for _ in range(5):
        f, s, s2 = poly(rng.randint(6, 9)), poly(1), poly(1)
        assert euclids_per_level(f, Poly.one(field), f.derivative()) == [1]
        assert "_packed_euclid" not in events
        # zero at t = 0 with a unit b~: the end t = oo
        a, c = s * poly(2), s * poly(rng.randint(3, 4))
        assert euclids_per_level(a, coprime_to(c, 2), c) == [1]
        # b~ shares s with c and a~ is a unit: the end t = 0
        assert euclids_per_level(coprime_to(c, 4), s * poly(1), c) == [2]
        # both ends non-units: a split into levels of their own
        levels = euclids_per_level(s * poly(2), s2 * poly(1), s * s2 * poly(2))
        assert levels[0] == 2 and len(levels) >= 3


@st.composite
def _small_field_case(draw):
    """(a, b, c) over F_p, p in {2, 3, 5, 7}, with deg c >= p: D[f - t] of a
    polynomial f, or Res_x(f - t, f') of a rational f on its numerators."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    field = PrimeField(p)

    def poly(degree):
        return Poly(field, draw(st.lists(st.integers(0, p - 1), min_size=degree,
                                         max_size=degree)) + [draw(st.integers(1, p - 1))])

    if draw(st.booleans()):
        a = poly(draw(st.integers(p + 1, 9)))
        b, c = Poly.one(field), a.derivative()
    else:
        f = RatFun(poly(draw(st.integers(1, 6))), poly(draw(st.integers(1, 6))))
        assume(not f.is_constant)
        a, b, c = f.numerator, f.denominator, f.derivative().numerator
    assume(c.degree >= p)
    return a, b, c


@untimed
@given(_small_field_case())
def test_small_field_matches_the_determinant(case):
    a, b, c = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_intpoly, "res_linear_nodes", None)  # the node route is not taken
        res = res_x_linear_t(a, b, c)
    assert res == _tpoly_sylvester(a, b, c)


@pytest.mark.parametrize("kind", ["D[f - t]", "rational f", "zero at t = 0"])
def test_mod_res_linear_at_deg_c_64(rng, kind):
    # slots of a product sum up to 64 products of two residues below 2^31
    field = PrimeField(2**31 - 1)
    if kind == "D[f - t]":
        a = Poly(field, [rng.randrange(field.char) for _ in range(65)] + [1])
        b, c = Poly.one(field), a.derivative()
    else:
        a, b, c = (Poly(field, [rng.randrange(field.char) for _ in range(d)] + [1])
                   for d in (40, 20, 64))
        if kind == "zero at t = 0":
            s = Poly(field, (rng.randrange(field.char), 1))
            a, c = a * s, Poly(field, c.coeffs[1:]) * s
    assert c.degree == 64
    res = res_x_linear_t(a, b, c)
    assert res == _per_node_res_x_linear_t(a, b, c)
    assert (not res.coeff(0)) == (kind == "zero at t = 0")


@pytest.mark.parametrize("pn", [2**61 - 1, TOP_PRIME, 2**64, 3**19])
def test_packed_product_at_the_slot_bounds(rng, pn):
    # both factors hold 2M - 1 in every slot, the most a packed element
    # holds, so a slot of their product reaches m (2M - 1)^2, which for M =
    # 2^61 - 1 comes within a bit of the slot width at some m; C = x^m + (M -
    # 1)(1 + .. + x^(m-1)) or random.  Every remainder must be the one over
    # Z/M, in slots below 2M
    for m in range(1, 66):
        for low in ([pn - 1] * m, [rng.randrange(pn) for _ in range(m)]):
            c, inverse = low + [1], [1]
            for i in range(1, m - 1):  # 1/rev(C) mod y^(m-1)
                inverse.append(-sum(c[m - j] * inverse[i - j] for j in range(1, i + 1)) % pn)
            k, mulmod = _intpoly._packed_ring(c, pn, inverse[:m - 1])
            top = _intpoly._pack([2 * pn - 1] * m, k)
            out = mulmod(top, top)
            assert out.bit_length() <= 8 * k * m
            slots = _intpoly._unpack(out, k, 0, m, 1 << 8 * k)
            assert max(slots) < 2 * pn
            square = [x % pn for x in _intpoly.int_mul([2 * pn - 1] * m, [2 * pn - 1] * m)]
            want = _intpoly.mod_divmod(square, c, pn)[1]
            assert [x % pn for x in slots] == want + [0] * (m - len(want))


@pytest.mark.parametrize("p, m", [(p, m) for p in (2**61 - 1, TOP_PRIME)
                                  for m in (1, 2, 63, 64, 65)] + [(2, 64), (3, 40)])
def test_mod_res_linear_with_every_residue_p_minus_1(p, m):
    # residues p - 1 everywhere; at p = 2, m = 64 the kernel works mod M =
    # 2^64, at p = 3, m = 40 mod 3^19
    field = PrimeField(p)
    a, b, c = (Poly(field, [p - 1] * (d + 1)) for d in (m + 1, m // 2, m))
    assert res_x_linear_t(a, b, c) == _per_node_res_x_linear_t(a, b, c)


@pytest.mark.parametrize("p", [2, 3, 5, 1_000_003, 2**31 - 1, 2**61 - 1, TOP_PRIME])
def test_packed_norm_inverse(rng, p):
    # the pencil's ends in mod_res_linear: N(u) = Res(c, u) against the
    # Sylvester determinant (sympy at m = 80, where the determinant's order
    # is about 160), u * u^-1 = 1 mod c, and a last remainder of positive
    # degree exactly when N(u) = 0; u = 0 and u sharing the factor h with c =
    # h*k are no units.  Every residue p - 1 and a sparse u make remainders
    # drop degrees; the constant u = 1/2 (1 over F_2), as b~ of every
    # polynomial f, has N(u) = u^m and u^-1 = [1/u]
    field = PrimeField(p)

    def poly(n, top=None):  # n + 1 coefficients, the top one nonzero
        return [rng.randrange(p) for _ in range(n)] + [top or rng.randrange(1, p)]

    def rem(f, c):
        return _intpoly.mod_divmod(f, c, p)[1]

    for m in (1, 2, 3, 9, 40, 80):
        dh = rng.randint(1, max(m - 1, 1))
        h = poly(dh, 1)
        c = _intpoly.mod_mul(h, poly(m - dh, 1), p)
        shared = _intpoly.mod_mul(h, poly(rng.randint(0, m - dh - 1)), p) if m > 1 else []
        half = (p + 1) // 2
        last, norm, inverse = _intpoly._euclid(c, [half], p, True)
        assert (last, norm, inverse) == ([half], pow(half, m, p), [pow(half, -1, p)])
        for u, shares in (([], True), (shared, True), (poly(rng.randint(0, m - 1)), False),
                          ([p - 1] * m, False), ([1] + [0] * m + [1], False)):
            u = rem(u, c)
            last, norm, inverse = _intpoly._euclid(c, u, p, True)
            if not u:
                assert norm == 0
            elif m < 80:
                assert norm == sylvester_resultant(Poly(field, c), Poly(field, u))
            else:
                assert norm == int(to_sympy(p, c).resultant(to_sympy(p, u))) % p
            assert (len(last) > 1) == (norm == 0)
            if shares:
                assert (norm, inverse) == (0, None)
            elif norm:
                assert rem(_intpoly.mod_mul(u, inverse, p), c) == [1]
            else:
                assert inverse is None


@st.composite
def _integer_poly_mod_q(draw):
    """(f, q): f of degree 2..9 with integer coefficients in [-2^40, 2^40]
    and q in {1000003, 2^31 - 1} dividing neither deg f nor lc(f)."""
    q = draw(st.sampled_from([1_000_003, 2**31 - 1]))
    n = draw(st.integers(2, 9))
    coeff = st.integers(-2**40, 2**40)
    coeffs = draw(st.lists(coeff, min_size=n, max_size=n))
    lead = draw(coeff.filter(lambda v: v % q))
    return Poly(QQ, coeffs + [lead]), q


@untimed
@given(_integer_poly_mod_q())
def test_disc_in_t_mod_q_is_the_image_of_the_one_over_q(case):
    # q does not divide n * lc(f), so f and f' keep their degrees mod q, the
    # Sylvester matrix of f - t and f' keeps its shape, and D[f - t] over F_q
    # (characteristic polynomial) is the image of D[f - t] over Q (integer
    # nodes and interpolation)
    f, q = case
    field = PrimeField(q)
    assert disc_in_t(Poly(field, f.coeffs)) == Poly(field, disc_in_t(f).coeffs)


# ---------------------------------------------------------------------------
# the rational-function discriminant analog

def test_rat_resultant_worked_example():
    f = RatFun(qpoly(1, 4, 6, 4, 1), qpoly(0, 0, 0, 1))
    # equals exactly t^3 (256 - 27 t): the reported constant c is 1
    assert rat_resultant_in_t(f) == qpoly(0, 0, 0, 256, -27)


def test_rat_resultant_polynomial_consistency(rng):
    # for a polynomial, Res_x(f - t, f') is (+-1/lc) times D[f - t]
    for _ in range(15):
        f = random_poly(rng, QQ, rng.randint(2, 5))
        n = f.degree
        sign = QQ(-1 if (n * (n - 1) // 2) % 2 else 1)
        lhs = rat_resultant_in_t(RatFun(f.monic()))
        assert lhs.scale(sign) == disc_in_t(f.monic())


def test_rat_resultant_x_plus_inverse():
    f = RatFun(qpoly(1, 0, 1), Poly.x(QQ))
    assert rat_resultant_in_t(f) == qpoly(4, 0, -1)


# ---------------------------------------------------------------------------
# critical-value report

def test_critical_values_worked_example():
    report = critical_values(qpoly(0, 0, 0, 256, -27))
    assert (report.simple_count, report.nonzero_simple_count,
            report.zero_multiplicity) == (1, 1, 3)
    assert dict((tuple(fc for fc in f.coeffs), m)
                for f, m in report.squarefree.parts) \
        == {(Fraction(-256, 27), Fraction(1)): 1, (Fraction(0), Fraction(1)): 3}


def test_critical_values_squarefree_cubic():
    report = critical_values(qpoly(-27, 0, 0, -256))
    assert (report.simple_count, report.nonzero_simple_count,
            report.zero_multiplicity) == (3, 3, 0)


def test_critical_values_simple_zero_root():
    report = critical_values(qpoly(0, 4))
    assert (report.simple_count, report.nonzero_simple_count,
            report.zero_multiplicity) == (1, 0, 1)


def test_critical_values_rejects_zero():
    with pytest.raises(PreconditionError):
        critical_values(Poly.zero(QQ))


# ---------------------------------------------------------------------------
# discriminant of a composition

def test_split_discriminant_square_square():
    a, left, right = split_discriminant(qpoly(0, 0, 1), qpoly(0, 0, 1))
    assert a == Fraction(1)
    assert left == qpoly(0, 4)
    assert right == qpoly(0, -16)
    f = poly_compose(qpoly(0, 0, 1), qpoly(0, 0, 1))
    assert disc_in_t(f) == (left ** 2 * right).scale(a)


def test_split_discriminant_examples():
    for g, h in ((qpoly(0, 1, 1), qpoly(0, 0, 1)),
                 (qpoly(0, 0, 0, 1), qpoly(0, 0, 1))):
        a, left, right = split_discriminant(g, h)
        f = poly_compose(g, h)
        assert disc_in_t(f) == (left ** h.degree * right).scale(a)


def test_split_discriminant_random_and_right_degree(rng):
    # p exceeds every degree here, so the closed-form constant holds over F_p
    for field in (QQ, PrimeField(1_000_003)):
        for _ in range(15):
            g = random_poly(rng, field, rng.randint(2, 4))
            h = random_poly(rng, field, rng.randint(2, 4))
            a, left, right = split_discriminant(g, h)
            assert disc_in_t(poly_compose(g, h)) == (left ** h.degree * right).scale(a)
            assert right.degree == h.degree - 1


# ---------------------------------------------------------------------------
# structural check for compositions of rational functions

def composite_resultant_check(g, h):
    """For f = g o h: the multiplicity ell of t = 0 in Res_x(f - t, f'), and
    whether the side condition holds: when gcd(deg f, ord_infinity f) = 1
    and ord_infinity f exceeds the greatest proper divisor of deg f, ell > 0."""
    f = rat_compose(g, h)
    ell = critical_values(rat_resultant_in_t(f)).zero_multiplicity
    applies = (gcd(f.degree, abs(f.ord_infinity)) == 1
               and f.ord_infinity > greatest_proper_divisor(f.degree))
    return ell, not applies or ell > 0


def test_composite_resultant_check_worked_example():
    g = RatFun(qpoly(1, 1), qpoly(0, 0, 0, 0, 1))
    h = RatFun(qpoly(1, 0, 1), qpoly(1, 0, 0, 0, 1))
    ell, consistent = composite_resultant_check(g, h)
    assert consistent
    f = rat_compose(g, h)
    assert ell == critical_values(rat_resultant_in_t(f)).zero_multiplicity


def test_composite_resultant_check_squared_shape():
    # x^2 o (x^2+1)/x gives Res = 16 t^2 (t-4)^2, so ell = 2
    g = RatFun(qpoly(0, 0, 1))
    h = RatFun(qpoly(1, 0, 1), Poly.x(QQ))
    f = rat_compose(g, h)
    assert rat_resultant_in_t(f) == qpoly(0, 0, 256, -128, 16)
    ell, consistent = composite_resultant_check(g, h)
    assert (ell, consistent) == (2, True)


def test_composite_resultant_check_side_condition_fires():
    # deg f = 16, ord f = 9: gcd(16, 9) = 1 and 9 > d = 8, so ell must be > 0
    g = RatFun(qpoly(1, 1), qpoly(0, 0, 0, 0, 1))
    h = RatFun(qpoly(0, 0, 0, 0, 1), qpoly(1, 1))
    f = rat_compose(g, h)
    assert (f.degree, f.ord_infinity) == (16, 9)
    ell, consistent = composite_resultant_check(g, h)
    assert consistent and ell > 0


def test_composite_resultant_check_polynomial_consistency():
    # for polynomial pairs, ell agrees with the t-multiplicity of D[f-t]
    g, h = qpoly(0, 0, 1), qpoly(0, 1, 1)
    ell, consistent = composite_resultant_check(RatFun(g), RatFun(h))
    assert consistent
    f = poly_compose(g, h)
    assert ell == critical_values(disc_in_t(f)).zero_multiplicity


def test_critical_values_are_roots_of_rat_resultant():
    # rational critical points of (x+1)^4/x^3 are -1 (valency 4) and 3
    # (valency 2); their values 0 and 256/27 are exactly the roots
    f = RatFun(qpoly(1, 4, 6, 4, 1), qpoly(0, 0, 0, 1))
    res = rat_resultant_in_t(f)
    for a in (QQ(-1), QQ(3)):
        assert valency(f, a) >= 2
        assert res(f(a)) == 0
    # a non-critical point's value is not a root
    assert valency(f, QQ(1)) == 1
    assert res(f(QQ(1))) != 0


def test_critical_values_iff_for_x_plus_inverse():
    f = RatFun(qpoly(1, 0, 1), Poly.x(QQ))
    res = rat_resultant_in_t(f)  # 4 - t^2, roots exactly +-2 = f(+-1)
    assert valency(f, QQ(1)) == 2 and valency(f, QQ(-1)) == 2
    assert res(QQ(2)) == 0 and res(QQ(-2)) == 0
    for a in (QQ(2), QQ(3), QQ(-4)):
        assert valency(f, a) == 1
        assert res(f(a)) != 0


# ---------------------------------------------------------------------------
# interpolation helper

def test_interpolate_recovers_polynomial(rng):
    for field in (QQ, PrimeField(7)):
        for _ in range(10):
            f = random_poly(rng, field, rng.randint(0, 4))
            xs = [field(i) for i in range(f.degree + 1 if f.degree >= 0 else 1)]
            ys = [f(x) for x in xs]
            assert interpolate(field, xs, ys) == f


def _ref_interpolate(field, xs, ys):
    """The Newton loop on field scalars and `Poly`s that the kernel's
    `mod_interpolate` replaced, kept as the reference."""
    coeffs = list(ys)
    n = len(xs)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            coeffs[i] = field.div(coeffs[i] - coeffs[i - 1], xs[i] - xs[i - j])
    acc = Poly.zero(field)
    for i in range(n - 1, -1, -1):
        node = Poly(field, (-xs[i], field.one))
        acc = acc * node + Poly.constant(field, coeffs[i])
    return acc


def test_interpolate_matches_newton_reference(rng):
    for _ in range(20):
        # Q: Fraction nodes and values (halves), and int nodes with int
        # values off any integer polynomial, where a division is inexact
        count = rng.randint(1, 6)
        xs = [Fraction(k, 2) for k in rng.sample(range(-9, 10), count)]
        ys = [Fraction(rng.randint(-9, 9), 2) for _ in xs]
        assert interpolate(QQ, xs, ys) == _ref_interpolate(QQ, xs, ys)
        ints = rng.sample(range(-9, 10), count)
        values = [rng.randint(-9, 9) for _ in ints]
        assert interpolate(QQ, ints, values) == _ref_interpolate(QQ, ints, values)
        # F_p with fqring's nodes, range(p), and a random value table
        p = rng.choice((2, 3, 5, 7, 13))
        table = [rng.randrange(p) for _ in range(p)]
        out = interpolate(PrimeField(p), range(p), table)
        assert out == _ref_interpolate(PrimeField(p), list(range(p)), table)
        assert [out(a) for a in range(p)] == table
    for field in (QQ, PrimeField(5)):  # repeated nodes (0 = 5 mod 5)
        with pytest.raises(ZeroDivisionError):
            interpolate(field, [0, 5 if field.char else 0], [1, 2])
