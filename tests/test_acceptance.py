"""Acceptance suite: one test per criterion, each printing a PASS line.

Everything here is exact arithmetic (bit-exact comparisons, no tolerances).
Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
"""

import random
import time
from fractions import Fraction
from itertools import product

from ratprime import (CompositeWitness, OracleBudget, Poly, PrimeField, QQ,
                      RatFun, analyze, critical_values, disc_in_t, is_permutation,
                      parse_expression, poly_compose, poly_decompose,
                      rat_compose, rat_resultant_in_t, reduce_ring, resultant,
                      ring_compose, squarefree_decompose)
from ratprime.fqring import FqClass, classify, zero_divisor_witness
from conftest import (all_functions, fppoly, normalize_right_factor, qpoly, random_poly,
                      random_ratfun, split_discriminant)


def _passed(n, text):
    print(f"[criterion {n:2d}] PASS  {text}")


def test_criterion_1_worked_composition_example():
    g = parse_expression("(x+1)/x^4", QQ)
    h = parse_expression("(x^2+1)/(x^4+1)", QQ)
    f = parse_expression("(x^4+1)^3*(x^4+x^2+2)/(x^2+1)^4", QQ)
    big_g = parse_expression("x^4+x^3", QQ)
    big_h = parse_expression("(x^4+1)/(x^2+1)", QQ)
    assert f.ord_infinity == -8
    assert g.ord_infinity == 3
    assert h.ord_infinity == 2
    assert big_g.ord_infinity == -4
    assert big_h.ord_infinity == -2
    assert rat_compose(g, h) == f
    assert rat_compose(big_g, big_h) == f
    assert normalize_right_factor(g, h) == (big_g, big_h)
    _passed(1, "degree-16 example: ord values (-8, 3, 2, -4, -2), both "
               "compositions, and the unit normalization reproduce exactly")


def test_criterion_2_critical_resultant_example():
    f = parse_expression("(x+1)^4/x^3", QQ)
    res = rat_resultant_in_t(f)
    # res = c * t^3 (256 - 27 t); the computed constant is exactly c = 1
    target = qpoly(0, 0, 0, 256, -27)
    c = res.coeff(3) / target.coeff(3)
    assert c == Fraction(1)
    assert res == target.scale(c)
    report = critical_values(res)
    assert {m for _, m in report.squarefree.parts} == {3, 1}
    assert report.simple_count == 1
    assert report.nonzero_simple_count == 1
    assert report.zero_multiplicity == 3
    _passed(2, "Res_x(f - t, f') = c * t^3 (256 - 27t) with c = 1; "
               "multiplicities (3, 1), simple 1, non-zero simple 1, l = 3")


def test_criterion_3_discriminant_split_holds_exactly():
    rng = random.Random(303)
    start = time.perf_counter()
    for _ in range(50):
        g = random_poly(rng, QQ, rng.randint(2, 4))
        h = random_poly(rng, QQ, rng.randint(2, 4))
        a, left, right = split_discriminant(g, h)
        assert disc_in_t(poly_compose(g, h)) == (left ** h.degree * right).scale(a)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _passed(3, f"composition-discriminant identity exact on 50 random pairs "
               f"in {elapsed:.2f}s (< 30s)")


def test_criterion_4_right_resultant_degree():
    rng = random.Random(404)
    for _ in range(50):
        g = random_poly(rng, QQ, rng.randint(2, 4))
        h = random_poly(rng, QQ, rng.randint(2, 4))
        a, left, right = split_discriminant(g, h)
        assert disc_in_t(poly_compose(g, h)) == (left ** h.degree * right).scale(a)
        assert right.degree == h.degree - 1
    _passed(4, "deg B = deg h - 1 exactly on the same corpus (char 0)")


def test_criterion_5_order_multiplies_under_composition():
    rng = random.Random(505)
    checked = 0
    while checked < 100:
        g = random_ratfun(rng, QQ, rng.randint(1, 3), rng.randint(0, 3))
        dh1 = rng.randint(1, 3)
        h = random_ratfun(rng, QQ, dh1, rng.randint(0, dh1 - 1))
        if g.is_zero or g.is_constant or h.is_constant:
            continue
        assert h.ord_infinity < 0
        checked += 1
        assert -rat_compose(g, h).ord_infinity == g.ord_infinity * h.ord_infinity
    _passed(5, "-ord(g o h) = ord g * ord h on 100 random pairs with ord h < 0")


def test_criterion_6_order_of_derivative():
    rng = random.Random(606)
    checked = 0
    while checked < 100:
        f = random_ratfun(rng, QQ, rng.randint(0, 4), rng.randint(0, 4))
        if f.is_zero or f.is_constant or f.ord_infinity == 0:
            continue
        checked += 1
        assert -f.derivative().ord_infinity == -f.ord_infinity - 1
    _passed(6, "-ord f' = (-ord f) - 1 on 100 random f with ord f != 0")


def test_criterion_7_valency_sum():
    rng = random.Random(707)
    for _ in range(100):
        f = random_poly(rng, QQ, rng.randint(2, 8))
        total = sum(mult * factor.degree for factor, mult in
                    squarefree_decompose(f.derivative()).parts)
        assert total == f.degree - 1
    _passed(7, "sum of (valency - 1) over critical points equals deg f - 1 "
               "on 100 random f of degree 2..8")


def test_criterion_8_certificates_sound_against_oracle():
    field = PrimeField(5)
    budget = OracleBudget()
    certified = 0

    def check_sound(f):
        nonlocal certified
        verdict = analyze(RatFun(f))
        if verdict.is_prime_certificate:
            certified += 1
            search = poly_decompose(f, budget)
            assert search.witness is None
            assert search.exhaustive

    for a, b, c in product(range(5), repeat=3):
        check_sound(Poly(field, (0, c, b, a, 1)))
    rng = random.Random(808)
    for _ in range(200):
        check_sound(Poly(field, [rng.randrange(5) for _ in range(6)]
                         + [rng.choice([1, 2, 3, 4])]))
    assert certified > 0

    for coeffs in ((0, 0, 0, 0, 1), (0, 0, 1, 0, 1), (0, 0, 0, 0, 0, 0, 1)):
        out = poly_decompose(Poly(field, coeffs), budget)
        assert out.witness is not None
        g, h = out.witness
        assert poly_compose(g, h) == Poly(field, coeffs)
        assert g.degree >= 2 and h.degree >= 2
    _passed(8, f"no oracle witness for any certified input (125 exhaustive "
               f"quartics + 200 random sextics over F_5, {certified} certified); "
               f"known composites all witnessed")


def test_criterion_9_desk_verdicts():
    v1 = analyze(parse_expression("x^4+x", QQ))
    assert v1.kind == "PrimeBySimpleCriticalValues"
    assert disc_in_t(qpoly(0, 1, 0, 0, 1)) == qpoly(-27, 0, 0, -256)
    v2 = analyze(parse_expression("x^9/(x^2+1)", QQ))
    assert v2.kind == "PrimeByOrdInfinity"
    assert (v2.prime, v2.d, v2.ord_infinity) == (7, 3, -7)
    v3 = analyze(parse_expression("x^4+x^2", QQ), OracleBudget())
    assert isinstance(v3, CompositeWitness)
    assert v3.g == RatFun(qpoly(0, 1, 1)) and v3.h == RatFun(qpoly(0, 0, 1))
    _passed(9, "desk verdicts: simple-critical (disc -256t^3-27), "
               "ord-infinity (7, 3, -7), and the witness (x^2+x, x^2)")


def test_criterion_10_function_ring_suite():
    for p, units in ((2, 2), (3, 6), (5, 120)):
        assert sum(map(is_permutation, all_functions(p))) == units

    functions = list(all_functions(3))
    assert len(functions) == 27
    pairs = 0
    for alpha, beta in product(functions, repeat=2):
        pairs += 1
        composed = ring_compose(alpha, beta)
        assert is_permutation(composed) == (is_permutation(alpha)
                                            and is_permutation(beta))
    assert pairs == 729

    for p in (2, 3):
        ident = reduce_ring(Poly.x(PrimeField(p)))
        seen = {FqClass.ZERO: 0, FqClass.UNIT: 0, FqClass.ZERO_DIVISOR: 0}
        for phi in all_functions(p):
            kind = classify(phi)
            seen[kind] += 1
            if kind is FqClass.ZERO_DIVISOR:
                psi = zero_divisor_witness(phi)
                assert not psi.is_zero
                assert ring_compose(psi, phi).is_zero
                shifted = psi + ident
                assert shifted != ident
                assert ring_compose(shifted, phi) == phi
        assert seen[FqClass.ZERO] == 1
        assert sum(seen.values()) == p ** p
    _passed(10, "permutation counts 2/6/120; unit law on all 729 pairs over "
                "F_3; trichotomy and witness contracts exhaustive for p in {2,3}")


def test_criterion_11_resultant_property_suite():
    rng = random.Random(1111)
    for _ in range(100):
        f = random_poly(rng, QQ, rng.randint(1, 4))
        g = random_poly(rng, QQ, rng.randint(1, 4))
        sign = -1 if (f.degree * g.degree) % 2 else 1
        assert resultant(f, g) == sign * resultant(g, f)
    for _ in range(100):
        f = random_poly(rng, QQ, rng.randint(1, 3))
        g = random_poly(rng, QQ, rng.randint(1, 3))
        h = random_poly(rng, QQ, rng.randint(1, 3))
        assert resultant(f, g * h) == resultant(f, g) * resultant(f, h)
    for _ in range(100):
        shared = qpoly(rng.randint(-5, 5), 1)
        f = random_poly(rng, QQ, rng.randint(1, 3)) * shared
        g = random_poly(rng, QQ, rng.randint(1, 3)) * shared
        assert resultant(f, g) == 0
        coprime_f = qpoly(-1, 1) * qpoly(-2, 1)
        coprime_g = qpoly(-3, 1) * qpoly(rng.randint(4, 9), 1)
        assert resultant(coprime_f, coprime_g) != 0
    for _ in range(100):
        roots = rng.sample(range(-8, 9), rng.randint(1, 3))
        lead = QQ(rng.choice([1, 2, 3, -2]))
        f = Poly.constant(QQ, lead)
        for r in roots:
            f = f * qpoly(-r, 1)
        g = random_poly(rng, QQ, rng.randint(1, 3))
        expected = lead ** g.degree
        for r in roots:
            expected *= g(QQ(r))
        assert resultant(f, g) == expected
    for _ in range(100):
        f = random_poly(rng, QQ, rng.randint(1, 4))
        g = random_poly(rng, QQ, rng.randint(1, 4))
        c = QQ(rng.choice([2, 3, -1, 5, Fraction(2, 3)]))
        assert resultant(f, g.scale(c)) == c ** f.degree * resultant(f, g)
    _passed(11, "resultant properties (1)-(5) exact on 100 random "
                "pairs/triples each")
