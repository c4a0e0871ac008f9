from fractions import Fraction

import pytest

from ratprime import (CompositeWitness, OracleBudget, Poly, PreconditionError,
                      PrimeByDegree, PrimeByNonzeroSimpleCriticalValues,
                      PrimeByOrdInfinity, PrimeBySimpleCriticalValues,
                      PrimeByValency, PrimeField, QQ, RatFun, Unknown, analyze,
                      degree_certificate, disc_in_t, greatest_proper_divisor,
                      nonzero_simple_critical_certificate,
                      ord_infinity_certificate, parse_expression, rat_compose,
                      simple_critical_certificate, valency_certificate)
from ratprime.primality import SCOPE_BASE, SCOPE_CLOSURE
from conftest import qpoly


def _antiderivative(f):
    """Exact antiderivative over Q with zero constant term (test helper)."""
    return Poly(QQ, [Fraction(0)] + [c / Fraction(i + 1)
                                     for i, c in enumerate(f.coeffs)])


def test_greatest_proper_divisor():
    assert greatest_proper_divisor(16) == 8
    assert greatest_proper_divisor(7) == 1
    assert greatest_proper_divisor(9) == 3
    with pytest.raises(PreconditionError):
        greatest_proper_divisor(1)


def test_degree_certificate():
    f7 = RatFun(Poly(QQ, [0] * 7 + [1]), qpoly(1, 0, 1))
    assert degree_certificate(f7) == PrimeByDegree(7)
    quartic = RatFun(qpoly(1, 4, 6, 4, 1), qpoly(0, 0, 0, 1))
    assert degree_certificate(quartic) is None
    assert degree_certificate(RatFun(qpoly(0, 0, 1))) == PrimeByDegree(2)


def test_ord_infinity_certificate():
    f = RatFun(Poly(QQ, [0] * 9 + [1]), qpoly(1, 0, 1))
    assert ord_infinity_certificate(f) == PrimeByOrdInfinity(7, 3, -7)
    # the worked degree-16 example: ord -8 has only the prime factor 2 <= 8
    ex = parse_expression("(x^4+1)^3*(x^4+x^2+2)/(x^2+1)^4", QQ)
    assert ord_infinity_certificate(ex) is None
    # ord 0: same numerator and denominator degree
    flat = RatFun(qpoly(1, 0, 1), qpoly(0, 0, 1))
    assert ord_infinity_certificate(flat) is None


def test_valency_certificate_prime_degree_instance():
    # f = x^5 + 5x^4: f' = 5x^3(x+4); the multiplicity-1 factor marks a
    # valency-2 point and d = 1, so the certificate fires (degree 5 is
    # prime anyway, so the verdict is consistent)
    f = qpoly(0, 0, 0, 0, 5, 1)
    assert valency_certificate(f) == PrimeByValency(2, 1)


def test_valency_certificate_absent_case():
    # degree 6 needs a valency that is a prime above d = 3; a squarefree
    # derivative gives only valency-2 points
    f = qpoly(0, 1, 0, 0, 0, 0, 1)
    assert valency_certificate(f) is None


def test_valency_certificate_from_quartic_root():
    # integrate 6x(x-2)^4: derivative has a multiplicity-4 root, valency 5,
    # degree 6 gives d = 3 < 5
    fp = qpoly(0, 6) * qpoly(-2, 1) ** 4
    f = _antiderivative(fp)
    assert f.degree == 6
    assert valency_certificate(f) == PrimeByValency(5, 3)


def test_valency_certificate_square():
    assert valency_certificate(qpoly(0, 0, 1)) == PrimeByValency(2, 1)


def test_valency_certificate_needs_multiplicity_below_p():
    # over F_3, f = x^2 o (x^4 - x^3) = x^8 + x^7 + x^6 has f' = x^6 (2x + 1):
    # multiplicity 6 at 0 suggests valency 7 > d = 4, but 6 >= p and the
    # valency at 0 is 6, a multiple of p
    f = Poly(PrimeField(3), (0, 0, 0, 0, 0, 0, 1, 1, 1))
    assert valency_certificate(f) is None
    assert isinstance(analyze(RatFun(f), OracleBudget()), CompositeWitness)


def test_simple_critical_certificate():
    assert simple_critical_certificate(qpoly(0, 1, 0, 0, 1)) \
        == PrimeBySimpleCriticalValues(3, 2)
    assert simple_critical_certificate(qpoly(0, 0, 0, 0, 1)) is None
    assert simple_critical_certificate(qpoly(0, 0, 1, 0, 1)) is None


def test_simple_critical_certificate_never_fires_on_known_composites():
    # x^4 = x^2 o x^2, x^4 + x^2 = (x^2+x) o x^2, x^6 = x^3 o x^2
    for coeffs in ((0, 0, 0, 0, 1), (0, 0, 1, 0, 1), (0, 0, 0, 0, 0, 0, 1)):
        assert simple_critical_certificate(qpoly(*coeffs)) is None


def test_simple_critical_scope_is_base_field():
    assert PrimeBySimpleCriticalValues(3, 2).scope == SCOPE_BASE
    assert PrimeByNonzeroSimpleCriticalValues(2, 1).scope == SCOPE_CLOSURE


def test_nonzero_simple_critical_certificate():
    quartic = RatFun(qpoly(1, 4, 6, 4, 1), qpoly(0, 0, 0, 1))
    assert nonzero_simple_critical_certificate(quartic) is None
    # x + 1/x has the two non-zero simple critical values +-2 and 2d = 2
    f = RatFun(qpoly(1, 0, 1), Poly.x(QQ))
    assert nonzero_simple_critical_certificate(f) \
        == PrimeByNonzeroSimpleCriticalValues(2, 1)


def test_nonzero_simple_critical_quartic_found_by_search():
    # randomized search for a degree-4 function with 4 non-zero simple
    # critical values; the verdict is cross-checked against the exhaustive
    # oracle on a good-reduction image mod 5
    import random

    from ratprime.oracle import _RightFactors, _reduce_mod, _search

    rng = random.Random(41)
    hits = 0
    while hits < 3:
        num = Poly(QQ, [rng.randint(-3, 3) for _ in range(4)] + [1])
        den = Poly(QQ, [rng.randint(-3, 3), rng.randint(-3, 3), 1])
        f = RatFun(num, den)
        if f.is_zero or f.is_constant or f.degree != 4:
            continue
        cert = nonzero_simple_critical_certificate(f)
        if cert is None:
            continue
        assert cert.count >= 4 and cert.d == 2
        hits += 1
        image = _reduce_mod(f, 5)
        if image is None:
            continue
        search = _search(_RightFactors(image), [2], 50_000)
        assert search.witness is None and search.exhaustive


def test_analyze_rejects_units_and_constants():
    with pytest.raises(PreconditionError):
        analyze(RatFun(qpoly(3, 1)))
    with pytest.raises(PreconditionError):
        analyze(RatFun.constant(QQ, 4))


def test_analyze_desk_verdicts():
    assert analyze(RatFun(qpoly(0, 1, 0, 0, 1))) == PrimeBySimpleCriticalValues(3, 2)
    nine = RatFun(Poly(QQ, [0] * 9 + [1]), qpoly(1, 0, 1))
    assert analyze(nine) == PrimeByOrdInfinity(7, 3, -7)
    v = analyze(RatFun(qpoly(0, 0, 1, 0, 1)), OracleBudget())
    assert isinstance(v, CompositeWitness)
    assert v.g == RatFun(qpoly(0, 1, 1)) and v.h == RatFun(qpoly(0, 0, 1))


def test_analyze_worked_example_witness():
    f = parse_expression("(x^4+1)^3*(x^4+x^2+2)/(x^2+1)^4", QQ)
    v = analyze(f, OracleBudget())
    assert isinstance(v, CompositeWitness)
    assert v.g == RatFun(qpoly(0, 0, 0, 1, 1))
    assert v.h == RatFun(qpoly(1, 0, 0, 0, 1), qpoly(1, 0, 1))
    assert rat_compose(v.g, v.h) == f


def test_analyze_unknown_without_budget():
    f = RatFun(qpoly(1, 4, 6, 4, 1), qpoly(0, 0, 0, 1))
    v = analyze(f)
    assert isinstance(v, Unknown)
    assert any("not prime" in note for note in v.notes)
    assert any("oracle" in note for note in v.notes)


def test_analyze_notes_list_every_satisfied_hypothesis():
    # x^2: prime degree, valency 2 > d = 1, and 1 simple critical value >= d
    v = analyze(RatFun(qpoly(0, 0, 1)))
    assert v == PrimeByDegree(2)  # first in the fixed order wins
    assert len(v.notes) >= 3
    assert any("valency" in note for note in v.notes)
    assert any("simple critical" in note for note in v.notes)


def test_analyze_deterministic():
    f = RatFun(qpoly(1, 4, 6, 4, 1), qpoly(0, 0, 0, 1))
    assert analyze(f) == analyze(f)
    assert analyze(f, OracleBudget()) == analyze(f, OracleBudget())


def test_analyze_never_certifies_known_composites():
    # x^4, x^4 + x^2, x^6 = x^3 o x^2 must not earn a certificate
    for coeffs in ((0, 0, 0, 0, 1), (0, 0, 1, 0, 1), (0, 0, 0, 0, 0, 0, 1)):
        verdict = analyze(RatFun(qpoly(*coeffs)), OracleBudget())
        assert isinstance(verdict, CompositeWitness)
        assert verdict.g.degree >= 2 and verdict.h.degree >= 2


def test_analyze_degenerate_derivative_notes():
    field = PrimeField(3)
    f = RatFun(Poly(field, [0] * 9 + [1]))  # x^9 over F_3
    v = analyze(f)
    assert isinstance(v, Unknown)
    assert any("degenerate" in note for note in v.notes)
    w = analyze(f, OracleBudget())
    assert isinstance(w, CompositeWitness)
    assert rat_compose(w.g, w.h) == f


def test_analyze_carries_its_critical_report_and_search():
    f = RatFun(qpoly(0, 0, 1, 0, 1))  # x^4 + x^2 = (x^2 + x) o x^2
    v = analyze(f, OracleBudget())
    assert v.critical.disc_t == disc_in_t(f.numerator)
    assert v.search.witness == (v.g, v.h) and v.search.exhaustive
    # neither takes part in equality
    assert v == CompositeWitness(v.g, v.h)
    certified = analyze(RatFun(qpoly(0, 1, 0, 0, 1)))
    assert certified.critical.simple_count == 3 and certified.search is None
    degenerate = analyze(RatFun(Poly(PrimeField(3), [0] * 9 + [1])))
    assert degenerate.critical is None and degenerate.search is None
