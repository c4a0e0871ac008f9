from dataclasses import fields
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from ratprime import (OracleBudget, Poly, PreconditionError, PrimeField, QQ,
                      RatFun, SearchResult, decompose, parse_expression, poly_compose,
                      poly_exact_div, poly_gcd, poly_decompose, rat_compose,
                      rat_decompose_all_k, rat_decompose_via_reduction,
                      right_factor_quotient, solve_left_factor)
from ratprime import oracle
from ratprime._intpoly import mod_mul
from ratprime.errors import FieldMismatchError
from ratprime.oracle import _RightFactors, _right_degrees, _search, _tame_right_factor
from ratprime.squarefree import irreducible_factors
from conftest import field_of, fppoly, from_sympy, qpoly, random_poly, to_sympy, untimed


# ---------------------------------------------------------------------------
# right factors

def test_right_factor_quotient_found():
    g = right_factor_quotient(qpoly(0, 0, 1, 0, 1), qpoly(0, 0, 1))
    assert g == qpoly(0, 1, 1)


def test_right_factor_quotient_none_when_a_digit_is_not_constant():
    # x^4 + x in base x^2 has the low digit x, so no g has g(x^2) = x^4 + x
    assert right_factor_quotient(qpoly(0, 1, 0, 0, 1), qpoly(0, 0, 1)) is None


def test_right_factor_quotient_monomial():
    g = right_factor_quotient(Poly(QQ, [0] * 6 + [1]), qpoly(0, 0, 0, 1))
    assert g == qpoly(0, 0, 1)


# ---------------------------------------------------------------------------
# polynomial decomposition

def test_poly_decompose_rational_quartic():
    out = poly_decompose(qpoly(0, 0, 1, 0, 1), OracleBudget())
    assert out.witness == (qpoly(0, 1, 1), qpoly(0, 0, 1))
    assert out.exhaustive


# x^25 + x^2 over F_5: its one right-factor degree, 5, is wild (5 | 25/5),
# so only the divisor route can decide it
_WILD_MOD5 = fppoly(5, 0, 0, 1, *[0] * 22, 1)


def test_poly_decompose_exhaustive_absence_mod5():
    out = poly_decompose(_WILD_MOD5, OracleBudget())
    assert out.witness is None
    assert out.exhaustive
    # f - f(0) = x^2 (x^23 + 1) has no degree-5 divisor that x divides, so
    # no candidate is left
    assert out.candidates == 0


def test_poly_decompose_monomial_split_mod5():
    out = poly_decompose(Poly(PrimeField(5), [0] * 6 + [1]), OracleBudget())
    g, h = out.witness
    assert poly_compose(g, h) == Poly(PrimeField(5), [0] * 6 + [1])
    assert {g.degree, h.degree} == {2, 3}


def test_poly_decompose_budget_exhaustion_is_distinct():
    # x^25 + 4x^3 + x^2 + x over F_5 has 4 wild degree-5 candidates, all
    # non-factors, and a cap of 3 cannot cover them
    f = fppoly(5, 0, 1, 1, 4, *[0] * 21, 1)
    assert poly_decompose(f, OracleBudget()) == SearchResult(None, True, 4)
    out = poly_decompose(f, OracleBudget(candidate_cap=3))
    assert out.witness is None
    assert not out.exhaustive


def test_poly_decompose_wild_degree_over_f17_finds_witness():
    # (x^17+x) o (x^17+x) over F_17: its one right-factor degree is wild
    # (17 | 289/17), and one divisor of f - f(0) is the right factor
    f = parse_expression("(x^17+x)^17+x^17+x", PrimeField(17)).numerator
    h = fppoly(17, 0, 1, *[0] * 15, 1)
    assert poly_decompose(f, OracleBudget()) == SearchResult((h, h), True, 1)


def test_poly_decompose_wild_degree_above_8_is_exhaustive():
    # over F_2, deg 18 tries the wild k = 9 (the brute force skipped it),
    # k = 6 and 2 (tame, one candidate each) and the wild k = 3
    out = poly_decompose(Poly(PrimeField(2), [0, 1] + [0] * 16 + [1]), OracleBudget())
    assert out == SearchResult(None, True, 4)


def test_poly_decompose_tame_over_large_field():
    f = parse_expression("(x^3+x+1)^4+x^3+x", PrimeField(1_000_003)).numerator
    out = poly_decompose(f, OracleBudget())
    g, h = out.witness
    assert poly_compose(g, h) == f
    assert h == fppoly(1_000_003, 0, 1, 0, 1)
    assert out == SearchResult((g, h), True, 3)  # k = 6, 4, then 3


@pytest.mark.parametrize("p, expr, candidates", [(17, "x^4+x", 1),
                                                 (1_000_003, "x^12+x", 4)])
def test_poly_decompose_tame_absence_above_13_is_exhaustive(p, expr, candidates):
    f = parse_expression(expr, PrimeField(p)).numerator
    assert poly_decompose(f, OracleBudget()) == SearchResult(None, True, candidates)


def test_poly_decompose_tame_degree_above_8_over_q():
    # x^18 + x: k = 9, 6, 3, 2 are all tried, one candidate each
    f = Poly(QQ, [0, 1] + [0] * 16 + [1])
    assert poly_decompose(f, OracleBudget()) == SearchResult(None, True, 4)
    # each tame degree counts against the cap
    assert poly_decompose(f, OracleBudget(candidate_cap=2)) == SearchResult(None, False, 2)
    f = parse_expression("(x^9+x)^2+1", QQ).numerator
    out = poly_decompose(f, OracleBudget())
    assert out == SearchResult((qpoly(1, 0, 1), qpoly(0, 1, *[0] * 7, 1)), True, 1)


def _ref_tame_right_factor(f, k):
    """The reference tame candidate: for each of its k - 1 coefficients,
    the full h^m and f/lc(f) - h^m."""
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


def test_tame_right_factor_matches_brute_force(rng):
    # on every tame degree over Q, F_3, F_5 and F_7 the candidate is the one
    # the full powers give, and over F_p it is a right factor exactly when
    # some brute-force candidate is
    for p in (3, 5, 7, 0):
        field = field_of(p)
        for _ in range(12):
            if rng.random() < 0.5:
                f = random_poly(rng, field, rng.choice((4, 6, 8, 9)))
            else:
                f = poly_compose(random_poly(rng, field, rng.randint(2, 3)),
                                 random_poly(rng, field, rng.randint(2, 3)))
            n = f.degree
            for k in _right_degrees(n):
                if p and (n // k) % p == 0:
                    continue
                assert _tame_right_factor(f, k) == _ref_tame_right_factor(f, k)
                if not p:
                    continue
                brute = any(right_factor_quotient(f, Poly(field, (0,) + tail + (1,)))
                            for tail in product(range(p), repeat=k - 1))
                assert (right_factor_quotient(f, _tame_right_factor(f, k)) is not None) == brute


@st.composite
def _sympy_decompose_case(draw):
    # p > deg f (at most 16), where sympy's decompose divides only by units
    p = draw(st.sampled_from([0, 17, 19, 1_000_003]))
    coeff = st.integers(-4, 4) if p == 0 else st.integers(0, p - 1)

    def poly(degree):
        lc = draw(coeff.filter(lambda c: c % p if p else c))
        return Poly(field_of(p), draw(st.lists(coeff, min_size=degree, max_size=degree)) + [lc])

    if draw(st.booleans()):
        return p, poly_compose(poly(draw(st.integers(2, 4))), poly(draw(st.integers(2, 4))))
    return p, poly(draw(st.sampled_from([4, 6, 8, 9, 10, 12])))


@untimed
@given(_sympy_decompose_case())
def test_poly_decompose_matches_sympy(case):
    p, f = case
    out = poly_decompose(f, OracleBudget())
    assert out.exhaustive  # every right-factor degree is tame when p > deg f
    reference = [from_sympy(p, c) for c in to_sympy(p, f.coeffs).decompose()]
    composed = reference[-1]
    for left in reversed(reference[:-1]):
        composed = poly_compose(left, composed)
    # sympy's factors count only once they recompose exactly to f; sympy
    # 1.14 misses most right factors of degree 3 or more, and a witness it
    # lacks is judged by the composition check below, not by sympy
    sympy_found = len(reference) > 1 and composed == f
    if out.witness is None:
        assert not sympy_found
    else:
        g, h = out.witness
        assert poly_compose(g, h) == f and g.degree >= 2 and h.degree >= 2


def test_oracle_budget_has_only_a_cap():
    assert [f.name for f in fields(OracleBudget)] == ["candidate_cap"]
    assert OracleBudget() == OracleBudget(candidate_cap=100_000)
    with pytest.raises(PreconditionError):
        OracleBudget(candidate_cap=0)


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=repr)
def test_poly_decompose_prime_degree_is_exhaustive_absence(field):
    # no right-factor degree divides 1 or a prime, so there is nothing to
    # search, as for a rational function; only a constant is rejected
    for f in (Poly.x(field), Poly(field, (0, 1, 0, 1)), Poly(field, (1, 0, 1, 0, 0, 1))):
        assert poly_decompose(f, OracleBudget()) == SearchResult(None, True, 0)
        assert decompose(RatFun(f), OracleBudget()) == SearchResult(None, True, 0)
    for f in (Poly.zero(field), Poly.one(field)):
        with pytest.raises(PreconditionError):
            poly_decompose(f, OracleBudget())


def test_poly_decompose_normalization_completeness(rng):
    # arbitrary right factors (non-monic, nonzero constant term) are still
    # found through their unit-normalized equivalents
    for field in (QQ, PrimeField(5)):
        for _ in range(10):
            g = random_poly(rng, field, rng.randint(2, 3))
            h = random_poly(rng, field, rng.randint(2, 3), lc_choices=(2, 3, -1))
            h = h + Poly.constant(field, rng.randint(1, 3))
            f = poly_compose(g, h)
            out = poly_decompose(f, OracleBudget())
            assert out.witness is not None
            gg, hh = out.witness
            assert poly_compose(gg, hh) == f
            assert gg.degree >= 2 and hh.degree >= 2


def test_poly_decompose_deterministic():
    f = Poly(PrimeField(5), [0] * 6 + [1])
    assert poly_decompose(f, OracleBudget()).witness \
        == poly_decompose(f, OracleBudget()).witness


# ---------------------------------------------------------------------------
# rational decomposition over F_p

def rat_decompose(f, k, budget):
    """The search over the one right-factor degree k."""
    return _search(_RightFactors(f), [k], budget.candidate_cap)


def test_rat_decompose_recovers_mod5_image_of_worked_example():
    field = PrimeField(5)
    f = parse_expression("(x^4+1)^3*(x^4+x^2+2)/(x^2+1)^4", field)
    out = rat_decompose(f, 4, OracleBudget(candidate_cap=50_000))
    assert out.witness is not None
    g, h = out.witness
    assert g == RatFun(Poly(field, (0, 0, 0, 1, 1)))
    assert h == RatFun(Poly(field, (1, 0, 0, 0, 1)), Poly(field, (1, 0, 1)))
    assert rat_compose(g, h) == f


def test_rat_decompose_constructed_mod3():
    field = PrimeField(3)
    g = RatFun(Poly(field, (0, 0, 1)))
    h = RatFun(Poly(field, (1, 0, 1)), Poly.x(field))
    f = rat_compose(g, h)
    out = rat_decompose(f, 2, OracleBudget())
    assert out.witness is not None
    gg, hh = out.witness
    assert rat_compose(gg, hh) == f
    assert gg.degree == 2 and hh.degree == 2


def test_rat_decompose_exhaustive_absence_for_prime_certified_function():
    # x^9/(x^2+1) mod 5 keeps ord -7; with d = 3 it is prime over the
    # closure, so the k = 3 search must come back empty after covering
    # the whole space
    field = PrimeField(5)
    f = RatFun(Poly(field, [0] * 9 + [1]), Poly(field, (1, 0, 1)))
    out = rat_decompose(f, 3, OracleBudget(candidate_cap=50_000))
    assert out.witness is None
    assert out.exhaustive
    # 4 divisor pairs, of the 5^2 * (5^3 - 1) / 4 = 775 echelon candidates
    assert out.candidates == 4


def test_rat_decompose_budget_cap_reported():
    field = PrimeField(5)
    f = RatFun(Poly(field, [0] * 9 + [1]), Poly(field, (1, 0, 1)))
    # a cap of 3 cannot cover the 4 candidates of the k = 3 space
    out = rat_decompose(f, 3, OracleBudget(candidate_cap=3))
    assert out.witness is None and not out.exhaustive


def test_rat_decompose_above_13_is_exhaustive():
    f = parse_expression("(x^2+1)^2/(x^2+x)", PrimeField(17))
    assert rat_decompose(f, 2, OracleBudget()) == SearchResult(None, True, 3)
    # the whole echelon space of 17 * (17^2 - 1) / 16 = 306 candidates agrees
    space = list(_ref_canonical_right_factors(17, 2))
    assert len(space) == 306
    assert not any(solve_left_factor(f, RatFun(Poly(f.field, u), Poly(f.field, v)))
                   for u, v in space if poly_gcd(Poly(f.field, u), Poly(f.field, v)).degree == 0)


def test_rat_decompose_all_k_cap_is_a_total():
    # the k = 3 space (1 candidate) fits a cap of 1; the k = 2 space (1)
    # fits the cap but not the 0 candidates left after k = 3
    f = parse_expression("(x^12+x+2)/(x^11+2*x^3+1)", PrimeField(3))
    budget = OracleBudget(candidate_cap=1)
    assert rat_decompose(f, 3, budget) == SearchResult(None, True, 1)
    assert rat_decompose(f, 2, budget) == SearchResult(None, True, 1)
    assert rat_decompose_all_k(f, budget) == SearchResult(None, False, 1)


def test_rat_decompose_all_k_polynomial_right_factor():
    field = PrimeField(3)
    f = RatFun(Poly(field, [0] * 9 + [1]))  # x^9 = x^3 o x^3
    out = rat_decompose_all_k(f, OracleBudget())
    g, h = out.witness
    assert rat_compose(g, h) == f


# ---------------------------------------------------------------------------
# the F_p factorization behind the divisor route


@st.composite
def _factor_case(draw):
    p = draw(st.sampled_from([2, 3, 5, 13, 1_000_003]))
    field = PrimeField(p)

    def poly(low, high, monic=False):
        n = draw(st.integers(low, high))
        lead = 1 if monic else draw(st.integers(1, p - 1))
        return Poly(field, draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n)) + [lead])

    f = poly(0, 8)
    # repeated factors, and p-th powers where they stay small
    for _ in range(draw(st.integers(0, 2))):
        f = f * poly(1, 2, monic=True) ** draw(st.sampled_from([1, 2, 3] + [p] * (p <= 5)))
    if p == 13 and draw(st.booleans()):
        f = f * poly(1, 1, monic=True) ** 13
    return p, f


@untimed
@given(_factor_case(), st.integers(1, 4))
def test_irreducible_factors_match_sympy(case, top):
    p, f = case
    _, reference = to_sympy(p, f.coeffs).factor_list()
    full = irreducible_factors(f, f.degree)
    assert full == sorted(((from_sympy(p, q).monic().coeffs, m) for q, m in reference),
                          key=lambda zm: (len(zm[0]), zm[0]))
    # with a top degree, the factors up to it are the same and the rest
    # multiply back to what is left of f
    low = [(z, m) for z, m in full if len(z) - 1 <= top]
    capped = irreducible_factors(f, top)
    assert [(z, m) for z, m in capped if len(z) - 1 <= top] == low
    rest = Poly.one(f.field)
    for z, m in capped:
        if len(z) - 1 > top:
            rest = rest * Poly(f.field, z) ** m
    for z, m in full:
        if len(z) - 1 > top:
            rest = poly_exact_div(rest, Poly(f.field, z) ** m)
    assert rest == Poly.one(f.field)


# ---------------------------------------------------------------------------
# the brute force the divisor route replaced, kept as its reference: the
# whole echelon space of rational right factors with its fiber pruning, and
# the loop over every monic h with zero constant term on a wild polynomial
# degree; both ran only for p <= 13 and k <= 8, within the candidate cap

_REF_MAX_FIELD_SIZE = 13
_REF_MAX_RIGHT_DEGREE = 8


def _ref_projective_table(num, den, p):
    table = []
    for a in range(p):
        bottom = Poly(PrimeField(p), den)(a)
        table.append(Poly(PrimeField(p), num)(a) * pow(bottom, -1, p) % p if bottom else p)
    if len(num) != len(den):
        return table + [p if len(num) > len(den) else 0]
    return table + [num[-1] * pow(den[-1], -1, p) % p]


def _ref_fibers_respected(u, v, f_table, p):
    groups = {}
    for a in range(p):
        bottom = Poly(PrimeField(p), v)(a)
        hv = Poly(PrimeField(p), u)(a) * pow(bottom, -1, p) % p if bottom else p
        if groups.setdefault(hv, f_table[a]) != f_table[a]:
            return False
    return groups.get(p, f_table[p]) == f_table[p]


def _ref_subspace_count(p, k):
    return p ** (k - 1) * (p ** k - 1) // (p - 1)


def _ref_canonical_right_factors(p, k):
    for dv in range(k):
        for v_tail in product(range(p), repeat=dv):
            for u_free in product(range(p), repeat=k - 1):
                yield list(u_free[:dv]) + [0] + list(u_free[dv:]) + [1], list(v_tail) + [1]


def _ref_rat_decompose(f, k, cap=100_000):
    """The brute-force rat_decompose(f, k), or None where it could not
    enumerate the space."""
    field = f.field
    p = field.char
    if p > _REF_MAX_FIELD_SIZE or k > _REF_MAX_RIGHT_DEGREE or _ref_subspace_count(p, k) > cap:
        return None
    f1, f2 = f.numerator.coeffs, f.denominator.coeffs
    f_table = _ref_projective_table(f1, f2, p)
    for tried, (u, v) in enumerate(_ref_canonical_right_factors(p, k), 1):
        if Poly(field, u).degree < 1 or poly_gcd(Poly(field, u), Poly(field, v)).degree > 0:
            continue
        if not _ref_fibers_respected(u, v, f_table, p):
            continue
        h = RatFun(Poly(field, u), Poly(field, v))
        g = solve_left_factor(f, h)
        if g is not None:
            return SearchResult((g, h), True, tried)
    return SearchResult(None, True, _ref_subspace_count(p, k))


def _ref_poly_decompose(f, cap=100_000):
    """The brute-force poly_decompose (the tame candidate, or all p^(k-1)
    candidates of a wild degree), or None once it meets a degree it could
    not enumerate."""
    field, n, p = f.field, f.degree, f.field.char
    tried = 0
    for k in _right_degrees(n):
        wild = (n // k) % p == 0
        if (wild and (p > _REF_MAX_FIELD_SIZE or k > _REF_MAX_RIGHT_DEGREE)
                or tried + (p ** (k - 1) if wild else 1) > cap):
            return None
        if wild:
            candidates = (Poly(field, (0,) + tail + (1,)) for tail in product(range(p), repeat=k - 1))
        else:
            candidates = (_tame_right_factor(f, k),)
        for h in candidates:
            tried += 1
            g = right_factor_quotient(f, h)
            if g is not None:
                return SearchResult((g, h), True, tried)
    return SearchResult(None, True, tried)


# (x^6+x^5+2x^4+x^2+x+2)/(x^4+2x^3+2x^2+x) over F_3: every point of F_3 and
# infinity is a pole, so no point a has f(a) != f(inf)
_CONSTANT_ON_P1_MOD3 = "(x^6+x^5+2*x^4+x^2+x+2)/(x^4+2*x^3+2*x^2+x)"


def _random_fp_ratfun(rng, p, num_degree, den_degree):
    field = PrimeField(p)
    while True:
        num, den = ([rng.randrange(p) for _ in range(d)] + [rng.randrange(1, p)]
                    for d in (num_degree, den_degree))
        f = RatFun(Poly(field, num), Poly(field, den))
        if f.degree == max(num_degree, den_degree):
            return f


def _rational_reference_inputs(rng, p):
    inputs = []
    while len(inputs) < 6:
        dh = rng.choice((2, 2, 3))
        g = _random_fp_ratfun(rng, p, rng.randint(1, 2), 2)
        h = _random_fp_ratfun(rng, p, dh, rng.randint(0, dh - 1))
        inputs.append(rat_compose(g, h))
    for n in (4, 4, 6, 6) + (8,) * (p < 7):
        inputs.append(_random_fp_ratfun(rng, p, n, rng.randint(1, n)))
    return inputs


def _assert_matches_reference(f, k):
    reference = _ref_rat_decompose(f, k)
    if reference is not None:
        out = rat_decompose(f, k, OracleBudget())
        # the same first witness, or absence proven by both
        assert (out.witness, out.exhaustive) == (reference.witness, True)
        assert out.candidates <= min(reference.candidates, _RightFactors(f).size(k))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_rational_divisor_route_matches_brute_force(rng, p):
    for f in _rational_reference_inputs(rng, p):
        for k in _right_degrees(f.degree):
            _assert_matches_reference(f, k)


def _constant_on_p1(f):
    """True when f takes one value on all of P^1(F_p): then no point a has
    f(a) != f(inf), and u runs over every echelon u (the fallback)."""
    return len(set(_ref_projective_table(f.numerator.coeffs, f.denominator.coeffs,
                                          f.field.char))) == 1


def test_constant_on_projective_line_uses_the_fallback(rng):
    f = parse_expression(_CONSTANT_ON_P1_MOD3, PrimeField(3))
    assert _constant_on_p1(f)
    # all 3 echelon u of degree 2, each with the 4 divisors v of degree
    # below 2 of the fiber at infinity
    assert _RightFactors(f).size(2) == 12
    assert rat_decompose(f, 2, OracleBudget()).witness is not None
    fallbacks = [f]
    while len(fallbacks) < 6:
        f = _random_fp_ratfun(rng, 2, rng.choice((4, 6)), rng.randint(1, 3))
        if _constant_on_p1(f):
            fallbacks.append(f)
    for f in fallbacks:
        for k in _right_degrees(f.degree):
            _assert_matches_reference(f, k)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_wild_divisor_route_matches_brute_force(rng, p):
    field = PrimeField(p)
    inputs = []
    for n in [d for d in (4, 6, 8, 9, 10, 12, 14, 15, 16, 18, 20, 21, 25) if d % p == 0]:
        inputs.append(_random_fp_ratfun(rng, p, n, 0).numerator)
        for k in _right_degrees(n):
            g, h = (_random_fp_ratfun(rng, p, d, 0).numerator for d in (n // k, k))
            inputs.append(poly_compose(g, h))
    for f in inputs:
        reference = _ref_poly_decompose(f)
        if reference is None:
            continue
        out = poly_decompose(f, OracleBudget())
        assert (out.witness, out.exhaustive) == (reference.witness, True)
        assert out.candidates <= reference.candidates


# ---------------------------------------------------------------------------
# rational decomposition over Q (reduce, search, lift, verify)

def test_lift_recovers_worked_example_pair():
    f = parse_expression("(x^4+1)^3*(x^4+x^2+2)/(x^2+1)^4", QQ)
    out = rat_decompose_via_reduction(f, OracleBudget())
    assert out.witness is not None
    g, h = out.witness
    assert g == RatFun(qpoly(0, 0, 0, 1, 1))
    assert h == RatFun(qpoly(1, 0, 0, 0, 1), qpoly(1, 0, 1))
    assert rat_compose(g, h) == f


def test_lift_never_claims_exhaustive_absence():
    f = RatFun(Poly(QQ, [0] * 9 + [1]), qpoly(1, 0, 1))
    out = rat_decompose_via_reduction(f, OracleBudget())
    assert out.witness is None
    assert not out.exhaustive


@pytest.mark.parametrize("expr", ["x^5/(x+1)", "(x^2+1)/x", "(x^3+2)/(x^2-3)", "x^7/(x^3+1)"])
def test_lift_absence_at_a_prime_degree_is_exhaustive(expr):
    # no right-factor degree divides a prime degree, so there is nothing to
    # search, over Q as over F_p
    for field in (QQ, PrimeField(5)):
        out = decompose(parse_expression(expr, field), OracleBudget())
        assert out == SearchResult(None, True, 0)
    out = rat_decompose_via_reduction(parse_expression(expr, QQ), OracleBudget(candidate_cap=1))
    assert out == SearchResult(None, True, 0)


def test_lift_searches_whole_spaces_only():
    # k = 3 has 4 candidates mod 5, then 2 mod 7, 2 mod 11 and 4 mod 13; a
    # cap of 5 runs the first space and skips the others rather than
    # cutting one short
    f = RatFun(Poly(QQ, [0] * 9 + [1]), qpoly(1, 0, 1))
    assert rat_decompose_via_reduction(f, OracleBudget(candidate_cap=5)) == \
        SearchResult(None, False, 4)
    assert rat_decompose_via_reduction(f, OracleBudget()) == SearchResult(None, False, 12)


def test_lift_reduces_once_per_prime(monkeypatch):
    calls = []

    def counted(f, p):
        calls.append(p)
        return reduce_mod(f, p)

    reduce_mod = oracle._reduce_mod
    monkeypatch.setattr(oracle, "_reduce_mod", counted)
    # x^18/(x^2+1) = x^9/(x+1) o x^2, found at k = 2 after k = 9, 6 and 3
    f = RatFun(Poly(QQ, [0] * 18 + [1]), qpoly(1, 0, 1))
    g, h = rat_decompose_via_reduction(f, OracleBudget()).witness
    assert h == RatFun(qpoly(0, 0, 1)) and rat_compose(g, h) == f
    assert calls == [5, 7, 11, 13]


def test_solve_left_factor_unique():
    f = parse_expression("(x^4+1)^3*(x^4+x^2+2)/(x^2+1)^4", QQ)
    h = RatFun(qpoly(1, 0, 0, 0, 1), qpoly(1, 0, 1))
    g = solve_left_factor(f, h)
    assert g == RatFun(qpoly(0, 0, 0, 1, 1))
    # a non-factor gives nothing
    assert solve_left_factor(f, RatFun(qpoly(2, 0, 0, 0, 1), qpoly(1, 0, 1))) is None
    # over F_7, with a right factor that has a denominator
    g = RatFun(fppoly(7, 3, 0, 1), fppoly(7, 1, 1))
    h = RatFun(fppoly(7, 1, 0, 0, 1), fppoly(7, 2, 1))
    f = rat_compose(g, h)
    assert solve_left_factor(f, h) == g
    assert solve_left_factor(f, RatFun(fppoly(7, 2, 0, 0, 1), fppoly(7, 2, 1))) is None
    with pytest.raises(FieldMismatchError):
        solve_left_factor(f, RatFun(qpoly(1, 0, 0, 1), qpoly(2, 1)))


def test_solve_left_factor_rejects_constant_right_factor():
    f = parse_expression("(x^2+1)^2/x^2", QQ)
    with pytest.raises(PreconditionError):
        solve_left_factor(f, RatFun.constant(QQ, 3))


def test_decompose_reaches_one_bound_search(monkeypatch):
    # decompose calls one of the names bound as the search layer, once, and
    # never goes around them: the direct search for every F_p input and for
    # a polynomial over Q, reduce-and-lift for a rational function over Q
    calls, searches = [], {}
    for name in ("poly_decompose", "rat_decompose_all_k", "rat_decompose_via_reduction"):
        searches[name] = search = getattr(oracle, name)
        monkeypatch.setattr(oracle, name, lambda f, budget, name=name, search=search:
                            calls.append(name) or search(f, budget))
    for expr, field, route in (("(x^2+x)^3+1", PrimeField(5), "rat_decompose_all_k"),
                               ("(x^2+1)^2/x^2", PrimeField(7), "rat_decompose_all_k"),
                               ("(x^2+x)^3+1", QQ, "rat_decompose_all_k"),
                               ("(x^2+1)^2/x^2", QQ, "rat_decompose_via_reduction")):
        calls.clear()
        f = parse_expression(expr, field)
        g, h = decompose(f, OracleBudget()).witness
        assert calls == [route] and rat_compose(g, h) == f
    with pytest.raises(PreconditionError):  # the last f, rational over Q
        searches["rat_decompose_all_k"](f, OracleBudget())


@pytest.mark.parametrize("text", ["3", "0"])
def test_rat_decompose_all_k_rejects_constant(text):
    # an empty search here used to read as an exhaustive proof of absence
    f = parse_expression(text, PrimeField(5))
    with pytest.raises(PreconditionError):
        rat_decompose_all_k(f, OracleBudget())


# ---------------------------------------------------------------------------
# the exact linear solve the expansion replaced, kept as its reference:
# f1 * Qh - f2 * Ph = 0 on the 2(m + 1) coefficients of g = P/Q, solved by
# Gauss-Jordan elimination


def _ref_kernel(rows, ncols, p):
    mat = [list(r) for r in rows if any(r)]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = pow(mat[r][c], -1, p) if p else 1 / Fraction(mat[r][c])
        mat[r] = [x * inv % p for x in mat[r]] if p else [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                factor = mat[i][c]
                mat[i] = [(x - factor * y) % p if p else x - factor * y
                          for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [0] * ncols
        vec[fc] = 1
        for i, pc in enumerate(pivots):
            vec[pc] = -mat[i][fc] % p if p else -mat[i][fc]
        basis.append(vec)
    return basis


def _ref_solve_left_factor(f, h):
    field, p = f.field, f.field.char
    if f.degree % h.degree:
        return None
    m = f.degree // h.degree
    u, v = h.numerator.coeffs, h.denominator.coeffs
    upow, vpow = [[1]], [[1]]
    for _ in range(m):
        upow.append(mod_mul(upow[-1], u, p))
        vpow.append(mod_mul(vpow[-1], v, p))
    forms = [mod_mul(upow[j], vpow[m - j], p) for j in range(m + 1)]
    minus_f2 = [-c for c in f.denominator.coeffs]
    cols = ([mod_mul(f.numerator.coeffs, w, p) for w in forms]
            + [mod_mul(minus_f2, w, p) for w in forms])
    height = max(len(c) for c in cols)
    rows = [[col[r] if r < len(col) else 0 for col in cols] for r in range(height)]
    for vec in _ref_kernel(rows, 2 * (m + 1), p):
        if any(vec[:m + 1]):
            g = RatFun(Poly(field, vec[m + 1:]), Poly(field, vec[:m + 1]))
            return g if rat_compose(g, h) == f else None
    return None


def _random_quotient(rng, field, du, dv):
    """A reduced u/v with deg u = du and deg v = dv."""
    while True:
        f = RatFun(*(random_poly(rng, field, d, lc_choices=(1, 2, -1)) for d in (du, dv)))
        if (f.numerator.degree, f.denominator.degree) == (du, dv):
            return f


@pytest.mark.parametrize("p", [0, 3, 5, 7, 11])
def test_solve_left_factor_matches_linear_solve(rng, p):
    # deg u > deg v, deg u = deg v (the shifted expansion) and deg u < deg v,
    # on right factors and on non-factors of the same shape
    field = field_of(p)
    for du, dv in ((2, 0), (2, 1), (3, 1), (1, 1), (2, 2), (3, 3), (0, 2), (1, 2), (1, 3)):
        for _ in range(3):
            m = rng.randint(1, 3)
            g = _random_quotient(rng, field, *rng.choice([(m, rng.randint(0, m)),
                                                          (rng.randint(0, m - 1), m)]))
            h = _random_quotient(rng, field, du, dv)
            f = rat_compose(g, h)
            assert solve_left_factor(f, h) == _ref_solve_left_factor(f, h) == g
            other = _random_quotient(rng, field, du, dv)
            assert solve_left_factor(f, other) == _ref_solve_left_factor(f, other)


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_pairs_sharing_a_factor_never_expand(rng, p):
    # the forms of (w a, w b) are w^m times those of (a, b), and f1, f2 are
    # coprime, so a right factor's pair stops expanding once w is shared
    field = PrimeField(p)
    for _ in range(10):
        du, dv = rng.choice(((2, 0), (2, 1), (3, 1), (0, 2), (1, 3)))
        g = _random_quotient(rng, field, 2, rng.randint(0, 2))
        h = _random_quotient(rng, field, du, dv)
        f = rat_compose(g, h)
        a, b = h.numerator, h.denominator
        w = Poly(field, [rng.randrange(p) for _ in range(rng.randint(1, 2))] + [1])
        f1, f2 = f.numerator.coeffs, f.denominator.coeffs
        assert oracle._left_factor(f1, f2, a.coeffs, b.coeffs, 2, p) is not None
        assert oracle._left_factor(f1, f2, (w * a).coeffs, (w * b).coeffs, 2, p) is None
    # and every pair of the fallback that shares a factor, on its own space
    f = parse_expression(_CONSTANT_ON_P1_MOD3, PrimeField(3))
    f1, f2 = f.numerator.coeffs, f.denominator.coeffs
    for k in _right_degrees(f.degree):
        shared = [(u, v) for u, v in _RightFactors(f).candidates(k)
                  if poly_gcd(Poly(f.field, u), Poly(f.field, v)).degree > 0]
        assert shared
        assert all(oracle._left_factor(f1, f2, u, v, f.degree // k, 3) is None for u, v in shared)


def test_decompose_returns_ratfun_witnesses_on_every_route():
    budget = OracleBudget()
    for source, field in (("x^4+x^2", QQ), ("x^9", PrimeField(3)),
                          ("(x^2+1)^2/x^2", PrimeField(3)), ("(x^2+1)^2/x^2", QQ)):
        f = parse_expression(source, field)
        search = decompose(f, budget)
        g, h = search.witness
        assert isinstance(g, RatFun) and isinstance(h, RatFun)
        assert rat_compose(g, h) == f
