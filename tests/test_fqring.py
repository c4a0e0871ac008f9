from itertools import product
from math import factorial

import pytest

from ratprime import fqring
from ratprime._intpoly import mod_eval
from ratprime import (FqClass, Poly, PreconditionError, PrimeField, classify, from_table,
                      is_permutation, poly_compose, reduce_ring, ring_compose,
                      zero_divisor_witness)
from conftest import all_functions, fppoly


def test_reduce_ring_fermat():
    phi = reduce_ring(fppoly(3, 0, 0, 0, 1))  # x^3 over F_3
    assert phi.table == (0, 1, 2)
    assert phi.reduced == fppoly(3, 0, 1)


def test_reduce_ring_square():
    phi = reduce_ring(fppoly(3, 0, 0, 1))
    assert phi.table == (0, 1, 1)
    assert phi.reduced == fppoly(3, 0, 0, 1)


def test_reduce_ring_zero():
    phi = reduce_ring(Poly.zero(PrimeField(3)))
    assert phi.is_zero and phi.table == (0, 0, 0)


def test_reduce_ring_rejects_rationals():
    from ratprime import QQ
    with pytest.raises(PreconditionError):
        reduce_ring(Poly(QQ, (0, 1)))


def test_ring_size_is_capped_before_any_table(monkeypatch):
    # 2003 is the first prime past MAX_P = 2000: no value is evaluated, read
    # or interpolated before the error, which names the bound
    assert fqring.MAX_P == 2000
    for name in ("mod_eval", "interpolate"):
        monkeypatch.setattr(fqring, name, None)

    def values():
        raise AssertionError("the table was read")
        yield

    for p in (2003, 2**31 - 1):
        with pytest.raises(PreconditionError, match="p <= 2000"):
            reduce_ring(fppoly(p, 0, 0, 1))
        with pytest.raises(PreconditionError, match="p <= 2000"):
            from_table(p, values())
    monkeypatch.undo()
    # at the largest prime admitted, x^10000 + x is evaluated as its fold
    # x^(1 + 9999 mod 1998) + x, of degree < p
    lengths = []
    monkeypatch.setattr(fqring, "mod_eval",
                        lambda a, x, p: lengths.append(len(a)) or mod_eval(a, x, p))
    f = Poly(PrimeField(1999), [0, 1] + [0] * 9998 + [1])
    phi = reduce_ring(f)
    assert max(lengths) <= 1999 and len(phi.table) == 1999
    assert all(phi(a) == f(a) for a in (0, 1, 2, 1000, 1998))


def test_reduction_fixpoint():
    for p in (2, 3, 5):
        for coeffs in ((0, 1, 1), (1, 0, 0, 2), (0, 0, 0, 0, 0, 1, 1)):
            phi = reduce_ring(Poly(PrimeField(p), coeffs))
            again = reduce_ring(phi.reduced)
            assert again == phi


def test_from_table_round_trip(rng):
    for p in (2, 3, 5):
        for coeffs in ((0, 1, 1), (2, 1), (0, 0, 1)):
            phi = reduce_ring(Poly(PrimeField(p), coeffs))
            assert from_table(p, phi.table) == phi
    tables = [(p, t) for p in (2, 3) for t in product(range(p), repeat=p)]
    tables += [(p, tuple(rng.randrange(p) for _ in range(p)))
               for p in (5, 7) for _ in range(50)]
    for p, table in tables:
        phi = from_table(p, table)
        assert phi.table == table
        assert phi.reduced.degree < p
        assert reduce_ring(phi.reduced) == phi


def test_ring_compose_identity():
    one_plus = reduce_ring(fppoly(3, 1, 1))
    ident = reduce_ring(Poly.x(PrimeField(3)))
    assert ring_compose(one_plus, ident) == one_plus


def test_ring_compose_squares():
    sq = reduce_ring(fppoly(3, 0, 0, 1))
    comp = ring_compose(sq, sq)
    assert comp.table == (0, 1, 1)  # x^4 equals x^2 as a function


def test_ring_compose_annihilation():
    # psi = x^2 + 2x vanishes on the image {0, 1} of x^2 over F_3
    psi = reduce_ring(fppoly(3, 0, 2, 1))
    phi = reduce_ring(fppoly(3, 0, 0, 1))
    assert ring_compose(psi, phi).is_zero


def test_is_permutation():
    assert is_permutation(reduce_ring(Poly.x(PrimeField(5))))
    assert not is_permutation(reduce_ring(fppoly(3, 0, 0, 1)))
    assert is_permutation(reduce_ring(fppoly(2, 1, 1)))


def test_classify_examples():
    assert classify(reduce_ring(fppoly(3, 0, 0, 0, 1))) is FqClass.UNIT
    assert classify(reduce_ring(fppoly(3, 0, 0, 1))) is FqClass.ZERO_DIVISOR
    assert classify(reduce_ring(Poly.zero(PrimeField(3)))) is FqClass.ZERO


def test_zero_divisor_witness_square_mod3():
    phi = reduce_ring(fppoly(3, 0, 0, 1))
    psi = zero_divisor_witness(phi)
    assert psi.reduced == fppoly(3, 0, 2, 1)
    assert ring_compose(psi, phi).is_zero
    assert psi.table[2] == 2  # psi(2) != 0, so psi is not the zero function


def test_zero_divisor_witness_constant_mod2():
    phi = reduce_ring(fppoly(2, 1))  # constant 1
    psi = zero_divisor_witness(phi)
    assert psi.reduced == fppoly(2, 1, 1)
    assert ring_compose(psi, phi).is_zero


def test_zero_divisor_witness_rejects_zero_function():
    # x^2 + x is the zero function over F_2
    phi = reduce_ring(fppoly(2, 0, 1, 1))
    assert phi.is_zero
    with pytest.raises(PreconditionError):
        zero_divisor_witness(phi)


def test_zero_divisor_witness_rejects_units():
    with pytest.raises(PreconditionError):
        zero_divisor_witness(reduce_ring(Poly.x(PrimeField(3))))


def test_units_compose_iff_both_units_exhaustive_p3():
    functions = list(all_functions(3))
    assert len(functions) == 27
    for alpha, beta in product(functions, repeat=2):
        composed = ring_compose(alpha, beta)
        assert is_permutation(composed) == (is_permutation(alpha) and is_permutation(beta))


def test_trichotomy_partitions_everything():
    for p in (2, 3):
        counts = {FqClass.ZERO: 0, FqClass.UNIT: 0, FqClass.ZERO_DIVISOR: 0}
        for phi in all_functions(p):
            counts[classify(phi)] += 1
        assert counts[FqClass.ZERO] == 1
        assert sum(counts.values()) == p ** p


def test_witness_contract_exhaustive_small_fields():
    for p in (2, 3):
        ident = reduce_ring(Poly.x(PrimeField(p)))
        for phi in all_functions(p):
            if classify(phi) is not FqClass.ZERO_DIVISOR:
                continue
            psi = zero_divisor_witness(phi)
            assert not psi.is_zero
            assert ring_compose(psi, phi).is_zero
            shifted = psi + ident
            assert shifted != ident
            assert ring_compose(shifted, phi) == phi


def test_witness_contract_sampled_p5(rng):
    found = 0
    while found < 12:
        table = [rng.randrange(5) for _ in range(5)]
        phi = from_table(5, table)
        if classify(phi) is not FqClass.ZERO_DIVISOR:
            continue
        found += 1
        psi = zero_divisor_witness(phi)
        assert ring_compose(psi, phi).is_zero and not psi.is_zero


def test_count_permutations_small():
    # the units are the permutations, p! of the p^p functions
    for p in (2, 3):
        assert sum(map(is_permutation, all_functions(p))) == factorial(p)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_ring_compose_matches_polynomial_composition(rng, p):
    # the reference is the composition of the reduced representatives,
    # folded back below degree p
    for _ in range(25):
        alpha, beta = (from_table(p, [rng.randrange(p) for _ in range(p)]) for _ in "ab")
        composed = ring_compose(alpha, beta)
        assert composed == reduce_ring(poly_compose(alpha.reduced, beta.reduced))
        assert all(composed(a) == alpha(beta(a)) for a in range(p))
