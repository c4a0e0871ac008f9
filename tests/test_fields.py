from fractions import Fraction

import pytest

from ratprime import Poly, PreconditionError, PrimeField, QQ, fields, parse_field
from ratprime.errors import FieldMismatchError
from ratprime.numutil import is_prime


def test_prime_field_rejects_composite():
    with pytest.raises(PreconditionError):
        PrimeField(6)
    with pytest.raises(PreconditionError):
        PrimeField(1)


def test_fp_arithmetic():
    # F_p scalars are ints in [0, p): field(...) reduces, field.div inverts
    F7 = PrimeField(7)
    a, b = F7(3), F7(5)
    assert (a, b) == (3, 5)
    assert F7(a + b) == F7(1)
    assert F7(a - b) == F7(5)
    assert F7(a * b) == F7(1)
    assert F7.div(a, b) == F7(3 * 3)  # 1/5 = 3 mod 7
    assert F7(-a) == F7(4)
    assert F7.div(1, a) == F7(5)
    assert bool(F7(0)) is False and bool(a) is True
    with pytest.raises(ZeroDivisionError):
        F7.div(a, 14)


def test_fp_int_coercion():
    F5 = PrimeField(5)
    assert F5(F5(2) + 4) == F5(1)
    assert F5(3 * F5(4)) == F5(2)
    assert F5(7) == 2
    assert F5(-1) == 4


def test_fp_mismatched_moduli():
    # bare residues carry no modulus; polynomials over distinct fields still
    # refuse to mix
    with pytest.raises(FieldMismatchError):
        Poly(PrimeField(5), [1, 1]) + Poly(PrimeField(7), [1, 1])


def test_rationals_construct_fractions():
    assert QQ(3) == Fraction(3)
    assert QQ(Fraction(2, 4)) == Fraction(1, 2)
    assert QQ.div(1, 2) == Fraction(1, 2) and isinstance(QQ.div(1, 2), Fraction)
    with pytest.raises(ZeroDivisionError):
        QQ.div(1, 0)
    assert QQ.char == 0 and PrimeField(5).char == 5


def test_prime_field_maps_fractions():
    F5 = PrimeField(5)
    assert F5(Fraction(1, 2)) == F5(3) == 3  # 2 * 3 = 1 mod 5
    assert F5(Fraction(-7, 3)) == 1  # 3 * 1 = -7 mod 5
    with pytest.raises(ZeroDivisionError):
        F5(Fraction(1, 5))


def test_parse_field():
    assert parse_field("Q") is QQ or parse_field("Q") == QQ
    assert parse_field("F5") == PrimeField(5)
    with pytest.raises(PreconditionError):
        parse_field("F6")
    with pytest.raises(PreconditionError):
        parse_field("R")


def test_field_elements_enumeration():
    # the elements of F_p are the residues range(p)
    assert sorted({PrimeField(3)(a) for a in range(-6, 7)}) == [0, 1, 2]


def test_prime_field_rejects_moduli_above_the_primality_bound():
    # 2^89 - 1 is prime, but above the deterministic Miller-Rabin bound only
    # trial division could confirm it
    with pytest.raises(PreconditionError, match="3317044064679887385961981"):
        PrimeField(2**89 - 1)
    with pytest.raises(PreconditionError, match="3317044064679887385961981"):
        parse_field("F" + "7" * 5000)
    assert parse_field("F000005") == PrimeField(5)


def test_prime_field_tests_each_modulus_once(monkeypatch):
    calls = []
    monkeypatch.setattr(fields, "is_prime", lambda p: calls.append(p) or is_prime(p))
    fields._is_prime.cache_clear()
    assert PrimeField(2**31 - 1) == PrimeField(2**31 - 1)
    assert calls == [2**31 - 1]
    # the verdict is cached, the error is raised on every call
    for _ in range(2):
        with pytest.raises(PreconditionError, match="4 is not prime"):
            PrimeField(4)
    assert calls == [2**31 - 1, 4]
    for _ in range(2):
        with pytest.raises(PreconditionError, match="3317044064679887385961981"):
            PrimeField(2**89 - 1)
    assert calls == [2**31 - 1, 4]
