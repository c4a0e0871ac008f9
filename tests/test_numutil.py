import pytest

from ratprime import PreconditionError
from ratprime.numutil import _MR_BOUND, is_prime, smallest_prime_factor


def test_is_prime_matches_trial_division_below_2e5():
    for n in range(200_000):
        assert is_prime(n) == (n >= 2 and smallest_prime_factor(n) == n), n


@pytest.mark.parametrize("n", [
    2047, 1373653, 25326001, 3215031751,  # strong pseudoprimes to 2, ..., 2-7
    3825123056546413051,                   # and to every base up to 23
    561, 41041,                            # Carmichael numbers
])
def test_is_prime_rejects_pseudoprimes(n):
    assert not is_prime(n)


@pytest.mark.parametrize("n", [1_000_003, 2 ** 31 - 1, 2 ** 61 - 1])
def test_is_prime_accepts_word_primes(n):
    assert is_prime(n)


def test_is_prime_stays_exact_above_the_bound():
    n = 43 * 47 ** 15
    assert n > _MR_BOUND and not is_prime(n)


def test_is_prime_raises_above_the_bound_when_no_base_is_a_witness():
    # 2^89 - 1 is prime, so no base proves it composite, and above the bound
    # passing every base proves nothing
    with pytest.raises(PreconditionError, match=str(_MR_BOUND)):
        is_prime(2 ** 89 - 1)
