"""Small integer helpers used by the primality certificates and the oracle."""

from __future__ import annotations

from .errors import PreconditionError

__all__ = ["is_prime", "smallest_prime_factor", "prime_factors",
           "greatest_proper_divisor", "proper_composite_divisors"]


def smallest_prime_factor(n: int) -> int:
    if n < 2:
        raise PreconditionError("need n >= 2")
    if n % 2 == 0:
        return 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return d
        d += 2
    return n


# Miller-Rabin with the first 13 prime bases is proven deterministic below
# _MR_BOUND (Sorenson-Webster 2015)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic primality test: Miller-Rabin with the bases 2..41.
    At or above _MR_BOUND a witness still proves n composite, but passing
    every base proves nothing, so that raises PreconditionError."""
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_BOUND:
        raise PreconditionError(f"is_prime is deterministic only below {_MR_BOUND}")
    return True


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of |n|, ascending; empty for |n| <= 1."""
    n = abs(n)
    out = []
    while n > 1:
        p = smallest_prime_factor(n)
        out.append(p)
        while n % p == 0:
            n //= p
    return out


def greatest_proper_divisor(n: int) -> int:
    """Largest divisor of n strictly below n, i.e. n over its smallest prime factor."""
    if n < 2:
        raise PreconditionError("greatest proper divisor needs n >= 2")
    return n // smallest_prime_factor(n)


def proper_composite_divisors(n: int) -> list[int]:
    """Divisors k of n with 2 <= k <= n // 2, ascending (right-factor degrees)."""
    return [k for k in range(2, n // 2 + 1) if n % k == 0]
