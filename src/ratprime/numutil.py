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


def is_prime(n: int) -> bool:
    """Trial-division primality test; fine for desk-scale inputs."""
    return n >= 2 and smallest_prime_factor(n) == n


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
