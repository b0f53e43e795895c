"""Small exact number-theory helpers: primality by deterministic
Miller-Rabin, factorization by trial division."""

from __future__ import annotations

import math

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# the least strong pseudoprime to every base in _MR_BASES (Sorenson and
# Webster 2015): Miller-Rabin on those bases is exact below it
_MR_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Exact: Miller-Rabin on _MR_BASES below _MR_LIMIT; at and above it
    ValueError unless one of them divides n (trial division cannot end)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n >= _MR_LIMIT:
        raise ValueError(f"cannot decide primality at or above {_MR_LIMIT}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> dict:
    """Prime factorization {p: e} by trial division."""
    if n < 1:
        raise ValueError("factorize needs a positive integer")
    out: dict = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def prime_divisors(n: int) -> list:
    return sorted(factorize(n))


def radical(n: int) -> int:
    """Product of the distinct primes dividing n (radical(1) = 1)."""
    return math.prod(prime_divisors(n)) if n > 1 else 1


def primitive_root_mod(p: int) -> int:
    """Smallest primitive root modulo the prime p."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p == 2:
        return 1
    qs = prime_divisors(p - 1)
    g = 2
    while True:
        if all(pow(g, (p - 1) // q, p) != 1 for q in qs):
            return g
        g += 1
