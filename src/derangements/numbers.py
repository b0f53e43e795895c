"""Small exact number-theory helpers (trial division scale)."""

from __future__ import annotations

import math


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
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
