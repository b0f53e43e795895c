"""Arithmetic helpers: primality, factorization, radicals, primitive roots."""

import math

import pytest
from hypothesis import given, strategies as st

from derangements import natural_action
from derangements.elusive import is_r_elusive
from derangements.numbers import (_MR_LIMIT, factorize, is_prime,
                                  prime_divisors, primitive_root_mod, radical)

from tests.conftest import symmetric


def test_small_primes():
    primes = [n for n in range(60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31,
                      37, 41, 43, 47, 53, 59]


def test_known_factorizations():
    assert factorize(1) == {}
    assert factorize(2**7 * 3**2 * 7**2 * 127) == {2: 7, 3: 2, 7: 2, 127: 1}
    assert prime_divisors(7920) == [2, 3, 5, 11]
    assert radical(63) == 21
    assert radical(1) == 1


@given(st.integers(min_value=1, max_value=200000))
def test_factorize_reconstructs(n):
    f = factorize(n)
    prod = 1
    for p, e in f.items():
        assert is_prime(p)
        prod *= p ** e
    assert prod == n


@given(st.integers(min_value=2, max_value=5000))
def test_radical_is_squarefree_part(n):
    r = radical(n)
    assert n % r == 0
    assert set(prime_divisors(r)) == set(prime_divisors(n))
    for p in prime_divisors(r):
        assert r % (p * p) != 0


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 127])
def test_primitive_root(p):
    g = primitive_root_mod(p)
    seen = {pow(g, k, p) for k in range(1, p)}
    assert seen == set(range(1, p))


def test_primitive_root_rejects_composite():
    with pytest.raises(ValueError):
        primitive_root_mod(8)


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


@given(st.integers(min_value=0, max_value=10**6))
def test_is_prime_agrees_with_trial_division(n):
    assert is_prime(n) == _trial_division(n)


def test_is_prime_matches_trial_division_below_10_5():
    assert all(is_prime(n) == _trial_division(n) for n in range(10**5))


@pytest.mark.parametrize("n, factor", [
    (3215031751, 151),                # strong pseudoprime to bases 2, 3, 5, 7
    (3825123056546413051, 149491),    # strong pseudoprime to bases 2 to 31
])
def test_is_prime_rejects_strong_pseudoprimes(n, factor):
    assert n % factor == 0
    assert not is_prime(n)


def test_huge_prime_is_not_applicable_to_a_small_group():
    v = is_r_elusive(natural_action(symmetric(3), "S3"), 10**15 + 37)
    assert v.status == "NotApplicable"


def test_is_prime_refuses_what_it_cannot_decide():
    # at and above _MR_LIMIT nothing here tells a prime from a composite in
    # bounded time, so the answer is refused; a factor among the
    # Miller-Rabin bases still decides, and so do the elusive entry points'
    # ValueError for an r that is not known prime
    for n in (_MR_LIMIT, 2**89 - 1):
        with pytest.raises(ValueError, match=str(_MR_LIMIT)):
            is_prime(n)
    assert not is_prime(2**90)
    assert not is_prime(41 * _MR_LIMIT)
    with pytest.raises(ValueError, match=str(_MR_LIMIT)):
        is_r_elusive(natural_action(symmetric(3), "S3"), 2**89 - 1)
