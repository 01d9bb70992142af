from math import gcd

import pytest
from hypothesis import given, strategies as st

from heckechain.arith import (
    DomainError,
    crt_pair,
    divisors,
    euler_phi,
    factorize,
    is_prime,
    kronecker,
    legendre,
    next_prime,
    primes_up_to,
    symmetric_lift,
)


def brute_is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, int(n**0.5) + 1))


def test_is_prime_matches_brute_force_to_2000():
    for n in range(-3, 2000):
        assert is_prime(n) == brute_is_prime(n), n


def test_primes_up_to():
    assert primes_up_to(1) == []
    assert primes_up_to(2) == [2]
    assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_next_prime():
    assert next_prime(1) == 2
    assert next_prime(2) == 3
    assert next_prime(13) == 17
    assert next_prime(100) == 101


@given(st.integers(min_value=2, max_value=50000))
def test_factorize_reconstructs(n):
    fac = factorize(n)
    prod = 1
    for p, e in fac.items():
        assert is_prime(p)
        prod *= p**e
    assert prod == n


def test_divisors_and_phi():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert euler_phi(1) == 1
    assert euler_phi(12) == 4
    for n in range(1, 200):
        assert euler_phi(n) == sum(1 for a in range(1, n + 1) if gcd(a, n) == 1)


def test_legendre_euler_criterion():
    for q in [3, 5, 7, 11, 13, 17]:
        for a in range(1, q):
            expect = 1 if pow(a, (q - 1) // 2, q) == 1 else -1
            assert legendre(a, q) == expect
        assert legendre(q, q) == 0


def test_kronecker_agrees_with_legendre_at_odd_primes():
    for q in [3, 5, 7, 11, 13]:
        for a in range(-20, 20):
            assert kronecker(a, q) == legendre(a, q)


def test_kronecker_quadratic_character_mod_8():
    # (2/n) for odd n depends only on n mod 8.
    for n in [3, 5, 7, 11, 13, 17]:
        expect = 1 if n % 8 in (1, 7) else -1
        assert kronecker(2, n) == expect


def test_crt_pair():
    r, m = crt_pair(2, 3, 3, 5)
    assert m == 15 and r % 3 == 2 and r % 5 == 3
    r, m = crt_pair(1, 8, 12, 13)
    assert m == 104 and r % 8 == 1 and r % 13 == 12
    with pytest.raises(DomainError):
        crt_pair(1, 6, 1, 4)


@given(*[st.integers(min_value=1, max_value=10**4)] * 2, *[st.integers(-(10**6), 10**6)] * 2)
def test_crt_pair_solves_both_congruences(m1, m2, r1, r2):
    if gcd(m1, m2) != 1:
        with pytest.raises(DomainError):
            crt_pair(r1, m1, r2, m2)
    else:
        r, m = crt_pair(r1, m1, r2, m2)
        assert m == m1 * m2 and 0 <= r < m
        assert (r - r1) % m1 == 0 and (r - r2) % m2 == 0


@given(st.integers(min_value=2, max_value=1000), st.integers())
def test_symmetric_lift_window(m, r):
    v = symmetric_lift(r, m)
    assert -m < 2 * v <= m
    assert (v - r) % m == 0
