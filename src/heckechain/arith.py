"""Elementary number theory helpers: primality, symbols, CRT, factorization.

Everything here is deterministic. Primality uses Miller-Rabin with a base set
proven sufficient below 3.3 * 10^24, far beyond any input this package meets.
"""

from __future__ import annotations

import math


class DomainError(ValueError):
    """Raised when an operation's stated precondition is violated."""


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
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
    return True


def next_prime(n: int) -> int:
    """Smallest prime strictly greater than n."""
    n += 1
    while not is_prime(n):
        n += 1
    return n


def primes_up_to(bound: int) -> list[int]:
    """All primes p <= bound, ascending."""
    if bound < 2:
        return []
    sieve = bytearray([1]) * (bound + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, int(math.isqrt(bound)) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i, v in enumerate(sieve) if v]


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division; inputs here are desk-scale."""
    if n <= 0:
        raise DomainError("factorize expects a positive integer")
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 7
    while f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisors(n: int) -> list[int]:
    """All positive divisors, ascending."""
    out = [1]
    for p, e in factorize(n).items():
        out = [d * p**i for d in out for i in range(e + 1)]
    return sorted(out)


def euler_phi(n: int) -> int:
    out = 1
    for p, e in factorize(n).items():
        out *= p ** (e - 1) * (p - 1)
    return out


def legendre(a: int, q: int) -> int:
    """Legendre symbol (a/q) for an odd prime q, via Euler's criterion."""
    if q == 2 or not is_prime(q):
        raise DomainError("legendre requires an odd prime modulus")
    a %= q
    if a == 0:
        return 0
    return 1 if pow(a, (q - 1) // 2, q) == 1 else -1


def kronecker(a: int, q: int) -> int:
    """Kronecker symbol (a/q) at a prime q: the Legendre symbol for odd q;
    at 2 it is 0 for even a and otherwise +1 or -1 as a = +-1 or +-3 mod 8."""
    if q != 2:
        return legendre(a, q)
    if a % 2 == 0:
        return 0
    return 1 if a % 8 in (1, 7) else -1


def crt_pair(r1: int, m1: int, r2: int, m2: int) -> tuple[int, int]:
    """Combine x = r1 (m1), x = r2 (m2) for coprime moduli; returns (r, m1*m2)."""
    if math.gcd(m1, m2) != 1:
        raise DomainError("crt_pair requires coprime moduli")
    m = m1 * m2
    return (r1 + (r2 - r1) * pow(m1, -1, m2) % m2 * m1) % m, m


def symmetric_lift(r: int, m: int) -> int:
    """Representative of r mod m in (-m/2, m/2]."""
    r %= m
    return r - m if 2 * r > m else r
