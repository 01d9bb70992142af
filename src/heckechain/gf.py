"""Finite fields F_{p^d} with a canonical defining modulus.

Elements are encoded as integers in [0, p^d): the base-p digits of the encoding
are the coefficients of the residue polynomial, least significant digit first.
The defining modulus is the monic irreducible of degree d whose non-leading
coefficient vector has the smallest integer encoding, so fields are canonical
across runs and machines. Degree-1 fields reduce to plain mod-p arithmetic.
"""

from __future__ import annotations

from . import polys
from .arith import DomainError, ext_gcd, is_prime

_FIELD_CACHE: dict[tuple[int, int], "FiniteField"] = {}


def _poly_mul_mod(a: list[int], b: list[int], mod: list[int], p: int) -> list[int]:
    # Dense little-endian product reduced by the monic modulus.  Kept apart
    # from polys.mul/mod: FiniteField.mul is the hottest path, and going
    # through field-element polynomials would slow it down.
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    d = len(mod) - 1
    for i in range(len(out) - 1, d - 1, -1):
        c = out[i]
        if c:
            out[i] = 0
            for j in range(d):
                out[i - d + j] = (out[i - d + j] - c * mod[j]) % p
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def _canonical_modulus(p: int, d: int) -> tuple[int, ...]:
    """Monic irreducible of degree d over F_p with smallest encoded low part."""
    for low in range(p**d):
        coeffs = []
        n = low
        for _ in range(d):
            coeffs.append(n % p)
            n //= p
        coeffs.append(1)
        if polys.is_irreducible(field(p), tuple(coeffs)):
            return tuple(coeffs)
    raise AssertionError("no irreducible polynomial found")  # unreachable


class FiniteField:
    """Arithmetic on integer-encoded elements of F_{p^d}."""

    def __init__(self, p: int, degree: int = 1):
        if not is_prime(p):
            raise DomainError(f"field characteristic {p} is not prime")
        if degree < 1:
            raise DomainError("field degree must be positive")
        self.p = p
        self.degree = degree
        self.order = p**degree
        self.modulus: tuple[int, ...] = (
            (0, 1) if degree == 1 else _canonical_modulus(p, degree)
        )
        self.zero = 0
        self.one = 1

    def __repr__(self) -> str:
        return f"FiniteField({self.p}, {self.degree})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FiniteField)
            and other.p == self.p
            and other.degree == self.degree
        )

    def __hash__(self) -> int:
        return hash((self.p, self.degree))

    # -- encoding ---------------------------------------------------------

    def encode(self, coeffs) -> int:
        e = 0
        for c in reversed(list(coeffs)):
            e = e * self.p + int(c) % self.p
        return e

    def decode(self, a: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.degree):
            out.append(a % self.p)
            a //= self.p
        return tuple(out)

    def from_int(self, n: int) -> int:
        return n % self.p

    # -- arithmetic --------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.degree == 1:
            return (a + b) % self.p
        p = self.p
        out = 0
        mult = 1
        while a or b:
            out += (a % p + b % p) % p * mult
            a //= p
            b //= p
            mult *= p
        return out

    def neg(self, a: int) -> int:
        if self.degree == 1:
            return -a % self.p
        p = self.p
        out = 0
        mult = 1
        while a:
            out += (-a % p) % p * mult  # negate each digit
            a //= p
            mult *= p
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.degree == 1:
            return a * b % self.p
        if a == 0 or b == 0:
            return 0
        prod = _poly_mul_mod(list(self.decode(a)), list(self.decode(b)), list(self.modulus), self.p)
        return self.encode(prod)

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        if self.degree == 1:
            return pow(a, e, self.p)
        r = 1
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            e >>= 1
        return r

    def inv(self, a: int) -> int:
        if a == 0:
            raise DomainError("division by zero in finite field")
        if self.degree == 1:
            g, x, _ = ext_gcd(a, self.p)
            return x % self.p
        # Extended Euclid on the residue polynomial and the modulus over F_p.
        return self.encode(polys.xgcd(field(self.p), polys.trim(self.decode(a)), self.modulus)[1])

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def frobenius(self, a: int, times: int = 1) -> int:
        return self.pow(a, self.p ** (times % self.degree))

    def scalar_mul(self, c: int, a: int) -> int:
        """Multiply by c from the prime subfield; c is a plain residue."""
        if self.degree == 1:
            return c * a % self.p
        p = self.p
        out = 0
        mult = 1
        c %= p
        while a:
            out += a % p * c % p * mult
            a //= p
            mult *= p
        return out

    def elements(self):
        return range(self.order)


def field(p: int, degree: int = 1) -> FiniteField:
    """Cached canonical field; identical objects for identical parameters."""
    key = (p, degree)
    if key not in _FIELD_CACHE:
        _FIELD_CACHE[key] = FiniteField(p, degree)
    return _FIELD_CACHE[key]
