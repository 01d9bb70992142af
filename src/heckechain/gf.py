"""Finite fields F_{p^d} with a canonical defining modulus.

Elements are encoded as integers in [0, p^d): the base-p digits of the encoding
are the coefficients of the residue polynomial, least significant digit first.
The defining modulus is the monic irreducible of degree d whose non-leading
coefficient vector has the smallest integer encoding, so fields are canonical
across runs and machines. Degree-1 fields reduce to plain mod-p arithmetic.

For d > 1, ``fold`` holds the base-p digits of alpha^d, ..., alpha^(2d-2),
alpha the class of x, one read-only row each.  ``mul`` convolves the two digit vectors
and folds the product's top d-1 coefficients back through it; ``polys.pow_mod``
reads the same table.  Those sums stay below 2d(p-1)^2 + p, so a field where
that bound needs more than 64 bits is refused.
"""

from __future__ import annotations

import numpy as np

from . import polys
from .arith import DomainError, is_prime

_FIELD_CACHE: dict[tuple[int, int], "FiniteField"] = {}


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
        self.modulus: tuple[int, ...] = (0, 1)
        self.zero = 0
        self.one = 1
        if degree > 1:
            self._init_extension()

    def _init_extension(self) -> None:
        """Canonical modulus and the fold table of ``mul``."""
        p, d = self.p, self.degree
        if (2 * d * (p - 1) ** 2 + p).bit_length() > 64:  # mul's sums must fit uint64
            raise DomainError(f"F_{p}^{d} is too large for uint64 products")
        self.modulus = _canonical_modulus(p, d)
        top = np.fromiter((-c % p for c in self.modulus[:d]), np.uint64, d).reshape(1, d)
        self.fold = polys.fold_map(top, d - 1, p)
        self.fold.flags.writeable = False

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
        return self.encode(x + y for x, y in zip(self.decode(a), self.decode(b)))

    def neg(self, a: int) -> int:
        if self.degree == 1:
            return -a % self.p
        return self.encode(-x for x in self.decode(a))

    def sub(self, a: int, b: int) -> int:
        if self.degree == 1:
            return (a - b) % self.p
        return self.encode(x - y for x, y in zip(self.decode(a), self.decode(b)))

    def mul(self, a: int, b: int) -> int:
        if self.degree == 1:
            return a * b % self.p
        if a <= 1 or b <= 1:
            return a * b
        p, d = self.p, self.degree
        da, db = (np.fromiter(self.decode(x), np.uint64, d) for x in (a, b))
        c = np.convolve(da, db) % p
        # Every sum stays below 2d(p-1)^2 + p, which the constructor checks.
        return self.encode(((c[:d] + c[d:] @ self.fold) % p).tolist())

    def pow(self, a: int, e: int) -> int:
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
            return pow(a, -1, self.p)
        # Extended Euclid on the residue polynomial and the modulus over F_p.
        return self.encode(polys.xgcd(field(self.p), polys.trim(self.decode(a)), self.modulus)[1])

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def frobenius(self, a: int, times: int = 1) -> int:
        return self.pow(a, self.p ** (times % self.degree))

    def elements(self):
        return range(self.order)


def field(p: int, degree: int = 1) -> FiniteField:
    """Cached canonical field; identical objects for identical parameters."""
    key = (p, degree)
    if key not in _FIELD_CACHE:
        _FIELD_CACHE[key] = FiniteField(p, degree)
    return _FIELD_CACHE[key]
