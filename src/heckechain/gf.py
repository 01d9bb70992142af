"""Finite fields F_{p^d} with a canonical defining modulus.

Elements are encoded as integers in [0, p^d): the base-p digits of the encoding
are the coefficients of the residue polynomial, least significant digit first.
The defining modulus is the monic irreducible of degree d whose non-leading
coefficient vector has the smallest integer encoding, so fields are canonical
across runs and machines. Degree-1 fields reduce to plain mod-p arithmetic.

For d > 1, ``mul`` works by Kronecker substitution (von zur Gathen & Gerhard,
*Modern Computer Algebra*, 8.4): each operand's base-p digits are packed
into fixed-width slots of one Python int, least significant digit in the
lowest slot, and the two packed ints are multiplied once.  Slot i of the
product is the convolution coefficient of x^i, at most d(p-1)^2.  The top
d-1 slots are reduced mod p and folded back onto the low d slots through
packed precomputed residues of x^d, ..., x^(2d-2) mod the modulus, adding at
most (d-1)(p-1)^2 per slot.  The slot width is the smallest of 16, 32 or 64
bits that holds the bound 2d(p-1)^2 + p, so no slot ever carries into the
next; a field whose bound needs more than 64 bits is refused.  Packing goes
through a per-field table from c base-p digits to their packed value, with
p^c <= 4096, or digit by digit when p is too large for two digits to share
a chunk.  The low slots are read out through ``int.to_bytes`` and ``array``.
"""

from __future__ import annotations

import functools
import sys
from array import array

from . import polys
from .arith import DomainError, is_prime

_FIELD_CACHE: dict[tuple[int, int], "FiniteField"] = {}
_PACK_TABLE_LIMIT = 4096
_SLOT_TYPECODES = {array(t).itemsize * 8: t for t in "HILQ"}


def _pack_digits(digits, width: int) -> int:
    return sum(c << (i * width) for i, c in enumerate(digits))


@functools.cache
def _pack_table(p: int, chunk: int, width: int) -> tuple[int, ...]:
    """Packed value of every chunk of `chunk` base-p digits; fields of any
    degree over F_p with the same slot width share it."""
    return tuple(_pack_digits((v // p**j % p for j in range(chunk)), width) for v in range(p**chunk))


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
        """Canonical modulus and the packing data of ``mul``."""
        p, d = self.p, self.degree
        self._width = width = polys.slot_width(2 * d * (p - 1) ** 2 + p, f"F_{p}^{d}")
        self.modulus = _canonical_modulus(p, d)
        self._typecode = _SLOT_TYPECODES[width]
        chunk = 1
        while p ** (chunk + 1) <= _PACK_TABLE_LIMIT:
            chunk += 1
        self._chunk_base = p**chunk
        self._chunk_bits = chunk * width
        # A one-digit chunk packs to itself: no table, digit by digit.
        self._pack_table = _pack_table(p, chunk, width) if chunk > 1 else None
        # Packed x^i mod modulus for i = d .. 2d-2, built by x-shifts.
        self._fold = []
        r = [-c % p for c in self.modulus[:d]]
        for _ in range(d - 1):
            self._fold.append(_pack_digits(r, width))
            top = r[-1]
            r = [(x - top * m) % p for x, m in zip([0] + r[:-1], self.modulus)]

    def _pack(self, a: int) -> int:
        table, base, step = self._pack_table, self._chunk_base, self._chunk_bits
        out = 0
        shift = 0
        while a:
            a, r = divmod(a, base)
            if r:
                out |= (r if table is None else table[r]) << shift
            shift += step
        return out

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
            return a * b  # 0 and 1 need no packing
        p, d, w = self.p, self.degree, self._width
        pa = self._pack(a)
        prod = pa * (pa if a == b else self._pack(b))
        low_bits = d * w
        high = prod >> low_bits
        prod &= (1 << low_bits) - 1
        if high:
            slots = array(self._typecode, high.to_bytes((d - 1) * w // 8, sys.byteorder))
            for c, x in zip(slots, self._fold):
                c %= p
                if c:
                    prod += c * x
        out = 0
        for c in reversed(array(self._typecode, prod.to_bytes(low_bits // 8, sys.byteorder))):
            out = out * p + c % p
        return out

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
