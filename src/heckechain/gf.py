"""Finite fields F_{p^d} with a canonical defining modulus.

Elements are encoded as integers in [0, p^d): the base-p digits of the encoding
are the coefficients of the residue polynomial, least significant digit first.
The defining modulus is the monic irreducible of degree d whose non-leading
coefficient vector has the smallest integer encoding, so fields are canonical
across runs and machines. Degree-1 fields reduce to plain mod-p arithmetic.
"""

from __future__ import annotations

from .arith import DomainError, ext_gcd, is_prime

_FIELD_CACHE: dict[tuple[int, int], "FiniteField"] = {}


def _poly_mul_mod(a: list[int], b: list[int], mod: list[int], p: int) -> list[int]:
    # Dense little-endian product reduced by the monic modulus.
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


def _poly_powmod_x(e: int, mod: list[int], p: int) -> list[int]:
    """x^e mod (mod), little-endian coefficients."""
    result = [1]
    base = [0, 1] if len(mod) > 2 else [(-mod[0]) % p]
    while e:
        if e & 1:
            result = _poly_mul_mod(result, base, mod, p)
        base = _poly_mul_mod(base, base, mod, p)
        e >>= 1
    return result


def _is_irreducible(coeffs: list[int], p: int) -> bool:
    # coeffs monic, little-endian, degree d >= 1.
    d = len(coeffs) - 1
    if d == 1:
        return True
    xq = _poly_powmod_x(p**d, coeffs, p)
    if xq != [0, 1]:
        return False
    for r in {r for r in range(2, d + 1) if d % r == 0 and _prime(r)}:
        xe = _poly_powmod_x(p ** (d // r), coeffs, p)
        g = _poly_gcd([(a - b) % p for a, b in _zip_pad(xe, [0, 1])], coeffs, p)
        if len(g) > 1:
            return False
    return True


def _prime(n: int) -> bool:
    return n >= 2 and all(n % k for k in range(2, int(n**0.5) + 1))


def _zip_pad(a: list[int], b: list[int]):
    n = max(len(a), len(b))
    return zip(a + [0] * (n - len(a)), b + [0] * (n - len(b)))


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a = _trim(list(a))
    b = _trim(list(b))
    while b != [0]:
        a, b = b, _poly_rem(a, b, p)
    if a == [0]:
        return a
    inv = pow(a[-1], p - 2, p)
    return [c * inv % p for c in a]


def _poly_rem(a: list[int], b: list[int], p: int) -> list[int]:
    a = list(a)
    db = len(b) - 1
    inv = pow(b[-1], p - 2, p)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i] * inv % p
        if c:
            for j in range(db + 1):
                a[i - db + j] = (a[i - db + j] - c * b[j]) % p
    return _trim(a[:db] or [0])


def _trim(a: list[int]) -> list[int]:
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return a


def _canonical_modulus(p: int, d: int) -> tuple[int, ...]:
    """Monic irreducible of degree d over F_p with smallest encoded low part."""
    for low in range(p**d):
        coeffs = []
        n = low
        for _ in range(d):
            coeffs.append(n % p)
            n //= p
        coeffs.append(1)
        if _is_irreducible(coeffs, p):
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

    def in_prime_subfield(self, a: int) -> bool:
        return a < self.p

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
        return self.pow(a, self.order - 2)

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
