"""Univariate polynomial arithmetic and factorization over finite fields.

Polynomials are tuples of field-element encodings, little endian, with no
trailing zeros; the zero polynomial is the empty tuple. Factorization runs
squarefree / distinct-degree (by the Frobenius matrix, von zur Gathen &
Gerhard, *Modern Computer Algebra*, 14.2) / equal-degree splitting with a
PRNG seeded from the input, so factors and their order are reproducible;
the equal-degree step, and with it root finding, needs odd characteristic.

Over F = F_{p^d}, d > 1, a polynomial is an array of base-p digit rows, one
per coefficient; ``divmod_poly``, ``gcd`` (by cross-multiplying, so only its
final monic scaling inverts) and ``scale`` multiply rows by the d x d F_p
matrix of an element.  ``pow_mod`` packs the rows of an element of F[x]/(m),
n = deg m, into one int, the digit of x^i alpha^j in slot i(2d-1) + j, so a
product is one big-int multiply (Kronecker substitution, von zur Gathen &
Gerhard, *Modern Computer Algebra*, 8.4).  A product slot sums at most
nd(p-1)^2; ``slot_width`` picks the smallest of 16, 32 or 64 bits that holds
it, else refuses.  numpy folds alpha-degrees d .. 2d-2 back through F's
``fold`` table and x-degrees n .. 2n-2 through one F_p-linear map per ring;
``one_root`` raises through the norm when f lies over F_p.  d = 1 runs ``add``,
``mul``, ``divmod_poly`` and the Frobenius step on plain ints.
"""

from __future__ import annotations

import random
from itertools import accumulate
from typing import TYPE_CHECKING

import numpy as np

from .arith import DomainError

if TYPE_CHECKING:
    from .gf import FiniteField

Poly = tuple[int, ...]

X: Poly = (0, 1)


def trim(coeffs) -> Poly:
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def degree(f: Poly) -> int:
    return len(f) - 1  # zero polynomial gets -1


def add(F: FiniteField, f: Poly, g: Poly) -> Poly:
    n = max(len(f), len(g))
    f = f + (0,) * (n - len(f))
    g = g + (0,) * (n - len(g))
    if F.degree == 1:
        return trim([(a + b) % F.p for a, b in zip(f, g)])
    return trim(F.add(a, b) for a, b in zip(f, g))


def neg(F: FiniteField, f: Poly) -> Poly:
    if F.degree == 1:
        return tuple(-a % F.p for a in f)
    return tuple(F.neg(a) for a in f)


def sub(F: FiniteField, f: Poly, g: Poly) -> Poly:
    return add(F, f, neg(F, g))


def mul(F: FiniteField, f: Poly, g: Poly) -> Poly:
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    if F.degree == 1:  # plain ints, one reduction per coefficient
        for i, a in enumerate(f):
            for j, b in enumerate(g, i):
                out[j] += a * b
        return trim([c % F.p for c in out])
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                if b:
                    out[i + j] = F.add(out[i + j], F.mul(a, b))
    return trim(out)


def scale(F: FiniteField, c: int, f: Poly) -> Poly:
    if c == 0:
        return ()
    if F.degree > 1:
        return _unrows(F, _rows(F, f) @ _times(F, _rows(F, (c,))[0]) % F.p)
    return trim(F.mul(c, a) for a in f)


def _rows(F: FiniteField, f: Poly) -> np.ndarray:
    """The base-p digits of f's coefficients, one row each."""
    return np.array([F.decode(c) for c in f], dtype=np.uint64).reshape(-1, F.degree)


def _unrows(F: FiniteField, rows: np.ndarray) -> Poly:
    return trim(F.encode(r) for r in rows.tolist())


def _times(F: FiniteField, c: np.ndarray) -> np.ndarray:
    """Multiplication by the digit row c as a d x d F_p matrix, row j the
    digits of c alpha^j: ``rows @ _times(F, c)`` scales each row by c."""
    p, d = F.p, F.degree
    shifted = np.zeros((d, 2 * d - 1), dtype=np.uint64)
    shifted[np.arange(d)[:, None], np.arange(d)[:, None] + np.arange(d)] = c
    return (shifted[:, :d] + shifted[:, d:] @ F.fold % p) % p


def divmod_poly(F: FiniteField, f: Poly, g: Poly) -> tuple[Poly, Poly]:
    if not g:
        raise DomainError("polynomial division by zero")
    if len(f) < len(g):
        return (), f
    rem = list(f)
    dg = degree(g)
    inv_lead = F.inv(g[-1])
    if F.degree > 1:  # digit rows, g made monic; row i >= dg is final once it leads
        p, inv = F.p, _times(F, _rows(F, (inv_lead,))[0])
        gm, rem = _rows(F, g[:-1]) @ inv % p, _rows(F, f)
        for i in range(len(f) - 1, dg - 1, -1):
            rem[i - dg : i] = (rem[i - dg : i] + p - gm @ _times(F, rem[i]) % p) % p
        return _unrows(F, rem[dg:] @ inv % p), _unrows(F, rem[:dg])
    quo = [0] * (len(f) - dg)  # plain ints; rem[i] is reduced when it leads
    for i in range(len(f) - 1, dg - 1, -1):
        quo[i - dg] = c = rem[i] * inv_lead % F.p
        for j, b in enumerate(g, i - dg):
            rem[j] -= c * b
    return trim(quo), trim([r % F.p for r in rem[:dg]])


def mod(F: FiniteField, f: Poly, g: Poly) -> Poly:
    return divmod_poly(F, f, g)[1]


def monic(F: FiniteField, f: Poly) -> Poly:
    if not f:
        return f
    return scale(F, F.inv(f[-1]), f)


def gcd(F: FiniteField, f: Poly, g: Poly) -> Poly:
    if F.degree == 1:
        while g:
            f, g = g, mod(F, f, g)
        return monic(F, f)
    # Digit rows: a -> lc(b) a - lc(a) x^k b takes no inverse; monic takes one.
    p, a, b = F.p, _rows(F, f), _rows(F, g)
    while len(b):
        lead = _times(F, b[-1])
        while len(a) >= len(b):
            top, k = _times(F, a[-1]), len(a) - len(b)
            a = a @ lead % p
            a[k:] = (a[k:] + p - b @ top % p) % p
            while len(a) and not a[-1].any():
                a = a[:-1]
        a, b = b, a
    return monic(F, _unrows(F, a))


def xgcd(F: FiniteField, f: Poly, g: Poly) -> tuple[Poly, Poly]:
    """Monic gcd d of f and g, not both zero, with s such that s*f = d mod g."""
    r0, r1, s0, s1 = f, g, (1,), ()
    while r1:
        q, r = divmod_poly(F, r0, r1)
        r0, r1, s0, s1 = r1, r, s1, sub(F, s0, mul(F, q, s1))
    c = F.inv(r0[-1])
    return scale(F, c, r0), scale(F, c, s0)


def slot_width(bound: int, what: str) -> int:
    """Smallest of 16, 32 or 64 bits that holds a packed slot's bound."""
    bits = bound.bit_length()
    for width in (16, 32, 64):
        if bits <= width:
            return width
    raise DomainError(f"{what} is too large for packed multiplication: slot bound has {bits} bits")


def fold_map(top: np.ndarray, count: int, p: int) -> np.ndarray:
    """F_p-linear map from coefficients (b digits each) at y^n .. y^(n+count-1)
    to their residues mod a monic g of degree n, b rows per power; ``top`` is
    the block of y^n, the products with -g_0 .. -g_(n-1)."""
    b = top.shape[0]
    blocks = [top]
    for _ in range(count - 1):
        cur = blocks[-1]
        blocks.append((np.pad(cur[:, :-b], ((0, 0), (b, 0))) + cur[:, -b:] @ top % p) % p)
    return np.vstack(blocks)[: count * b]


def _packed_ring(F: FiniteField, m: Poly):
    """pack, unpack and mulmod of F[x]/(m), F = F_{p^d}, d > 1, m monic."""
    p, d, n = F.p, F.degree, degree(m)
    width = slot_width(n * d * (p - 1) ** 2, f"F_{p}^{d}[x] mod a degree-{n} polynomial")
    dtype = np.dtype(f"<u{width // 8}")
    stride = 2 * d - 1  # alpha-degrees of one x-coefficient of a product
    nbytes = stride * dtype.itemsize  # per x-coefficient

    def pack(rows: np.ndarray) -> int:
        out = np.zeros((n, stride), dtype=dtype)
        out[: len(rows), :d] = rows
        return int.from_bytes(out.tobytes(), "little")

    def unpack(a: int) -> np.ndarray:
        rows = np.frombuffer(a.to_bytes(n * nbytes, "little"), dtype).reshape(n, stride)
        return rows[:, :d].astype(np.uint64)

    # alpha^d .. alpha^(2d-2) mod F's modulus, then multiplication by each -m_k.
    alpha = F.fold
    powers = np.vstack([np.eye(d, dtype=np.uint64), alpha])
    window = np.stack([powers[t : t + d] for t in range(d)])
    neg = np.tensordot((p - _rows(F, m[:n])) % p, window, 1) % p
    xfold = fold_map(neg.transpose(1, 0, 2).reshape(d, n * d), n - 1, p)

    def mulmod(a: int, b: int) -> int:
        # No sum below exceeds nd(p-1)^2, which fits the slot, so uint64 is exact.
        c = np.frombuffer((a * b).to_bytes((2 * n - 1) * nbytes, "little"), dtype)
        c = c.reshape(2 * n - 1, stride).astype(np.uint64) % p
        c = (c[:, :d] + c[:, d:] @ alpha % p) % p
        low = (c[:n].reshape(-1) + c[n:].reshape(-1) @ xfold % p) % p
        return pack(low.reshape(n, d))

    return pack, unpack, mulmod


def _pow_packed(mulmod, a: int, e: int) -> int:
    result = 1  # the packed constant 1
    for bit in bin(e)[2:]:
        result = mulmod(result, result)
        if bit == "1":
            result = mulmod(result, a)
    return result


def pow_mod(F: FiniteField, f: Poly, e: int, m: Poly) -> Poly:
    f = mod(F, f, m)
    if not f:  # so the packed path never meets a constant m
        return () if e else (1,)
    if F.degree > 1:
        pack, unpack, mulmod = _packed_ring(F, monic(F, m))
        return _unrows(F, unpack(_pow_packed(mulmod, pack(_rows(F, f)), e)))
    result: Poly = (1,)
    while e:
        if e & 1:
            result = mod(F, mul(F, result, f), m)
        f = mod(F, mul(F, f, f), m)
        e >>= 1
    return result


def derivative(F: FiniteField, f: Poly) -> Poly:
    return trim(F.mul(F.from_int(i), f[i]) for i in range(1, len(f)))


def is_irreducible(F: FiniteField, f: Poly) -> bool:
    """Ben-Or's test: a reducible f has an irreducible factor of some degree
    i <= deg f / 2, which divides x^(q^i) - x; the loop stops at the first."""
    d = degree(f)
    if d < 1:
        return False
    h = X
    for _ in range(d // 2):
        h = pow_mod(F, h, F.order, f)
        if degree(gcd(F, sub(F, h, X), f)) > 0:
            return False
    return True


def _pth_root_poly(F: FiniteField, f: Poly) -> Poly:
    # Assumes f'(x) = 0, i.e. only exponents divisible by p occur.  In F_{p^d}
    # the p-th power map is a bijection with inverse x -> x^(p^(d-1)).
    return trim(F.pow(f[i], F.order // F.p) for i in range(0, len(f), F.p))


def squarefree_decomposition(F: FiniteField, f: Poly) -> list[tuple[Poly, int]]:
    """Monic squarefree parts with multiplicities, char-p complete."""
    parts: dict[Poly, int] = {}

    def rec(f: Poly, e: int) -> None:
        df = derivative(F, f)
        if not df:
            rec(_pth_root_poly(F, f), e * F.p)
            return
        c = gcd(F, f, df)
        w = divmod_poly(F, f, c)[0]
        m = 1
        while degree(w) > 0:
            y = gcd(F, w, c)
            z = divmod_poly(F, w, y)[0]
            if degree(z) > 0:
                parts[z] = parts.get(z, 0) + e * m
            w = y
            c = divmod_poly(F, c, y)[0]
            m += 1
        if degree(c) > 0:
            rec(_pth_root_poly(F, c), e * F.p)

    g = monic(F, f)
    if degree(g) > 0:
        rec(g, 1)
    return sorted(parts.items(), key=lambda gm: (degree(gm[0]), gm[0]))


def _frobenius(F: FiniteField, h: Poly, rows: list[Poly]) -> Poly:
    """h^q mod f, q = F.order, as sum_j h_j rows[j], rows[j] = x^(qj) mod f."""
    if F.degree == 1:  # plain ints, one reduction per coefficient
        acc = [0] * len(rows)
        for c, row in zip(h, rows):
            for j, r in enumerate(row):
                acc[j] += c * r
        return trim([c % F.p for c in acc])
    out: Poly = ()
    for c, row in zip(h, rows):
        out = add(F, out, scale(F, c, row))
    return out


def _power_rows(F: FiniteField, f: Poly) -> list[Poly]:
    """x^(qi) mod f for i < deg f, q = F.order, by one pow_mod and products."""
    rows = [(1,), pow_mod(F, X, F.order, f)]
    while len(rows) < degree(f):
        rows.append(mod(F, mul(F, rows[-1], rows[1]), f))
    return rows


def distinct_degree(F: FiniteField, f: Poly) -> list[tuple[int, Poly]]:
    """Split squarefree monic f into products of irreducibles of equal degree;
    the Frobenius matrix takes one pow_mod and deg f - 2 products."""
    out = []
    h = X
    i = 0
    rows = _power_rows(F, f)
    while degree(f) >= 2 * (i + 1):
        i += 1
        h = _frobenius(F, h, rows)
        g = gcd(F, sub(F, h, X), f)
        if degree(g) > 0:
            out.append((i, g))
            f = divmod_poly(F, f, g)[0]
            h = mod(F, h, f)
            rows = [mod(F, r, f) for r in rows[: degree(f)]]
    if degree(f) > 0:
        out.append((degree(f), f))
    return out


def _split_seed(F: FiniteField, f: Poly) -> int:
    h = 0xCBF29CE484222325
    for v in (F.p, F.degree, len(f), *f):
        h ^= v & 0xFFFFFFFFFFFFFFFF
        h = (h * 0x100000001B3) % (1 << 64)
    return h


def _random_poly(F: FiniteField, rng: random.Random, deg: int) -> Poly:
    return trim([rng.randrange(F.order) for _ in range(deg)] + [1])


def _split(F: FiniteField, f: Poly, d: int, power=None) -> tuple[Poly, Poly]:
    """One Cantor-Zassenhaus step: f, squarefree monic with irreducible
    factors all of degree d < deg f, as a product of two proper factors.
    ``power(a)``, when given, is a^((q^d - 1)/2) modulo a multiple of f."""
    if F.p == 2:
        raise DomainError("equal-degree splitting needs odd characteristic")
    n = degree(f)
    rng = random.Random(_split_seed(F, f))
    while True:
        a = _random_poly(F, rng, rng.randrange(1, n))
        if degree(a) < 1:
            continue
        b = mod(F, power(a), f) if power else pow_mod(F, a, (F.order**d - 1) // 2, f)
        g = gcd(F, sub(F, b, (1,)), f)
        if 0 < degree(g) < n:
            return g, divmod_poly(F, f, g)[0]


def equal_degree_split(F: FiniteField, f: Poly, d: int) -> list[Poly]:
    """Factor squarefree monic f whose irreducible factors all have degree d,
    in odd characteristic (Cantor-Zassenhaus)."""
    if degree(f) == d:
        return [f]
    g, h = _split(F, f, d)
    return sorted(
        equal_degree_split(F, g, d) + equal_degree_split(F, h, d),
        key=lambda t: (degree(t), t),
    )


def _norm_power(F: FiniteField, f: Poly):
    """a -> a^((p^D-1)/2) mod f, f monic over F_p, F = F_{p^D}, as N(a)^((p-1)/2),
    N(a) = prod_{j<D} sigma^j(a) by doubling.  The p-th power map sigma of F[x]/(f)
    is F_p-linear on digit rows: F's Frobenius on each coefficient (Phi), then
    x -> x^p (M, row i = x^(pi) mod f); von zur Gathen & Shoup, Comput. Complex. 2."""
    from .gf import field  # gf imports this module
    p, D, n = F.p, F.degree, degree(f)
    M = np.array([r + (0,) * (n - len(r)) for r in _power_rows(field(p), f)], dtype=np.uint64)
    Phi = _rows(F, list(accumulate([F.pow(p, p)] * (D - 1), F.mul, initial=1)))
    pack, unpack, mulmod = _packed_ring(F, f)

    def power(a: Poly) -> Poly:
        base = pack(_rows(F, a))
        norm, P, S = base, Phi, M  # N(a) over sigma^0 .. sigma^(m-1); sigma^m
        for bit in bin(D)[3:]:
            norm = mulmod(norm, pack(S.T @ (unpack(norm) @ P % p) % p))
            P, S = P @ P % p, S @ S % p
            if bit == "1":
                norm = mulmod(base, pack(M.T @ (unpack(norm) @ Phi % p) % p))
                P, S = P @ Phi % p, S @ M % p
        return _unrows(F, unpack(_pow_packed(mulmod, norm, (p - 1) // 2)))

    return power


def one_root(F: FiniteField, f: Poly) -> int:
    """A root of monic f, a product of distinct linear factors over F: each
    split keeps only its smaller factor.  Over F_{p^D}, D > 1, an f over F_p
    takes each split's power through the norm, from the same draws."""
    power = _norm_power(F, f) if F.degree > 1 and degree(f) > 1 and max(f) < F.p else None
    while degree(f) > 1:
        f = min(_split(F, f, 1, power), key=degree)
    return F.neg(f[0])


def factor(F: FiniteField, f: Poly) -> list[tuple[Poly, int]]:
    """Monic irreducible factors with multiplicities, canonically ordered."""
    if degree(f) < 1:
        raise DomainError("cannot factor a constant polynomial")
    result: dict[Poly, int] = {}
    for g, m in squarefree_decomposition(F, f):
        for d, h in distinct_degree(F, g):
            for irr in equal_degree_split(F, h, d):
                result[irr] = result.get(irr, 0) + m
    return sorted(result.items(), key=lambda gm: (degree(gm[0]), gm[0]))


def roots(F: FiniteField, f: Poly) -> list[int]:
    """Roots in F, sorted by encoding, ignoring multiplicity."""
    if degree(f) < 1:
        return []
    # The split part: the product of the distinct linear factors of f.
    g = gcd(F, sub(F, pow_mod(F, X, F.order, f), X), f)
    if degree(g) < 1:
        return []
    return sorted(F.neg(h[0]) for h in equal_degree_split(F, g, 1))


def embeddings(src: FiniteField, dst: FiniteField) -> list[list[int]]:
    """Images of the power basis of src under each embedding into dst.

    Embeddings are ordered by Frobenius twist of the canonical one, whose
    generator image is the smallest root of src's modulus in dst.
    """
    if dst.p != src.p or dst.degree % src.degree != 0:
        raise DomainError(
            f"no embedding of F_{src.p}^{src.degree} into F_{dst.p}^{dst.degree}"
        )
    if src.degree == 1:
        basis = [1]
        return [basis]
    mod_in_dst: Poly = tuple(c for c in src.modulus)
    rts = roots(dst, mod_in_dst)
    if not rts:
        raise AssertionError("modulus must split in the extension")
    g0 = rts[0]
    out = []
    g = g0
    for _ in range(src.degree):
        powers = [1]
        for _ in range(src.degree - 1):
            powers.append(dst.mul(powers[-1], g))
        out.append(powers)
        g = dst.pow(g, dst.p)
    return out


def apply_embedding(src: FiniteField, dst: FiniteField, basis_images: list[int], a: int) -> int:
    coeffs = src.decode(a)
    acc = 0
    for c, img in zip(coeffs, basis_images):
        if c:
            acc = dst.add(acc, dst.mul(c, img))
    return acc
