"""Decomposition of cuspidal spaces into Galois orbits of eigenvalue systems.

Blocks are generalized eigenspaces carved out by the operators at primes up to
the Sturm bound that avoid the level and the working characteristic. Each
block carries one orbit; a canonical member is pinned down by repeatedly
refining a simultaneous eigenspace, always taking the smallest available
eigenvalue in the working extension field. Eigenvalues at primes beyond the
base bound are computed lazily, enlarging the field when a new operator's
restriction has no eigenvalue in it.
"""

from __future__ import annotations

from math import lcm

import numpy as np

from . import polys
from ._kernels import matmul_mod
from .arith import DomainError, divisors, is_prime, primes_up_to
from .dims import index_mu
from .gf import FiniteField, field
from .matrix import (
    apply_np_to_gvecs,
    charpoly_mod,
    gcharpoly,
    gkernel,
    gmat_sub_scalar,
    gsolve_columns,
    poly_of_matrix,
    right_kernel,
    solve_columns,
)
from .modsym import ModularSymbolSpace, symbol_space


def sturm_bound(N: int, k: int) -> int:
    """Operator index bound determining an eigensystem at level N, weight k."""
    return k * index_mu(N) // 12


def operator_primes(N: int, k: int, ell: int, bound: int | None = None) -> list[int]:
    b = sturm_bound(N, k) if bound is None else bound
    return [q for q in primes_up_to(b) if N % q and q != ell]


class Eigensystem:
    """One Galois orbit of Hecke eigenvalues on a cuspidal space mod ell.

    Identity (degree, minimal polynomials at the base primes, index) is fixed
    at construction; eigenvalue queries beyond the base bound refine the
    stored eigenvector and may enlarge the working field.
    """

    def __init__(
        self,
        space: ModularSymbolSpace,
        block_basis: np.ndarray,
        minpolys: dict[int, polys.Poly],
        base_primes: list[int],
    ):
        self.N = space.N
        self.k = space.k
        self.ell = space.ell
        self.block_dim = int(block_basis.shape[1])
        self.degree = lcm(*(len(f) - 1 for f in minpolys.values())) if minpolys else 1
        if self.block_dim % (2 * self.degree):
            raise DomainError(
                "block dimension is incompatible with the orbit degree"
            )
        self.multiplicity = self.block_dim // (2 * self.degree)
        self.base_primes = list(base_primes)
        self.index = -1
        self.is_old = False
        self._space = space
        self._K = field(self.ell, self.degree)
        self._minpolys = dict(minpolys)
        self._eigen: dict[int, int] = {}
        self._V = [
            [int(x) for x in block_basis[:, j]] for j in range(self.block_dim)
        ]
        for q in self.base_primes:
            self._refine(q)
        self.semisimple = len(self._V) * self.degree == self.block_dim

    @property
    def field(self) -> FiniteField:
        """Current working field; degree may exceed the orbit degree after
        lazy extensions."""
        return self._K

    @property
    def label(self) -> str:
        return f"{self.N}.{self.k}.{self.index}"

    def __repr__(self) -> str:
        kind = "old" if self.is_old else "new"
        return (
            f"Eigensystem({self.label}, ell={self.ell}, degree={self.degree}, "
            f"mult={self.multiplicity}, {kind})"
        )

    # -- eigenvalues ---------------------------------------------------------

    def a(self, q: int) -> int:
        """Eigenvalue at q as an element encoding in self.field."""
        if q in self._eigen:
            return self._eigen[q]
        if not is_prime(q):
            raise DomainError("eigenvalues are indexed by primes")
        if self.N % q == 0:
            raise DomainError("eigenvalue at a prime dividing the level")
        if q == self.ell:
            raise DomainError("eigenvalue at the working characteristic")
        self._refine(q)
        return self._eigen[q]

    def min_poly(self, q: int) -> polys.Poly:
        """Minimal polynomial of a(q) over the prime field."""
        if q not in self._minpolys:
            a = self.a(q)
            K = self._K
            conj = [a]
            x = K.frobenius(a)
            while x != a:
                conj.append(x)
                x = K.frobenius(x)
            f: polys.Poly = (1,)
            for c in conj:
                f = polys.mul(K, f, (K.neg(c), 1))
            if any(c >= self.ell for c in f):
                raise DomainError("minimal polynomial has coefficients outside the prime field")
            self._minpolys[q] = tuple(int(c) for c in f)
        return self._minpolys[q]

    # -- internal refinement ---------------------------------------------------

    def _restriction(self, q: int) -> list[list[int]]:
        K = self._K
        M = self._space.hecke_matrix(q)
        W = apply_np_to_gvecs(M, self._V, K)
        n = len(self._V[0])
        C = [[self._V[j][i] for j in range(len(self._V))] for i in range(n)]
        B = [[W[j][i] for j in range(len(W))] for i in range(n)]
        try:
            return gsolve_columns(K, C, B)
        except DomainError as exc:
            raise DomainError(
                "operator does not act proportionally on the refined eigenspace"
            ) from exc

    def _refine(self, q: int) -> None:
        R = self._restriction(q)
        K = self._K
        cp = gcharpoly(K, R)
        rts = polys.roots(K, cp)
        if not rts:
            fac = polys.factor(K, cp)
            ext = min(polys.degree(f) for f, _ in fac)
            self._extend(ext)
            self._refine(q)
            return
        alpha = rts[0]
        ker = gkernel(K, gmat_sub_scalar(K, R, alpha))
        n = len(self._V[0])
        newV = []
        for vec in ker:
            combo = [0] * n
            for i, coef in enumerate(vec):
                if coef:
                    vi = self._V[i]
                    combo = [K.add(x, K.mul(coef, y)) for x, y in zip(combo, vi)]
            newV.append(combo)
        self._V = newV
        self._eigen[q] = alpha

    def _extend(self, e: int) -> None:
        K = self._K
        K2 = field(self.ell, K.degree * e)
        images = polys.embeddings(K, K2)[0]

        def emb(a: int) -> int:
            return polys.apply_embedding(K, K2, images, a)

        self._V = [[emb(x) for x in v] for v in self._V]
        self._eigen = {q: emb(a) for q, a in self._eigen.items()}
        self._K = K2


_DECOMPOSE_CACHE: dict[tuple[int, int, int], list[Eigensystem]] = {}


def decompose(N: int, k: int, ell: int) -> list[Eigensystem]:
    """All eigenvalue-system orbits on the cuspidal space, canonically ordered.

    Old orbits (matching a system at a proper divisor level) are included and
    flagged. Ordering is by orbit degree, then by the minimal polynomial
    tuples at the base primes; indices follow that order.
    """
    key = (N, k, ell)
    if key in _DECOMPOSE_CACHE:
        return _DECOMPOSE_CACHE[key]
    space = symbol_space(N, k, ell)
    qs = operator_primes(N, k, ell)
    Fl = field(ell)
    n = space.cuspidal_dim
    blocks = [np.eye(n, dtype=np.int64)] if n else []
    for q in qs:
        M = space.hecke_matrix(q)
        nxt = []
        for basis in blocks:
            R = solve_columns(basis, matmul_mod(M, basis, ell), ell)
            fac = polys.factor(Fl, charpoly_mod(R, ell))
            if len(fac) == 1:
                nxt.append(basis)
                continue
            for f, mult in fac:
                P = poly_of_matrix(f, R, ell)
                Pm = np.eye(R.shape[0], dtype=np.int64)
                for _ in range(mult):
                    Pm = matmul_mod(Pm, P, ell)
                nxt.append(matmul_mod(basis, right_kernel(Pm, ell), ell))
        blocks = nxt
    systems = []
    for basis in blocks:
        minpolys: dict[int, polys.Poly] = {}
        for q in qs:
            R = solve_columns(basis, matmul_mod(space.hecke_matrix(q), basis, ell), ell)
            fac = polys.factor(Fl, charpoly_mod(R, ell))
            if len(fac) != 1:
                raise DomainError("block splitting failed to isolate a single factor")
            minpolys[q] = fac[0][0]
        systems.append(Eigensystem(space, basis, minpolys, qs))
    systems.sort(key=lambda s: (s.degree, [s._minpolys[q] for q in qs]))
    for i, s in enumerate(systems):
        s.index = i
    _mark_old(systems, N, k, ell, qs)
    _DECOMPOSE_CACHE[key] = systems
    return systems


def _mark_old(systems: list[Eigensystem], N: int, k: int, ell: int, qs: list[int]) -> None:
    if N == 1 or not systems:
        return
    old_keys = set()
    for M in divisors(N):
        if M == N:
            continue
        for sub in decompose(M, k, ell):
            old_keys.add(tuple(sub.min_poly(q) for q in qs))
    for s in systems:
        if tuple(s._minpolys[q] for q in qs) in old_keys:
            s.is_old = True


def charpoly_halved(N: int, k: int, ell: int, q: int) -> polys.Poly:
    """Product over orbits of f_q^(block_dim / (2 deg f_q)); the degree equals
    the cusp-form dimension at (N, k)."""
    Fl = field(ell)
    out: polys.Poly = (1,)
    for s in decompose(N, k, ell):
        f = s.min_poly(q)
        e = s.block_dim // (2 * polys.degree(f))
        for _ in range(e):
            out = polys.mul(Fl, out, f)
    return out
