"""Decomposition of cuspidal spaces into Galois orbits of eigenvalue systems.

Blocks are generalized eigenspaces carved out by the operators at primes up to
the Sturm bound that avoid the level and the working characteristic. Each
block carries one orbit. Its degree, multiplicity, whether it is semisimple
and the minimal polynomial of its eigenvalue at every prime come from F_ell
linear algebra on the block. Only the eigenvalues a(q) use the extension
field, and only from the first query on: a canonical member is then pinned
down by refining a simultaneous eigenspace at the base primes in order, always
taking the smallest available eigenvalue, and enlarging the field when a later
operator's restriction has no eigenvalue in it.
"""

from __future__ import annotations

from functools import cached_property
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


def base_primes(N: int, k: int) -> list[int]:
    """Primes up to the Sturm bound away from the level; their operators
    determine an eigensystem at (N, k)."""
    return [q for q in primes_up_to(sturm_bound(N, k)) if N % q]


def operator_primes(N: int, k: int, ell: int) -> list[int]:
    """The base primes other than the characteristic ell."""
    return [q for q in base_primes(N, k) if q != ell]


class Eigensystem:
    """One Galois orbit of Hecke eigenvalues on a cuspidal space mod ell.

    Degree, multiplicity and the base primes' minimal polynomials come from
    the split; `min_poly` elsewhere and `semisimple` restrict operators to the
    block over F_ell. The first eigenvalue query builds the eigenvector over
    F_{ell^degree}; later queries refine it and may enlarge the field.
    """

    def __init__(
        self,
        space: ModularSymbolSpace,
        block_basis: np.ndarray,
        minpolys: dict[int, polys.Poly],
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
        self.base_primes = list(minpolys)
        self.index = -1
        self.is_old = False
        self._basis = block_basis
        self._minpolys = dict(minpolys)
        self._eigen: dict[int, int] = {}
        # The eigenvector over self._K, built on the first eigenvalue query.
        self._K: FiniteField | None = None
        self._V: list[list[int]] | None = None

    @property
    def field(self) -> FiniteField:
        """Working field: F_{ell^degree}, or larger once an eigenvalue query
        has enlarged it."""
        return field(self.ell, self.degree) if self._K is None else self._K

    @cached_property
    def semisimple(self) -> bool:
        """Whether the Hecke operators act semisimply on the block: each base
        prime's minimal polynomial annihilates its operator's restriction."""
        ell = self.ell
        return not any(
            poly_of_matrix(
                self._minpolys[q],
                _restrict(self._hecke_matrix(q), self._basis, ell),
                ell,
            ).any()
            for q in self.base_primes
        )

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
        if self._V is None:
            self._K = self.field
            self._V = self._basis.T.tolist()
            for p in self.base_primes:
                self._refine(p)
        if q not in self._eigen:
            self._check_prime(q)
            self._refine(q)
        return self._eigen[q]

    def min_poly(self, q: int) -> polys.Poly:
        """Minimal polynomial of a(q) over the prime field: the one irreducible
        factor of the charpoly of T_q restricted to the block."""
        if q not in self._minpolys:
            self._check_prime(q)
            _, fac = _block_factors(self._hecke_matrix(q), self._basis, self.ell)
            if len(fac) != 1:
                raise DomainError(f"the operator at {q} splits the orbit's block")
            self._minpolys[q] = fac[0][0]
        return self._minpolys[q]

    def _hecke_matrix(self, q: int) -> np.ndarray:
        # The space is looked up, not held, so symbol_space's lru bound also
        # bounds the spaces kept alive by cached decompositions.
        return symbol_space(self.N, self.k, self.ell).hecke_matrix(q)

    def _check_prime(self, q: int) -> None:
        if not is_prime(q):
            raise DomainError("eigenvalues are indexed by primes")
        if self.N % q == 0:
            raise DomainError("eigenvalue at a prime dividing the level")
        if q == self.ell:
            raise DomainError("eigenvalue at the working characteristic")

    # -- internal refinement ---------------------------------------------------

    def _restriction(self, q: int) -> list[list[int]]:
        K = self._K
        M = self._hecke_matrix(q)
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


def _restrict(M: np.ndarray, basis: np.ndarray, ell: int) -> np.ndarray:
    """Matrix of M restricted to the invariant subspace spanned by the columns
    of basis over F_ell."""
    return solve_columns(basis, matmul_mod(M, basis, ell), ell)


def _block_factors(M: np.ndarray, basis: np.ndarray, ell: int):
    """The restriction of M to the block and the factorisation of its charpoly."""
    R = _restrict(M, basis, ell)
    return R, polys.factor(field(ell), charpoly_mod(R, ell))


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
    n = space.cuspidal_dim
    # Each block carries the minimal polynomial of every operator so far.
    blocks = [(np.eye(n, dtype=np.int64), {})] if n else []
    for q in qs:
        M = space.hecke_matrix(q)
        nxt = []
        for basis, minpolys in blocks:
            R, fac = _block_factors(M, basis, ell)
            if len(fac) == 1:
                nxt.append((basis, {**minpolys, q: fac[0][0]}))
                continue
            for f, mult in fac:
                P = poly_of_matrix(f, R, ell)
                Pm = np.eye(R.shape[0], dtype=np.int64)
                for _ in range(mult):
                    Pm = matmul_mod(Pm, P, ell)
                child = matmul_mod(basis, right_kernel(Pm, ell), ell)
                if child.shape[1] != mult * polys.degree(f):
                    raise DomainError("block splitting failed to isolate a single factor")
                nxt.append((child, {**minpolys, q: f}))
        blocks = nxt
    systems = [Eigensystem(space, basis, minpolys) for basis, minpolys in blocks]
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
