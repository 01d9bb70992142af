"""Decomposition of cuspidal spaces into Galois orbits of eigenvalue systems.

Blocks are generalized eigenspaces, in the plus part of the cuspidal space,
carved out by the operators at primes up to the Sturm bound that avoid the
level and the working characteristic. Each block carries one orbit. Its
degree, multiplicity, whether it is semisimple and the minimal polynomial of
its eigenvalue at every prime come from F_ell linear algebra on the block.
The eigenvalues a(q) are a character of the F_ell Hecke algebra on the block,
with values in its residue field F_{ell^degree} (Stein, *Modular Forms: A
Computational Approach*, ch. 9): F_ell linear algebra plus one root per
orbit, from the first query on.  An operator already semisimple over
F_{ell^degree} is its own semisimple part.
"""

from __future__ import annotations

from functools import cached_property, partial, reduce
from itertools import accumulate
from math import lcm

import numpy as np

from . import polys
from ._kernels import matmul_mod
from .arith import DomainError, factorize, is_prime, primes_up_to
from .dims import index_mu
from .gf import FiniteField, field
from .matrix import (
    apply_np_to_gvecs,
    charpoly_mod,
    matrix_power,
    poly_of_matrix,
    restrict,
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

    The block lies in the plus part of the space, which holds each system
    once, so the multiplicity is block_dim / degree. Degree, multiplicity
    and the base primes' minimal polynomials come from the split; `min_poly`
    elsewhere and `semisimple` restrict operators to the block over F_ell.
    The first eigenvalue query writes the semisimple parts at the base
    primes as polynomials in one generator T over F_ell and keeps the
    conjugate root of T's minimal polynomial in F_{ell^degree} whose
    base-prime values are least; a later prime shrinks the sub-block where
    that character lives. The field never grows.
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
        if self.block_dim % self.degree:
            raise DomainError(
                "block dimension is incompatible with the orbit degree"
            )
        self.multiplicity = self.block_dim // self.degree
        self.base_primes = list(minpolys)
        self.index = -1
        self._basis = block_basis
        self._minpolys = dict(minpolys)
        self._eigen: dict[int, int] = {}
        # The sub-block W where the chosen character lives and, from the
        # first query on, the generator T on W and the chosen root's powers.
        self._W = block_basis
        self._T: np.ndarray | None = None
        self._theta: list[int] = []

    @property
    def field(self) -> FiniteField:
        """F_{ell^degree}, which holds every eigenvalue of the orbit."""
        return field(self.ell, self.degree)

    @cached_property
    def _semisimple_at(self) -> dict[int, bool]:
        """Whether each base prime's minimal polynomial kills T_p on the block."""
        ell, basis = self.ell, self._basis
        restricted = ((q, restrict(self._hecke_matrix(q), basis, ell)) for q in self.base_primes)
        return {q: not poly_of_matrix(self._minpolys[q], R, ell).any() for q, R in restricted}

    @property
    def semisimple(self) -> bool:
        """Whether the Hecke operators act semisimply on the block."""
        return all(self._semisimple_at.values())

    @property
    def label(self) -> str:
        return f"{self.N}.{self.k}.{self.index}"

    def __repr__(self) -> str:
        return (
            f"Eigensystem({self.label}, ell={self.ell}, degree={self.degree}, "
            f"mult={self.multiplicity})"
        )

    # -- eigenvalues ---------------------------------------------------------

    def a(self, q: int) -> int:
        """Eigenvalue at q as an element encoding in self.field."""
        if not self._theta:
            self._character()
        if q not in self._eigen:
            self._check_prime(q)
            self._narrow(q)
        return self._eigen[q]

    def min_poly(self, q: int) -> polys.Poly:
        """Minimal polynomial of a(q) over the prime field: the one irreducible
        factor of the charpoly of T_q restricted to the block."""
        if q not in self._minpolys:
            self._check_prime(q)
            space = symbol_space(self.N, self.k, self.ell)
            pieces = _refine(space, [(self._basis, self._minpolys)], [q])
            if len(pieces) != 1:
                raise DomainError(f"the operator at {q} splits the orbit's block")
            self._minpolys = pieces[0][1]
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

    # -- the character -----------------------------------------------------

    def _semisimple_part(self, R: np.ndarray, semisimple: bool) -> np.ndarray:
        """S = R^e for R = T_q on W and e the least power of ell^degree >=
        block_dim: R's nilpotent part dies, its eigenvalues stay fixed.  A
        semisimple R with eigenvalues in F_{ell^degree} already is S."""
        if semisimple:
            return R
        e, order = 1, self.ell**self.degree
        while e < self.block_dim:
            e *= order
        return matrix_power(R, e, self.ell)

    def _character(self) -> None:
        """Base-prime values at the conjugate of theta whose tuple is least."""
        ell, d = self.ell, self.degree
        restricted = ((p, restrict(self._hecke_matrix(p), self._W, ell)) for p in self.base_primes)
        S = {p: self._semisimple_part(R, self._semisimple_at[p]) for p, R in restricted}
        g = next((p for p in S if polys.degree(self._minpolys[p]) == d), None)
        if d == 1:
            T, f = np.eye(self.block_dim, dtype=np.int64), (ell - 1, 1)
        elif g is None:
            raise DomainError("no base prime generates the orbit's Hecke algebra")
        else:
            T, f = S[g], self._minpolys[g]
        K = self.field
        theta = polys.one_root(K, f)
        # theta^(ell^j) and each c^i by running products.
        conjugates = accumulate(range(d - 1), lambda c, _: K.frobenius(c), initial=theta)
        powers = [list(accumulate([c] * (d - 1), K.mul, initial=1)) for c in conjugates]
        values = apply_np_to_gvecs(_in_powers(T, list(S.values()), d, ell), powers, K)
        j = min(range(d), key=values.__getitem__)
        self._eigen = dict(zip(self.base_primes, values[j]))
        self._T, self._theta = T, powers[j]

    def _narrow(self, q: int) -> None:
        """a(q) on the piece of W, split by the semisimple part at q, where
        the character takes its smallest value; W becomes that piece."""
        ell, Fl = self.ell, field(self.ell)
        R = restrict(self._hecke_matrix(q), self._W, ell)
        # R^e has R's charpoly: x -> x^e permutes the roots of each factor.
        fac = polys.factor(Fl, charpoly_mod(R, ell))
        radical = reduce(partial(polys.mul, Fl), (f for f, _ in fac))
        in_field = all(self.degree % polys.degree(f) == 0 for f, _ in fac)
        S = self._semisimple_part(R, in_field and not poly_of_matrix(radical, R, ell).any())
        pieces = _split_block(S, fac, ell) if len(fac) > 1 else [(None, fac[0][0])]
        found = []
        for P, f in pieces:
            if self.degree % polys.degree(f):
                continue  # its eigenvalues lie outside the field
            T, S_P = self._T, S
            if P is not None:
                T, S_P = restrict(T, P, ell), restrict(S, P, ell)
            g = _in_powers(T, [S_P], self.degree, ell)
            found.append((apply_np_to_gvecs(g, [self._theta], self.field)[0][0], P, T))
        if not found:
            raise DomainError(f"the eigenvalue at {q} needs a larger field")
        self._eigen[q], P, self._T = min(found, key=lambda piece: piece[0])
        if P is not None:
            self._W = matmul_mod(self._W, P, ell)


def _in_powers(T: np.ndarray, S: list[np.ndarray], d: int, ell: int) -> np.ndarray:
    """Rows g_i with S_i = g_i(T) over F_ell, as coefficients of I, T, ...,
    T^(d-1); T's minimal polynomial has degree d."""
    n = T.shape[0]
    powers = [np.eye(n, dtype=np.int64)]
    for _ in range(d - 1):
        powers.append(matmul_mod(powers[-1], T, ell))
    C = np.array([P.ravel() for P in powers]).T
    B = np.array([X.ravel() for X in S], dtype=np.int64).reshape(len(S), n * n).T
    try:
        return solve_columns(C, B, ell).T
    except DomainError as exc:
        raise DomainError("the block's Hecke algebra is not generated by one operator") from exc


def _split_block(R: np.ndarray, fac, ell: int) -> list[tuple[np.ndarray, polys.Poly]]:
    """The generalized eigenspace of R for each factor f^mult of its charpoly,
    as kernel columns of f(R)^mult in R's coordinates, with f."""
    out = []
    for f, mult in fac:
        ker, _ = right_kernel(matrix_power(poly_of_matrix(f, R, ell), mult, ell), ell)
        if ker.shape[1] != mult * polys.degree(f):
            raise DomainError("block splitting failed to isolate a single factor")
        out.append((ker, f))
    return out


def _refine(space: ModularSymbolSpace, blocks, qs: list[int]) -> list:
    """Split each (basis, minpolys) block into the generalized eigenspaces of
    the operators at qs; a piece carries the minimal polynomial of every
    operator so far.  A prime the block already carries is skipped."""
    ell = space.ell
    for q in qs:
        nxt = []
        for basis, minpolys in blocks:
            if q in minpolys:
                nxt.append((basis, minpolys))
                continue
            R = restrict(space.hecke_matrix(q), basis, ell)
            fac = polys.factor(field(ell), charpoly_mod(R, ell))
            if len(fac) == 1:
                nxt.append((basis, {**minpolys, q: fac[0][0]}))
                continue
            for ker, f in _split_block(R, fac, ell):
                nxt.append((matmul_mod(basis, ker, ell), {**minpolys, q: f}))
        blocks = nxt
    return blocks


_DECOMPOSE_CACHE: dict[tuple[int, int, int], list[Eigensystem]] = {}


def decompose(N: int, k: int, ell: int) -> list[Eigensystem]:
    """All eigenvalue-system orbits on the cuspidal space at this one level,
    old and new alike, canonically ordered.

    Ordering is by orbit degree, then by the minimal polynomial tuples at the
    base primes; indices follow that order.  `old_flags` tells the orbits
    apart.
    """
    key = (N, k, ell)
    if key in _DECOMPOSE_CACHE:
        return _DECOMPOSE_CACHE[key]
    space = symbol_space(N, k, ell)
    qs = operator_primes(N, k, ell)
    n = space.plus_dim
    blocks = _refine(space, [(np.eye(n, dtype=np.int64), {})] if n else [], qs)
    systems = [Eigensystem(space, basis, minpolys) for basis, minpolys in blocks]
    systems.sort(key=lambda s: (s.degree, [s._minpolys[q] for q in qs]))
    for i, s in enumerate(systems):
        s.index = i
    _DECOMPOSE_CACHE[key] = systems
    return systems


def old_flags(N: int, k: int, ell: int) -> list[bool]:
    """Whether each orbit of `decompose(N, k, ell)` is old: its minimal
    polynomials at every operator prime of N equal those of a block at some
    level N/p, p | N, refined by the same primes.  The oldforms of every
    proper divisor of N lie at some N/p (Atkin-Lehner 1970)."""
    qs = operator_primes(N, k, ell)
    old = set()
    for p in factorize(N):
        blocks = [(s._basis, s._minpolys) for s in decompose(N // p, k, ell)]
        blocks = _refine(symbol_space(N // p, k, ell), blocks, qs)
        old.update(tuple(minpolys[q] for q in qs) for _, minpolys in blocks)
    return [tuple(s._minpolys[q] for q in qs) in old for s in decompose(N, k, ell)]


def charpoly_halved(N: int, k: int, ell: int, q: int) -> polys.Poly:
    """Product over orbits of f_q^(block_dim / deg f_q): the charpoly of T_q
    on the plus part, half the cuspidal space's, whose degree is the
    cusp-form dimension at (N, k)."""
    Fl = field(ell)
    out: polys.Poly = (1,)
    for s in decompose(N, k, ell):
        f = s.min_poly(q)
        e = s.block_dim // polys.degree(f)
        for _ in range(e):
            out = polys.mul(Fl, out, f)
    return out
