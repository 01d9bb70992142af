"""Modular symbols for Gamma0(N) in even weight over a prime field.

Generators are monomial-times-coset pairs indexed by x * (k - 1) + i, where x
runs over the projective line mod N in lexicographic representative order (one
numpy scan per row u finds its new reps) and i is the monomial exponent. The
space is the quotient by the two- and three-term relations, with the non-pivot
(free) symbols as basis; the cuspidal part is the kernel of the boundary map to
cusp classes on them. T_p applies Cremona's Heilbronn matrices of determinant p
(a set satisfying Merel's condition) to the source reps, the P^1 reps holding a
free symbol, and projects the images onto the free basis (Stein, GSM 79, ch. 3,
8; Cremona, Algorithms for Modular Elliptic Curves, ch. 2). A cusp's class is
a closed form in residues mod N, so the boundary map needs no lift to SL2(Z)
and no search among classes (Cremona, 2.2; Diamond & Shurman, A First Course
in Modular Forms, 3.8).

The relations and the boundary map are integer data. `_presentation` builds
them once per (N, k), with P^1 and the cusp classes, and `heilbronn_matrices`
its array once per p; every characteristic shares them read-only. The
two-term relations pair each symbol with its S-partner up to sign, and the
presentation substitutes them into the three-term rows. A space does only
the work mod ell: it reduces those rows and finds the free basis, the
projection onto it and the kernel of the boundary map. Hecke matrices act on
the plus part ker(eta - 1) of the star involution eta = (-1, 0; 0, 1), which
holds each eigensystem once (Cremona, ch. 2; Stein, ch. 8)."""

from __future__ import annotations

from functools import cached_property, lru_cache
from math import comb, gcd

import numpy as np

from ._kernels import hecke_accum, matmul_mod
from .arith import DomainError, is_prime
from .dims import index_mu
from .matrix import restrict, right_kernel

MAX_WEIGHT = 12
# P^1 holds an N x N int64 table. The largest |P^1| up to here, 8064 at N = 2730
# and 2940: `space 2940 2 11` takes 3.3 s and 352 MB peak RSS on a 2-vCPU VM.
MAX_LEVEL = 3000
# eta as hecke_accum applies it: X^i Y^(k-2-i) at (u : v) to (-1)^i times that at (-u : v).
STAR = np.array([[-1, 0, 0, 1]], dtype=np.int64)


class P1List:
    """Projective line over Z/N with canonical (lex-least) representatives."""

    def __init__(self, N: int):
        self.N = N
        if N == 1:
            self.reps = np.zeros((1, 2), dtype=np.int64)
            self.table = np.zeros((1, 1), dtype=np.int64)
            return
        units = np.flatnonzero(np.gcd(np.arange(N), N) == 1)
        table = np.full((N, N), -1, dtype=np.int64)
        reps: list[tuple[int, int]] = []
        for u in range(N):
            # A rep's orbit can fill later cells of its own row, hence the recheck.
            for v in np.flatnonzero((table[u] < 0) & (np.gcd(np.gcd(u, np.arange(N)), N) == 1)):
                if table[u, v] < 0:
                    table[units * u % N, units * v % N] = len(reps)
                    reps.append((u, int(v)))
        self.reps = np.array(reps, dtype=np.int64)
        self.table = table

    def __len__(self) -> int:
        return self.reps.shape[0]

    def index(self, u: int, v: int) -> int:
        return int(self.table[u % self.N, v % self.N])


@lru_cache(maxsize=256)
def heilbronn_matrices(p: int) -> np.ndarray:
    """Cremona's Heilbronn matrices (a, b; c, d) of determinant p, for p
    prime, as the rows (a, b, c, d) of a read-only int64 array: (1, 0; 0, p)
    and, for each |r| <= p / 2, the convergent matrices of the
    nearest-integer continued fraction of p / r (ties away from zero)."""
    out = [(1, 0, 0, p)]
    if p == 2:
        out += [(2, 0, 0, 1), (2, 1, 0, 1), (1, 0, 1, 2)]
    else:
        for r in range(-(p // 2), p // 2 + 1):
            x1, x2, y1, y2, a, b = p, -r, 0, 1, -p, r
            out.append((x1, x2, y1, y2))
            while b:
                q = (2 * abs(a) + abs(b)) // (2 * abs(b)) * (1 if a * b > 0 else -1)
                a, b = -b, a - b * q
                x1, x2, y1, y2 = x2, q * x2 - x1, y2, q * y2 - y1
                out.append((x1, x2, y1, y2))
    mats = np.array(out, dtype=np.int64)
    mats.setflags(write=False)
    return mats


def _cusp_class(N: int, y: int, z: int) -> tuple[int, int]:
    """The class key of the cusps x/y with x z = 1 mod y; it depends on y and z
    mod N only, and pow(z, -1, 1) is 0."""
    g = gcd(y, N)
    h = gcd(g, N // g)
    return (g, pow(z, -1, h) * (y // g) % h)


def validate_level_weight(N: int, k: int) -> None:
    """The level and weight rules every space obeys, whatever the
    characteristic."""
    if N < 1:
        raise DomainError("level must be a positive integer")
    if N > MAX_LEVEL:
        raise DomainError(f"level above supported bound {MAX_LEVEL}")
    if k < 2 or k % 2:
        raise DomainError("weight must be even and at least 2")
    if k > MAX_WEIGHT:
        raise DomainError(f"weight above supported bound {MAX_WEIGHT}")


def validate_space(N: int, k: int, ell: int) -> None:
    validate_level_weight(N, k)
    if not is_prime(ell):
        raise DomainError("working characteristic must be prime")
    if N % ell == 0:
        raise DomainError("working characteristic divides level")
    if ell in (2, 3):
        raise DomainError("working characteristic must not divide 6")
    if ell < k - 1:
        raise DomainError(f"working characteristic too small for weight {k}")
    if index_mu(N) * (k - 1) * (ell - 1) ** 2 >= 2**63:
        raise DomainError(f"working characteristic {ell} too large for int64 row reduction")


class Presentation:
    """The characteristic-free data of weight k for Gamma0(N): P^1, the
    relation rows and the boundary map as read-only (row, column, value)
    integer triples, and the cusp classes.

    The boundary of (c : d) is {a/c} - {b/d}, with a = 1/d mod c and b = -1/c
    mod d from a lift to SL2(Z). Cusps x/y and x'/y' are Gamma0(N)-equivalent
    exactly when g = gcd(y, N) = gcd(y', N) and x (y/g) = x' (y'/g) mod
    gcd(g, N/g) (Cremona, Prop. 2.2.3; Diamond & Shurman, Prop. 3.8.3), so
    `cusp_classes` holds these (g, x (y/g)) keys, in order of first appearance.

    The two-term relation of symbol c = x * w + i is e_c + s e_p = 0, with
    S-partner p = xs * w + (k - 2 - i) and s = (-1)^i. The relation rows are
    the three-term rows with e_c = coeff * e_p, coeff = -s, put in for the
    smaller symbol of each pair (`small`, `partner`, `coeff`). A symbol that
    is its own partner is zero if s = 1 (ell is odd) and free of the pair
    otherwise. The rows' columns are `kept`, the symbols left; as none
    precedes its partner, the free symbols are those of the full relations."""

    def __init__(self, N: int, k: int):
        self.p1 = p1 = P1List(N)
        kk, w = k - 2, k - 1
        rel: list[tuple[int, int, int]] = []
        bnd: list[tuple[int, int, int]] = []
        seen_st: set[int] = set()
        classes: dict[tuple[int, int], int] = {}
        xs_of = np.empty(len(p1), dtype=np.int64)
        row = 0
        for x in range(len(p1)):
            c, d = (int(v) for v in p1.reps[x])
            xs_of[x], xt, xt2 = p1.index(d, -c), p1.index(d, -c - d), p1.index(-c - d, c)
            # One block per ST-orbit: the blocks of the other points of an
            # orbit are repeats of these rows.
            if x not in seen_st:
                seen_st.update((x, xt, xt2))
                for i in range(w):
                    rel.append((row, x * w + i, 1))
                    for j in range(kk - i + 1):
                        rel.append((row, xt * w + j, (-1) ** (kk - j) * comb(kk - i, j)))
                    for j in range(i + 1):
                        rel.append((row, xt2 * w + (kk - i + j), (-1) ** (kk - i + j) * comb(i, j)))
                    row += 1
            bnd += [(classes.setdefault(_cusp_class(N, c, d), len(classes)), x * w + kk, 1),
                    (classes.setdefault(_cusp_class(N, d, -c), len(classes)), x * w, -1)]
        col = np.arange(len(p1) * w)
        partner = (xs_of[:, None] * w + kk - np.arange(w)).ravel()
        sign = np.tile(1 - 2 * (np.arange(w) % 2), len(p1))
        coeff = np.where(partner > col, -sign, np.where(partner == col, (1 - sign) // 2, 1))
        self.small = np.flatnonzero(partner > col)
        self.partner, self.coeff = partner[self.small], coeff[self.small]
        self.kept = np.flatnonzero((partner <= col) & (coeff != 0))
        triples = np.array(rel, dtype=np.int64)
        tr, tc, tv = triples[coeff[triples[:, 1]] != 0].T
        target = np.searchsorted(self.kept, np.maximum(partner, col)[tc])
        self.n_relations = row
        self.relations = np.column_stack((tr, target, tv * coeff[tc]))
        self.boundary = np.array(bnd, dtype=np.int64)
        self.cusp_classes = tuple(classes)
        for a in (p1.reps, p1.table, self.relations, self.boundary, self.small, self.partner,
                  self.coeff, self.kept):
            a.setflags(write=False)


_presentation = lru_cache(maxsize=64)(Presentation)


def _scatter(triples: np.ndarray, rows: int, cols: int, ell: int) -> np.ndarray:
    out = np.zeros((rows, cols), dtype=np.int64)
    np.add.at(out, (triples[:, 0], triples[:, 1]), triples[:, 2])
    return out % ell


class ModularSymbolSpace:
    """Weight-k modular symbols for Gamma0(N) with coefficients mod ell."""

    def __init__(self, N: int, k: int, ell: int):
        validate_space(N, k, ell)
        self.N, self.k, self.ell = N, k, ell
        pres = _presentation(N, k)
        self.p1 = pres.p1
        self.n_symbols = D = len(self.p1) * (k - 1)
        self._hecke: dict[int, np.ndarray] = {}
        # The projection onto the free symbols is the transposed kernel of
        # the relations: on the kept symbols that of the substituted rows
        # (identity on the free columns, -Rref^T on the pivots), and on each
        # substituted symbol coeff times its partner's.
        K, free = right_kernel(_scatter(pres.relations, pres.n_relations, pres.kept.size, ell), ell)
        self._free = pres.kept[free].tolist()
        self._proj = np.zeros((len(free), D), dtype=np.int64)
        self._proj[:, pres.kept] = K.T
        self._proj[:, pres.small] = self._proj[:, pres.partner] * pres.coeff % ell
        self.dim = len(free)
        w = k - 1
        sources = sorted({f // w for f in self._free})
        self._source_reps = self.p1.reps[sources]
        # Free symbol x * w + i is column s * w + i of T_q on the source reps.
        self._source_cols = [sources.index(f // w) * w + f % w for f in self._free]
        self.cusp_classes = pres.cusp_classes
        self._boundary = _scatter(pres.boundary, len(self.cusp_classes), D, ell)
        self.cuspidal_basis, _ = right_kernel(self._boundary[:, self._free], ell)
        self.cuspidal_dim = self.cuspidal_basis.shape[1]

    @cached_property
    def plus_basis(self) -> np.ndarray:
        """The cuspidal basis times ker(eta - 1), built on first use: `space`
        needs none, and at N = 2940 eta costs ten times the rest."""
        eta = restrict(self._act(STAR), self.cuspidal_basis, self.ell)
        plus, _ = right_kernel((eta - np.eye(len(eta), dtype=np.int64)) % self.ell, self.ell)
        if 2 * plus.shape[1] != self.cuspidal_dim:
            raise DomainError("the plus part of the star involution is not half the cuspidal space")
        # cuspidal_basis keeps the identity rows of plus, so `restrict` applies.
        return matmul_mod(self.cuspidal_basis, plus, self.ell)

    @property
    def plus_dim(self) -> int:
        return self.plus_basis.shape[1]

    def __repr__(self) -> str:
        return f"ModularSymbolSpace(N={self.N}, k={self.k}, ell={self.ell})"

    # -- operators ----------------------------------------------------------

    def hecke_on_quotient(self, q: int) -> np.ndarray:
        if not is_prime(q):
            raise DomainError("hecke operators are indexed by primes")
        if self.N % q == 0:
            raise DomainError("hecke operator at a prime dividing the level")
        return self._act(heilbronn_matrices(q))

    def _act(self, mats: np.ndarray) -> np.ndarray:
        """The matrices' summed action on the free symbols, projected onto them."""
        A = np.zeros((self.n_symbols, self._source_reps.shape[0] * (self.k - 1)), dtype=np.int64)
        hecke_accum(A, mats, self.p1.table, self._source_reps, self.k, self.N, self.ell)
        return matmul_mod(self._proj, A[:, self._source_cols], self.ell)

    def hecke_matrix(self, q: int) -> np.ndarray:
        """T_q restricted to the plus part of the cuspidal subspace, in plus_basis."""
        if q not in self._hecke:
            self._hecke[q] = restrict(self.hecke_on_quotient(q), self.plus_basis, self.ell)
        return self._hecke[q]


@lru_cache(maxsize=64)
def symbol_space(N: int, k: int, ell: int) -> ModularSymbolSpace:
    return ModularSymbolSpace(N, k, ell)
