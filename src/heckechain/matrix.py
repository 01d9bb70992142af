"""Linear algebra over prime fields (numpy int64) and over extension fields.

Prime-field matrices are numpy int64 arrays reduced mod p and go through the
numpy kernels of `_kernels`. `apply_np_to_gvecs` applies one to vectors over
an extension field, which evaluates polynomials at an orbit's conjugate
roots; the list routines `grref`, `gkernel`, `gsolve_columns` and `gcharpoly`
have no caller in the package.

Both characteristic polynomials, `charpoly_mod` and `gcharpoly`, reduce to
upper Hessenberg form in their own representation and then run one minors
recurrence, over F_p on plain ints and otherwise over a `FiniteField`.
"""

from __future__ import annotations

import numpy as np

from ._kernels import matmul_mod, rref_mod
from .arith import DomainError
from .gf import FiniteField
from .polys import Poly


# -- prime field, numpy ------------------------------------------------------


def rref(a: np.ndarray, p: int):
    """(reduced matrix, rank, pivot column list); input is not modified."""
    m = np.array(a, dtype=np.int64) % p
    rank, piv = rref_mod(m, p)
    return m, rank, [int(c) for c in piv]


def right_kernel(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """(K, free): a basis of the right kernel as the columns of an
    (n, nullity) array, and the non-pivot columns of a's rref; K[free] is
    the identity."""
    m, rank, piv = rref(a, p)
    pivset = set(piv)
    free = [c for c in range(a.shape[1]) if c not in pivset]
    K = np.zeros((a.shape[1], len(free)), dtype=np.int64)
    K[free, np.arange(len(free))] = 1
    K[piv] = -m[:rank][:, free] % p
    return K, free


def solve_columns(C: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    """X with C @ X = B mod p, for C with independent columns."""
    n, m = C.shape
    if B.shape[0] != n:
        raise DomainError("shape mismatch in linear solve")
    aug = np.concatenate([C % p, B % p], axis=1).astype(np.int64)
    rank, piv = rref_mod(aug, p)
    piv = [int(c) for c in piv]
    if any(c >= m for c in piv):
        raise DomainError("linear system is inconsistent")
    if rank < m:
        raise DomainError("coefficient columns are dependent")
    return aug[:m, m:].copy()


def restrict(M: np.ndarray, basis: np.ndarray, p: int) -> np.ndarray:
    """M restricted to the invariant span of basis's columns over F_p, read
    off rows where basis is I and proved by one product.  `right_kernel`
    gives K[free] = I, and a product basis @ K keeps such rows."""
    X = matmul_mod(M, basis, p)
    unit = np.flatnonzero((np.count_nonzero(basis, axis=1) == 1) & (basis.sum(axis=1) == 1))
    cols, first = np.unique(np.nonzero(basis[unit])[1], return_index=True)
    if len(cols) != basis.shape[1]:
        raise DomainError("basis has no identity rows")
    R = X[unit[first]]
    if not np.array_equal(matmul_mod(basis, R, p), X):
        raise DomainError("linear system is inconsistent")
    return R


def _hessenberg_mod(a: np.ndarray, p: int) -> np.ndarray:
    H = np.array(a, dtype=np.int64) % p
    n = H.shape[0]
    for m in range(1, n):
        nz = np.flatnonzero(H[m:, m - 1])
        if nz.size == 0:
            continue
        pr = m + int(nz[0])
        H[[m, pr]] = H[[pr, m]]
        H[:, [m, pr]] = H[:, [pr, m]]
        # Eliminations below the pivot commute: all rows, then all columns.
        u = H[m + 1 :, m - 1] * pow(int(H[m, m - 1]), p - 2, p) % p
        H[m + 1 :] = (H[m + 1 :] - u[:, None] * H[m]) % p
        H[:, m] = (H[:, m] + H[:, m + 1 :] @ u) % p
    return H


def charpoly_mod(a: np.ndarray, p: int) -> Poly:
    """Monic characteristic polynomial, little-endian coefficients mod p."""
    n = a.shape[0]
    if a.shape != (n, n):
        raise DomainError("characteristic polynomial needs a square matrix")
    return _hessenberg_charpoly_mod(p, _hessenberg_mod(a, p).tolist())


def _hessenberg_charpoly(F: FiniteField, H: list[list[int]]) -> Poly:
    """Monic charpoly of an upper Hessenberg matrix over F, by the recurrence
    on its leading principal minors."""
    minors: list[list[int]] = [[1]]
    for m in range(1, len(H) + 1):
        cur = [0, *minors[-1]]
        t = 1  # the subdiagonal product; the one made at i = 1 is unused
        for i in range(m, 0, -1):
            coeff = F.mul(H[i - 1][m - 1], t)
            if coeff:
                for idx, co in enumerate(minors[i - 1]):
                    cur[idx] = F.sub(cur[idx], F.mul(coeff, co))
            t = F.mul(t, H[i - 1][i - 2])
        minors.append(cur)
    return tuple(minors[-1])


def _hessenberg_charpoly_mod(p: int, H: list[list[int]]) -> Poly:
    """The same recurrence over F_p on plain ints, each minor reduced once."""
    minors: list[list[int]] = [[1]]
    for m in range(1, len(H) + 1):
        cur = [0, *minors[-1]]
        t = 1
        for i in range(m, 0, -1):
            coeff = H[i - 1][m - 1] * t % p
            if coeff:
                for idx, co in enumerate(minors[i - 1]):
                    cur[idx] -= coeff * co
            t = t * H[i - 1][i - 2] % p
        minors.append([c % p for c in cur])
    return tuple(minors[-1])


def poly_of_matrix(f: Poly, a: np.ndarray, p: int) -> np.ndarray:
    """Evaluate f at the matrix a over F_p (Horner)."""
    n = a.shape[0]
    acc = np.zeros((n, n), dtype=np.int64)
    for c in reversed(f):
        acc = matmul_mod(acc, a, p)
        if c % p:
            acc = (acc + np.eye(n, dtype=np.int64) * (c % p)) % p
    return acc


def matrix_power(a: np.ndarray, e: int, p: int) -> np.ndarray:
    """a^e over F_p, by squaring along the bits of e from the top."""
    out = np.eye(a.shape[0], dtype=np.int64)
    for bit in bin(e)[2:]:
        out = matmul_mod(out, out, p)
        if bit == "1":
            out = matmul_mod(out, a, p)
    return out


# -- generic field, small dense ----------------------------------------------

GMat = list[list[int]]


def grref(F: FiniteField, A: GMat):
    """(reduced copy, rank, pivot columns)."""
    M = [list(r) for r in A]
    rows = len(M)
    cols = len(M[0]) if rows else 0
    piv: list[int] = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if M[i][c]), -1)
        if pr < 0:
            continue
        M[r], M[pr] = M[pr], M[r]
        inv = F.inv(M[r][c])
        M[r] = [F.mul(inv, x) for x in M[r]]
        for i in range(rows):
            if i != r and M[i][c]:
                f = M[i][c]
                M[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(M[i], M[r])]
        piv.append(c)
        r += 1
        if r == rows:
            break
    return M, r, piv


def gkernel(F: FiniteField, A: GMat) -> list[list[int]]:
    """Right kernel basis vectors (each of length ncols)."""
    cols = len(A[0]) if A else 0
    M, rank, piv = grref(F, A)
    pivset = set(piv)
    basis = []
    for f in range(cols):
        if f in pivset:
            continue
        v = [0] * cols
        v[f] = 1
        for i, pc in enumerate(piv):
            v[pc] = F.neg(M[i][f])
        basis.append(v)
    return basis


def gsolve_columns(F: FiniteField, C: GMat, B: GMat) -> GMat:
    """X with C X = B for C of full column rank."""
    n = len(C)
    m = len(C[0]) if n else 0
    aug = [C[i] + B[i] for i in range(n)]
    M, rank, piv = grref(F, aug)
    if any(c >= m for c in piv):
        raise DomainError("linear system is inconsistent")
    if rank < m:
        raise DomainError("coefficient columns are dependent")
    return [M[i][m:] for i in range(m)]


def gcharpoly(F: FiniteField, A: GMat) -> Poly:
    n = len(A)
    H = [list(r) for r in A]
    for m in range(1, n):
        pr = next((i for i in range(m, n) if H[i][m - 1]), -1)
        if pr < 0:
            continue
        if pr != m:
            H[m], H[pr] = H[pr], H[m]
            for row in H:
                row[m], row[pr] = row[pr], row[m]
        inv = F.inv(H[m][m - 1])
        for i in range(m + 1, n):
            if H[i][m - 1]:
                u = F.mul(H[i][m - 1], inv)
                H[i] = [F.sub(x, F.mul(u, y)) for x, y in zip(H[i], H[m])]
                for row in H:
                    row[m] = F.add(row[m], F.mul(u, row[i]))
    return _hessenberg_charpoly(F, H)


def apply_np_to_gvecs(M: np.ndarray, vecs: list[list[int]], K: FiniteField) -> list[list[int]]:
    """Apply a prime-field matrix to vectors with entries in the extension K.

    Entries decompose into d prime-field coordinates, so the action is d
    independent numpy products glued back together.
    """
    p = K.p
    n = M.shape[1]
    cols = np.zeros((n, len(vecs), K.degree), dtype=np.int64)
    for j, v in enumerate(vecs):
        for i, enc in enumerate(v):
            for t, c in enumerate(K.decode(enc)):
                cols[i, j, t] = c
    flat = cols.reshape(n, -1)
    out = matmul_mod(M % p, flat, p).reshape(M.shape[0], len(vecs), K.degree)
    result = []
    for j in range(len(vecs)):
        result.append([K.encode(out[i, j]) for i in range(M.shape[0])])
    return result
