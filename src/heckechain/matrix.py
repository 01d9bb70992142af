"""Linear algebra over prime fields (numpy int64) and over extension fields.

Prime-field matrices are numpy int64 arrays reduced mod p and go through the
compiled kernels. Extension-field matrices stay small (eigenspace refinement
blocks), so they are plain lists of integer-encoded field elements.
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


def right_kernel(a: np.ndarray, p: int) -> np.ndarray:
    """Basis of the right kernel as columns of an (n, nullity) array."""
    n = a.shape[1]
    m, rank, piv = rref(a, p)
    free = [c for c in range(n) if c not in set(piv)]
    K = np.zeros((n, len(free)), dtype=np.int64)
    for j, f in enumerate(free):
        K[f, j] = 1
        for i, pc in enumerate(piv):
            K[pc, j] = (-m[i, f]) % p
    return K


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


def _hessenberg_mod(a: np.ndarray, p: int) -> np.ndarray:
    H = np.array(a, dtype=np.int64) % p
    n = H.shape[0]
    for m in range(1, n):
        pr = -1
        for i in range(m, n):
            if H[i, m - 1]:
                pr = i
                break
        if pr < 0:
            continue
        if pr != m:
            H[[m, pr]] = H[[pr, m]]
            H[:, [m, pr]] = H[:, [pr, m]]
        inv = pow(int(H[m, m - 1]), p - 2, p)
        for i in range(m + 1, n):
            if H[i, m - 1]:
                u = int(H[i, m - 1]) * inv % p
                H[i] = (H[i] - u * H[m]) % p
                H[:, m] = (H[:, m] + u * H[:, i]) % p
    return H


def charpoly_mod(a: np.ndarray, p: int) -> Poly:
    """Monic characteristic polynomial, little-endian coefficients mod p."""
    n = a.shape[0]
    if a.shape != (n, n):
        raise DomainError("characteristic polynomial needs a square matrix")
    if n == 0:
        return (1,)
    H = _hessenberg_mod(a, p)
    polys: list[list[int]] = [[1]]
    for m in range(1, n + 1):
        prev = polys[m - 1]
        cur = [0] * (m + 1)
        for idx, co in enumerate(prev):
            cur[idx + 1] = (cur[idx + 1] + co) % p
            cur[idx] = (cur[idx] - int(H[m - 1, m - 1]) * co) % p
        t = 1
        for i in range(m - 1, 0, -1):
            t = t * int(H[i, i - 1]) % p
            coeff = int(H[i - 1, m - 1]) * t % p
            if coeff:
                for idx, co in enumerate(polys[i - 1]):
                    cur[idx] = (cur[idx] - coeff * co) % p
        polys.append(cur)
    return tuple(polys[n])


def poly_of_matrix(f: Poly, a: np.ndarray, p: int) -> np.ndarray:
    """Evaluate f at the matrix a over F_p (Horner)."""
    n = a.shape[0]
    acc = np.zeros((n, n), dtype=np.int64)
    for c in reversed(f):
        acc = matmul_mod(acc, a, p)
        if c % p:
            acc = (acc + np.eye(n, dtype=np.int64) * (c % p)) % p
    return acc


# -- generic field, small dense ----------------------------------------------

GMat = list[list[int]]


def gmat(F: FiniteField, rows) -> GMat:
    return [list(r) for r in rows]


def gmat_from_np(a: np.ndarray) -> GMat:
    # Prime-field residues encode identically inside any extension of F_p.
    return [[int(x) for x in row] for row in a]


def gidentity(F: FiniteField, n: int) -> GMat:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def gmat_mul(F: FiniteField, A: GMat, B: GMat) -> GMat:
    n, m = len(A), len(B[0]) if B else 0
    inner = len(B)
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        Ai = A[i]
        for t in range(inner):
            a = Ai[t]
            if a:
                Bt = B[t]
                row = out[i]
                for j in range(m):
                    if Bt[j]:
                        row[j] = F.add(row[j], F.mul(a, Bt[j]))
    return out


def gmat_sub_scalar(F: FiniteField, A: GMat, c: int) -> GMat:
    out = [list(r) for r in A]
    for i in range(len(out)):
        out[i][i] = F.sub(out[i][i], c)
    return out


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
    if n == 0:
        return (1,)
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
    polys: list[list[int]] = [[1]]
    for m in range(1, n + 1):
        prev = polys[m - 1]
        cur = [0] * (m + 1)
        for idx, co in enumerate(prev):
            cur[idx + 1] = F.add(cur[idx + 1], co)
            cur[idx] = F.sub(cur[idx], F.mul(H[m - 1][m - 1], co))
        t = 1
        for i in range(m - 1, 0, -1):
            t = F.mul(t, H[i][i - 1])
            coeff = F.mul(H[i - 1][m - 1], t)
            if coeff:
                for idx, co in enumerate(polys[i - 1]):
                    cur[idx] = F.sub(cur[idx], F.mul(coeff, co))
        polys.append(cur)
    return tuple(polys[n])


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
