"""Dense mod-p kernels: row reduction, matrix product, Hecke accumulation
and the quadratic-residue sieve scan, one numpy implementation each.

Arrays are int64 with entries reduced into [0, p); callers must keep
n * (p - 1)^2 below 2**63 so products cannot overflow.
benchmarks/bench_kernels.py times the kernels.
"""

from __future__ import annotations

import functools

import numpy as np

# Written into benchmark stamp lines; numpy is the only kernel lane.
KERNEL_PATH = "numpy"


# -- row reduction ----------------------------------------------------------


def rref_mod(a: np.ndarray, p: int):
    """Reduced row echelon form in place; returns (rank, pivot columns)."""
    if a.dtype != np.int64:
        raise TypeError("rref_mod expects int64 input")
    if a.size and int(a.shape[1]) * (p - 1) * (p - 1) >= 2**63:
        raise OverflowError("modulus too large for int64 row reduction")
    rows, cols = a.shape
    piv = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        a[r] = a[r] * pow(int(a[r, c]), p - 2, p) % p
        col = a[:, c].copy()
        col[r] = 0
        hit = np.nonzero(col)[0]
        if hit.size:
            a[hit] = (a[hit] - col[hit, None] * a[r][None, :]) % p
        piv.append(c)
        r += 1
    return r, np.array(piv, dtype=np.int64)


def matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    if a.shape[1] and int(a.shape[1]) * (p - 1) * (p - 1) >= 2**63:
        raise OverflowError("modulus too large for int64 matmul")
    return (a @ b) % p


# -- Hecke accumulation ------------------------------------------------------

# Hecke matrices are scattered in blocks of at most this many terms
# (matrices x reps x (k-1)^2), which bounds the index and value arrays held
# at once: one pass per T_q raised the peak RSS of `orbits 389 2 7` then
# `orbits 97 4 13` in one process from 76 to 85 MB, blocks of 2**16 terms
# to under 77 MB.
SCATTER_LIMIT = 1 << 16


def _binomial_table(k: int, ell: int) -> np.ndarray:
    kk = k - 2
    C = np.zeros((kk + 1, kk + 1), dtype=np.int64)
    for n in range(kk + 1):
        C[n, 0] = 1
        for m in range(1, n + 1):
            C[n, m] = (C[n - 1, m - 1] + C[n - 1, m]) % ell
    return C


def _sym_blocks(mats, k, ell):
    """(G, k-1, k-1) tensor: B[g, i, j] is the coefficient of X^j Y^(kk-j)
    in (a X + b Y)^i (c X + d Y)^(kk-i) mod ell, kk = k - 2, for the g-th
    matrix (a, b, c, d)."""
    kk = k - 2
    if kk == 0:
        return np.ones((mats.shape[0], 1, 1), dtype=np.int64)
    C = _binomial_table(k, ell)
    pw = np.ones((mats.shape[0], 4, kk + 1), dtype=np.int64)
    base = mats % ell
    for e in range(1, kk + 1):
        pw[:, :, e] = pw[:, :, e - 1] * base % ell
    apow, bpow, cpow, dpow = (pw[:, col] for col in range(4))
    i = np.arange(kk + 1)[:, None]
    m = np.arange(kk + 1)[None, :]
    # U[g, i, m] = C(i, m) a^m b^(i-m) and V[g, i, n] = C(kk-i, n) c^n
    # d^(kk-i-n); the binomial table is zero where the exponent would be
    # negative, so clipping it to 0 is harmless.
    U = C[i, m] * apow[:, m] % ell * bpow[:, np.maximum(i - m, 0)] % ell
    V = C[kk - i, m] * cpow[:, m] % ell * dpow[:, np.maximum(kk - i - m, 0)] % ell
    B = np.zeros_like(U)
    for s in range(kk + 1):
        B[:, :, s:] += U[:, :, s : s + 1] * V[:, :, : kk + 1 - s]
    return B % ell


def hecke_accum(acc, mats, tbl, reps, k, N, ell):
    """Accumulate the determinant-q matrix action on the symbol basis.

    acc is a C-contiguous n_symbols x (#reps * (k - 1)) array, zeroed by the
    caller; mats holds rows (a, b, c, d); tbl maps a pair mod N to its slot
    in P^1 or -1.  The reps passed are the sources, all of P^1 or any subset
    of it; targets always come from the full tbl, so n_symbols = #P^1 *
    (k - 1).  Column block x feeds row block t, the slot of (u, v) * g for
    the x-th rep (u, v); entry (i, j) of the g-th Sym^(k-2) block couples
    source exponent i to target exponent j.  Sums are exact in int64,
    scattered through one flat index and reduced mod ell once at the end.
    """
    w = k - 1
    if not acc.flags.c_contiguous:  # reshape would copy, and the sums be lost
        raise ValueError("hecke_accum needs a C-contiguous accumulator")
    B = _sym_blocks(mats, k, ell)
    u = reps[:, 0]
    v = reps[:, 1]
    e = np.arange(w)
    step = max(1, SCATTER_LIMIT // max(1, reps.shape[0] * w * w))
    for g0 in range(0, mats.shape[0], step):
        a, b, c, d = (mats[g0 : g0 + step, col, None] for col in range(4))
        targets = tbl[(u * a + v * c) % N, (u * b + v * d) % N]
        g, x = np.nonzero(targets >= 0)
        t = targets[g, x]
        rows = (t * w)[:, None, None] + e[None, None, :]
        cols = (x * w)[:, None, None] + e[None, :, None]
        np.add.at(acc.reshape(-1), (rows * acc.shape[1] + cols).ravel(), B[g0 + g].ravel())
    acc %= ell


# -- quadratic-residue sieve scan --------------------------------------------

# The wheel modulus W is the product of the leading moduli while it stays
# at most this; the survivors mod W (at most W int64s) are kept for the last
# few sieve problems.
WHEEL_LIMIT = 2_000_000


@functools.lru_cache(maxsize=8)
def _wheel(x0, step, ells):
    """(W, sorted survivors of t mod W, ((l, allowed-by-t-mod-l table), ...)).

    n = x0 + t*step mod l depends only on t mod l, so each modulus turns
    into a lookup table on t mod l: whether that n is a nonzero square.  The
    leading ones are folded into a CRT wheel one at a time, extending the
    survivors mod W to survivors mod W*l without ever listing all of 0..W-1.
    """
    W = 1
    survivors = np.zeros(1, dtype=np.int64)
    rest = []
    for l in ells:
        squares = np.zeros(l, dtype=bool)
        squares[np.arange(1, l, dtype=np.int64) ** 2 % l] = True
        allowed = squares[(x0 % l + np.arange(l, dtype=np.int64) * (step % l)) % l]
        if W * l <= WHEEL_LIMIT:
            lifted = (W * np.arange(l, dtype=np.int64)[:, None] + survivors).ravel()
            survivors = lifted[allowed[lifted % l]]
            W *= l
        else:
            allowed.setflags(write=False)
            rest.append((l, allowed))
    # Every caller shares the memoised arrays.
    survivors.setflags(write=False)
    return W, survivors, tuple(rest)


def sieve_scan(x0, step, t_start, count, ells):
    """Every n = x0 + t*step with t in [t_start, t_start + count) that is a
    nonzero square modulo each odd prime in ells, in increasing order.

    Survivors come off a CRT wheel over the leading moduli (memoised per
    sieve problem) and are filtered against the remaining ones with table
    lookups, in the manner of Sorenson's wheel sieve for pseudosquares
    (ANTS IX, 2010).
    """
    x0, step, t_start, count = int(x0), int(step), int(t_start), int(count)
    W, survivors, rest = _wheel(x0, step, tuple(int(l) for l in ells))
    t_end = t_start + count
    base = t_start - t_start % W
    periods = -(-(t_end - base) // W)
    t = (base + W * np.arange(periods, dtype=np.int64)[:, None] + survivors).ravel()
    t = t[np.searchsorted(t, t_start) : np.searchsorted(t, t_end)]
    for l, allowed in rest:
        t = t[allowed[t % l]]
        if t.size == 0:
            break
    return [int(h) for h in x0 + t * step]
