from math import comb

import numpy as np
import pytest

from heckechain import _kernels
from heckechain._kernels import hecke_accum, rref_mod, sieve_scan
from heckechain.modsym import P1List, merel_matrices


def reference_rref(a, p):
    """Naive row reduction over F_p, independent of the kernel code."""
    a = [[int(x) % p for x in row] for row in a]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if a[i][c]), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = pow(a[r][c], p - 2, p)
        a[r] = [x * inv % p for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, r, pivots


def test_rref_matches_reference():
    rng = np.random.default_rng(5077)
    for p in (2, 5, 101, 10007):
        for shape in ((1, 1), (3, 5), (5, 3), (8, 8), (12, 4)):
            a = rng.integers(0, p, size=shape).astype(np.int64)
            want, want_rank, want_piv = reference_rref(a.tolist(), p)
            got = a.copy()
            rank, piv = rref_mod(got, p)
            assert rank == want_rank
            assert piv.tolist() == want_piv
            assert got.tolist() == want


def test_rref_edge_cases():
    rank, piv = rref_mod(np.empty((0, 4), dtype=np.int64), 7)
    assert rank == 0 and piv.size == 0
    with pytest.raises(TypeError, match="int64"):
        rref_mod(np.zeros((2, 2), dtype=np.int32), 7)
    with pytest.raises(OverflowError, match="int64"):
        rref_mod(np.zeros((2, 2), dtype=np.int64), 2**33)


def euler_hits(x0, step, t_start, count, ells):
    """Every n = x0 + t*step in the window that is a nonzero square mod each
    l in ells, by Euler's criterion n^((l-1)/2) = 1 mod l."""
    hits = []
    for t in range(t_start, t_start + count):
        n = x0 + t * step
        if all(pow(n, (l - 1) // 2, l) == 1 for l in ells):
            hits.append(n)
    return hits


def test_sieve_scan_matches_brute_force():
    # A dense window: no cap on the number of hits returned.
    ells = (3, 5, 7)
    x0, step, t_start, count = 3, 4, 0, 4000
    want = euler_hits(x0, step, t_start, count, ells)
    assert len(want) > 64
    assert sieve_scan(x0, step, t_start, count, ells) == want


def test_sieve_scan_empty_window():
    # Every n = 5t is zero mod 5, which is not a nonzero square.
    assert sieve_scan(0, 5, 1, 100, (5,)) == []
    assert sieve_scan(3, 4, 17, 0, (3, 5, 7)) == []


# Odd primes to 29: 3..17 fill the sieve's wheel (W = 255255), 19, 23 and 29
# are filtered outside it.
ODD_PRIMES_TO_29 = (3, 5, 7, 11, 13, 17, 19, 23, 29)
WHEEL = 3 * 5 * 7 * 11 * 13 * 17


def test_sieve_scan_wheel_matches_brute_force_across_periods():
    # The window starts and ends mid-period, so the scan resumes inside one.
    x0, step, t_start, count = 761, 872, 2 * WHEEL + 12345, 3 * WHEEL + 777
    want = euler_hits(x0, step, t_start, count, ODD_PRIMES_TO_29)
    got = sieve_scan(x0, step, t_start, count, ODD_PRIMES_TO_29)
    assert got == want
    periods = {(n - x0) // step // WHEEL for n in want}
    assert len(periods) == 4


def loop_hecke_accum(acc, mats, tbl, reps, k, N, ell):
    """One Merel matrix at a time: the Sym^(k-2) block of each matrix is
    added, mod ell, into the block of every rep whose image has a slot."""
    kk = k - 2
    w = k - 1
    C = np.array(
        [[comb(n, m) % ell for m in range(kk + 1)] for n in range(kk + 1)], dtype=np.int64
    )
    idx = np.arange(kk + 1)
    u = reps[:, 0]
    v = reps[:, 1]
    for gi in range(mats.shape[0]):
        a, b, c, d = (int(x) for x in mats[gi])
        apow = np.array([pow(a % ell, int(i), ell) for i in idx], dtype=np.int64)
        bpow = np.array([pow(b % ell, int(i), ell) for i in idx], dtype=np.int64)
        cpow = np.array([pow(c % ell, int(i), ell) for i in idx], dtype=np.int64)
        dpow = np.array([pow(d % ell, int(i), ell) for i in idx], dtype=np.int64)
        B = np.zeros((kk + 1, kk + 1), dtype=np.int64)
        for i in range(kk + 1):
            urow = C[i, : i + 1] * apow[: i + 1] % ell * bpow[: i + 1][::-1] % ell
            vrow = (
                C[kk - i, : kk - i + 1]
                * cpow[: kk - i + 1]
                % ell
                * dpow[: kk - i + 1][::-1]
                % ell
            )
            B[i] = np.convolve(urow, vrow) % ell
        targets = tbl[(u * a + v * c) % N, (u * b + v * d) % N]
        for x in range(reps.shape[0]):
            t = int(targets[x])
            if t < 0:
                continue
            # column block x feeds row block t; B[i, j] couples source
            # exponent i to target exponent j
            acc[t * w : t * w + kk + 1, x * w : x * w + kk + 1] = (
                acc[t * w : t * w + kk + 1, x * w : x * w + kk + 1] + B.T
            ) % ell


def merel(q):
    return np.array(merel_matrices(q), dtype=np.int64)


def signed_matrices(q):
    """Random integer matrices with negative entries, seeded by q."""
    return np.random.default_rng(q).integers(-50, 51, size=(40, 4)).astype(np.int64)


def assert_matches_loop(N, k, ell, mats, sources=None):
    """The kernel against the loop on the reps indexed by sources (all of
    P^1 when None); targets always range over all of P^1."""
    p1 = P1List(N)
    reps = p1.reps if sources is None else p1.reps[np.asarray(sources, dtype=np.int64)]
    shape = (len(p1) * (k - 1), reps.shape[0] * (k - 1))
    want = np.zeros(shape, dtype=np.int64)
    loop_hecke_accum(want, mats, p1.table, reps, k, N, ell)
    got = np.zeros(shape, dtype=np.int64)
    hecke_accum(got, mats, p1.table, reps, k, N, ell)
    assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "N, k, ell, q, mats",
    [
        (11, 2, 7, 43, merel),
        (389, 2, 7, 3, merel),
        (37, 2, 5, 11, merel),
        (23, 4, 13, 2, merel),
        (37, 6, 101, 7, merel),
        (5, 12, 11, 13, merel),
        (1, 12, 13, 5, merel),
        (15, 4, 7, 3, signed_matrices),
    ],
)
def test_hecke_accum_matches_loop(N, k, ell, q, mats):
    n = len(P1List(N))
    # All reps, every other rep, a single rep and none: with no reps the
    # kernel leaves the empty accumulator as it is.
    for sources in (None, range(0, n, 2), [n // 2], []):
        assert_matches_loop(N, k, ell, mats(q), sources)


@pytest.mark.parametrize("limit", [None, 1, 5 * 98 * 9 + 1])
def test_hecke_accum_is_independent_of_scatter_blocks(monkeypatch, limit):
    # T_31 on P^1(Z/97) at weight 4: 219 matrices x 98 reps x 9 = 193 158
    # terms, so three blocks at the default limit, one matrix per block at
    # limit 1, and a short last block at five matrices per block.
    mats = merel(31)
    if limit is None:
        assert mats.shape[0] * 98 * 9 > 2 * _kernels.SCATTER_LIMIT
    else:
        monkeypatch.setattr(_kernels, "SCATTER_LIMIT", limit)
    assert_matches_loop(97, 4, 13, mats)


def test_hecke_accum_refuses_a_strided_accumulator():
    # A flat view of a strided array would be a copy, and the sums lost.
    p1 = P1List(11)
    acc = np.zeros((len(p1), 2 * len(p1)), dtype=np.int64)[:, ::2]
    with pytest.raises(ValueError, match="C-contiguous"):
        hecke_accum(acc, merel(2), p1.table, p1.reps, 2, 11, 7)
