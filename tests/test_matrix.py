import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heckechain import matrix
from heckechain.gf import field
from test_polys import evaluate


def rand_matrix(rng, n, m, p):
    return rng.integers(0, p, size=(n, m), dtype=np.int64)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from([5, 7, 11, 13]),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=8),
)
def test_rank_nullity(seed, p, n, m):
    rng = np.random.default_rng(seed)
    a = rand_matrix(rng, n, m, p)
    reduced, rank, pivots = matrix.rref(a, p)
    ker, _ = matrix.right_kernel(a, p)
    assert rank == len(pivots)
    assert rank + ker.shape[1] == m
    assert np.all(a @ ker % p == 0)
    for row in reduced[rank:]:
        assert not row.any()
    # Pivot columns are strictly increasing with unit pivots.
    assert pivots == sorted(pivots)
    for i, c in enumerate(pivots):
        assert reduced[i, c] == 1


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from([5, 11]),
    st.integers(min_value=1, max_value=6),
)
def test_charpoly_cayley_hamilton(seed, p, n):
    rng = np.random.default_rng(seed)
    a = rand_matrix(rng, n, n, p)
    f = matrix.charpoly_mod(a, p)
    assert len(f) == n + 1
    assert f[-1] == 1
    image = matrix.poly_of_matrix(f, a, p)
    assert not image.any()


def test_charpoly_known_2x2():
    a = np.array([[1, 2], [3, 4]], dtype=np.int64)
    # char poly x^2 - 5x - 2 over F_7: constant -2 -> 5, linear -5 -> 2.
    assert matrix.charpoly_mod(a, 7) == (5, 2, 1)


def test_solve_columns_round_trip():
    p = 11
    rng = np.random.default_rng(3)
    C = rng.integers(0, p, size=(6, 3), dtype=np.int64)
    while matrix.rref(C, p)[1] < 3:
        C = rng.integers(0, p, size=(6, 3), dtype=np.int64)
    X = rng.integers(0, p, size=(3, 4), dtype=np.int64)
    B = C @ X % p
    solved = matrix.solve_columns(C, B, p)
    assert np.array_equal(C @ solved % p, B)


def test_gkernel_matches_prime_field_kernel():
    p = 7
    rng = np.random.default_rng(5)
    a = rng.integers(0, p, size=(5, 7), dtype=np.int64)
    F = field(p)
    gker = matrix.gkernel(F, a.tolist())
    nker, _ = matrix.right_kernel(a, p)
    assert len(gker) == nker.shape[1]
    for vec in gker:
        assert all(
            sum(r * v for r, v in zip(row, vec)) % p == 0 for row in a.tolist()
        )


def test_gcharpoly_matches_numpy_charpoly_on_prime_field():
    p = 13
    rng = np.random.default_rng(11)
    a = rng.integers(0, p, size=(5, 5), dtype=np.int64)
    F = field(p)
    assert matrix.gcharpoly(F, a.tolist()) == matrix.charpoly_mod(a, p)


def test_gcharpoly_extension_field_eigenvalue():
    F = field(5, 2)
    g = F.encode((0, 1))
    A = [[g]]
    f = matrix.gcharpoly(F, A)
    assert evaluate(F, f, g) == 0


def loop_kernel(a, p):
    """Right kernel by a loop over the free and pivot columns of the rref."""
    m, rank, piv = matrix.rref(a, p)
    free = [c for c in range(a.shape[1]) if c not in piv]
    K = np.zeros((a.shape[1], len(free)), dtype=np.int64)
    for j, f in enumerate(free):
        K[f, j] = 1
        for i, pc in enumerate(piv):
            K[pc, j] = (-m[i, f]) % p
    return K, free


@pytest.mark.parametrize("p", [5, 7, 13, 10007])
def test_right_kernel_matches_loop(p):
    rng = np.random.default_rng(p)
    cases = [np.zeros((3, 5), dtype=np.int64), np.eye(4, dtype=np.int64) * 2, np.zeros((0, 3), dtype=np.int64)]
    for n, m in [(1, 1), (2, 5), (5, 2), (4, 4), (6, 9), (9, 6)]:
        cases.append(rand_matrix(rng, n, m, p))
        low = rand_matrix(rng, n, 1, p) @ rand_matrix(rng, 1, m, p) % p
        cases.append(low)
    for a in cases:
        K, free = matrix.right_kernel(a, p)
        want, want_free = loop_kernel(a, p)
        assert free == want_free
        assert np.array_equal(K, want)
        assert np.array_equal(K[free], np.eye(len(free), dtype=np.int64))
        assert not (a @ K % p).any()


def loop_hessenberg_mod(a, p):
    """Upper Hessenberg form by one row and column operation at a time."""
    H = np.array(a, dtype=np.int64) % p
    n = H.shape[0]
    for m in range(1, n):
        pr = next((i for i in range(m, n) if H[i, m - 1]), -1)
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


def hessenberg_cases(p):
    rng = np.random.default_rng(p)
    cases = [np.zeros((4, 4), dtype=np.int64), np.zeros((1, 1), dtype=np.int64)]
    for n in (1, 2, 5, 8, 12):
        cases.append(rand_matrix(rng, n, n, p))
        cases.append(rand_matrix(rng, n, 1, p) @ rand_matrix(rng, 1, n, p) % p)
        cases.append(np.triu(rand_matrix(rng, n, n, p), -1))
        # Mostly zero, so some columns have a zero subdiagonal, and some
        # pivots are found below the subdiagonal.
        cases.append(rand_matrix(rng, n, n, p) * (rng.random((n, n)) < 0.2))
    # A zero subdiagonal below the first column; a column-permuted identity.
    block = rand_matrix(rng, 6, 6, p)
    block[1:, 0] = 0
    cases += [block, np.eye(7, dtype=np.int64)[::-1]]
    return cases


@pytest.mark.parametrize("p", [5, 7, 13, 10007])
def test_hessenberg_matches_loop(p):
    for a in hessenberg_cases(p):
        H = matrix._hessenberg_mod(a, p)
        assert np.array_equal(H, loop_hessenberg_mod(a, p))
        assert not np.tril(H, -2).any()


@pytest.mark.parametrize("p", [5, 7, 13, 10007])
def test_charpoly_mod_matches_the_field_recurrence(p):
    for a in hessenberg_cases(p):
        H = matrix._hessenberg_mod(a, p).tolist()
        assert matrix.charpoly_mod(a, p) == matrix._hessenberg_charpoly(field(p), H)
