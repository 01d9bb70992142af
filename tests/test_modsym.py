from math import gcd

import numpy as np
import pytest

from heckechain._kernels import hecke_accum, matmul_mod
from heckechain.arith import DomainError, primes_up_to
from heckechain.dims import dim_cusp_forms, nu_inf
from heckechain.images import witness_bound
from heckechain.matrix import restrict, right_kernel
from heckechain.modsym import (
    MAX_LEVEL,
    MAX_WEIGHT,
    STAR,
    ModularSymbolSpace,
    P1List,
    Presentation,
    _presentation,
    heilbronn_matrices,
    symbol_space,
    validate_space,
)
from test_kernels import merel

# Cusp form dimensions from the standard genus/dimension formulas; the
# cuspidal modular symbol space is twice as large, and its plus part as large.
DIMENSION_PINS = {
    (11, 2): 1,
    (23, 2): 2,
    (37, 2): 2,
    (67, 2): 5,
    (1, 12): 1,
    (14, 2): 1,
    (15, 2): 1,
    (33, 2): 3,
    (1, 2): 0,
    (2, 8): 1,
    (6, 4): 1,
    (13, 4): 3,
}


def test_p1_size_is_projective_line_count():
    # |P^1(Z/N)| = N * prod(1 + 1/p).
    for N, expect in [(1, 1), (2, 3), (11, 12), (12, 24), (30, 72), (49, 56)]:
        assert len(P1List(N).reps) == expect


def test_p1_index_is_scaling_invariant():
    N = 12
    p1 = P1List(N)
    units = [t for t in range(1, N) if np_gcd(t, N) == 1]
    for u in range(N):
        for v in range(N):
            idx = p1.index(u, v)
            if np_gcd(np_gcd(u, v), N) != 1:
                assert idx == -1
                continue
            assert 0 <= idx < len(p1)
            for t in units:
                assert p1.index(t * u, t * v) == idx
    for i, (u, v) in enumerate(p1.reps.tolist()):
        assert p1.index(u, v) == i


def loop_p1list(N):
    """P^1(Z/N) by a double loop over all N^2 pairs: (reps, table)."""
    if N == 1:
        return np.zeros((1, 2), dtype=np.int64), np.zeros((1, 1), dtype=np.int64)
    units = [t for t in range(1, N) if np_gcd(t, N) == 1]
    table = np.full((N, N), -1, dtype=np.int64)
    reps = []
    for u in range(N):
        for v in range(N):
            if table[u, v] != -1 or np_gcd(np_gcd(u, v), N) != 1:
                continue
            idx = len(reps)
            reps.append((u, v))
            for t in units:
                table[t * u % N, t * v % N] = idx
    return np.array(reps, dtype=np.int64), table


@pytest.mark.parametrize("Ns", [range(1, 151), [210, 360, 389]])
def test_p1_row_scan_matches_double_loop(Ns):
    for N in Ns:
        reps, table = loop_p1list(N)
        p1 = P1List(N)
        assert np.array_equal(p1.reps, reps), N
        assert np.array_equal(p1.table, table), N


@pytest.mark.parametrize("N,k", sorted(DIMENSION_PINS))
def test_cuspidal_dimension_pins(N, k):
    expect = DIMENSION_PINS[(N, k)]
    assert dim_cusp_forms(N, k) == expect
    for ell in pick_characteristics(N, k):
        sp = symbol_space(N, k, ell)
        assert sp.cuspidal_dim == 2 * expect, (N, k, ell)
        assert sp.plus_dim == expect, (N, k, ell)


def pick_characteristics(N, k, count=2):
    out = []
    ell = max(5, k - 1)
    while len(out) < count:
        while N % ell == 0 or ell < k - 1 or ell in (2, 3) or not is_prime_py(ell):
            ell += 1
        out.append(ell)
        ell += 1
    return out


def is_prime_py(n):
    return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))


def test_validation_messages():
    with pytest.raises(DomainError, match="level must be a positive integer"):
        validate_space(0, 2, 5)
    with pytest.raises(DomainError, match=f"level above supported bound {MAX_LEVEL}"):
        validate_space(MAX_LEVEL + 1, 2, 5)
    with pytest.raises(DomainError, match="weight must be even and at least 2"):
        validate_space(11, 3, 5)
    with pytest.raises(DomainError, match=f"weight above supported bound {MAX_WEIGHT}"):
        validate_space(11, 14, 17)
    with pytest.raises(DomainError, match="working characteristic must be prime"):
        validate_space(11, 2, 6)
    with pytest.raises(DomainError, match="working characteristic divides level"):
        validate_space(11, 2, 11)
    with pytest.raises(DomainError, match="working characteristic must not divide 6"):
        validate_space(11, 2, 3)
    with pytest.raises(DomainError, match="working characteristic too small for weight 12"):
        validate_space(1, 12, 7)


def test_boundary_map_kills_cuspidal_space():
    sp = symbol_space(23, 2, 7)
    assert sp.cuspidal_basis.shape[1] == sp.cuspidal_dim
    delta = sp._boundary[:, sp._free]
    assert not (delta @ sp.cuspidal_basis % 7).any()


def test_cusp_count_matches_classical_formula():
    # Gamma0(N) cusp count: sum over d | N of phi(gcd(d, N/d)).
    from heckechain.arith import divisors, euler_phi

    for N in [1, 11, 12, 24, 30, 49]:
        expect = sum(euler_phi(np_gcd(d, N // d)) for d in divisors(N))
        sp = symbol_space(N, 2, 7 if N % 7 else 11)
        assert len(sp.cusp_classes) == expect, N


def np_gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def test_hecke_operator_preconditions():
    sp = symbol_space(11, 2, 7)
    with pytest.raises(DomainError, match="hecke operators are indexed by primes"):
        sp.hecke_on_quotient(4)
    with pytest.raises(DomainError, match="prime dividing the level"):
        sp.hecke_on_quotient(11)


@pytest.mark.parametrize("N, k, ell, q", [(389, 2, 7, 3), (23, 4, 13, 2), (37, 6, 101, 7), (5, 12, 11, 13)])
def test_hecke_on_quotient_matches_full_action(N, k, ell, q):
    # Reference: T_q on all #P^1 * (k - 1) symbols, projected to the quotient
    # and restricted to the free symbols by a 0/1 lift matrix.
    sp = symbol_space(N, k, ell)
    D = sp.n_symbols
    A = np.zeros((D, D), dtype=np.int64)
    hecke_accum(A, merel(q), sp.p1.table, sp.p1.reps, k, N, ell)
    lift = np.zeros((D, sp.dim), dtype=np.int64)
    lift[sp._free, np.arange(sp.dim)] = 1
    want = matmul_mod(matmul_mod(sp._proj, A, ell), lift, ell)
    assert np.array_equal(sp.hecke_on_quotient(q), want)


def test_hecke_on_zero_dimensional_quotient():
    sp = symbol_space(1, 2, 5)
    assert sp.dim == 0
    assert sp.hecke_on_quotient(7).shape == (0, 0)


def test_hecke_commutes_on_cuspidal_space():
    sp = symbol_space(23, 2, 13)
    T2 = sp.hecke_matrix(2)
    T3 = sp.hecke_matrix(3)
    assert np.array_equal(T2 @ T3 % 13, T3 @ T2 % 13)


def test_weight_12_level_1_space():
    sp = symbol_space(1, 12, 13)
    assert (sp.cuspidal_dim, sp.plus_dim) == (2, 1)
    # The Hecke action there is scalar, by tau(2) = -24, on either part.
    assert np.array_equal(full_hecke_matrix(sp, 2), np.diag([(-24) % 13] * 2))
    assert np.array_equal(sp.hecke_matrix(2), np.diag([(-24) % 13]))


def full_hecke_matrix(sp, q):
    """T_q on the whole cuspidal space, in `cuspidal_basis`: the restriction
    every Hecke matrix had before they moved to the plus part."""
    return restrict(sp.hecke_on_quotient(q), sp.cuspidal_basis, sp.ell)


def star_on_cuspidal(sp):
    """The star involution on the whole cuspidal space, in `cuspidal_basis`."""
    return restrict(sp._act(STAR), sp.cuspidal_basis, sp.ell)


def _cusp_normalize(a, c):
    if c == 0:
        return (1, 0)
    g = gcd(a, c)
    a //= g
    c //= g
    if c < 0:
        a, c = -a, -c
    return (a, c)


def _cusps_equivalent(N, c1, c2):
    p1, q1 = c1
    p2, q2 = c2
    g = gcd(q1 * q2, N)
    s1 = p1 if q1 == 0 else (0 if q1 == 1 else pow(p1, -1, q1))
    s2 = p2 if q2 == 0 else (0 if q2 == 1 else pow(p2, -1, q2))
    return (s1 * q2 - s2 * q1) % g == 0


def ext_gcd(a, b):
    """Returns (g, x, y) with a*x + b*y = g = gcd(a, b)."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def _lift_to_coprime(c, d, N):
    """Representative of (c : d) with coprime integer entries."""
    if N == 1:
        return (0, 1)
    c %= N
    d %= N
    if c == 0:
        return (N, d)
    while gcd(c, d) != 1:
        d += N
    return (c, d)


def scan_boundary(N, k):
    """The boundary triples and cusp representatives as the search builds
    them: lift each point of P^1 to SL2(Z), take the two cusps of its
    boundary, and test each against every class found so far."""
    p1 = P1List(N)
    kk, w = k - 2, k - 1
    cusps = []

    def cusp_class(a, c):
        cu = _cusp_normalize(a, c)
        for idx, rep in enumerate(cusps):
            if _cusps_equivalent(N, rep, cu):
                return idx
        cusps.append(cu)
        return len(cusps) - 1

    entries = []
    for x in range(len(p1)):
        c, d = (int(v) for v in p1.reps[x])
        cl, dl = _lift_to_coprime(c, d, N)
        _, s, t = ext_gcd(dl, cl)
        assert s * dl + t * cl == 1
        entries.append((cusp_class(s, cl), x * w + kk, 1))
        entries.append((cusp_class(-t, dl), x * w, -1))
    return entries, cusps


def test_closed_form_cusp_classes_match_the_scan():
    for N in range(1, 201):
        entries, cusps = scan_boundary(N, 2)
        pres = Presentation(N, 2)
        assert np.array_equal(pres.boundary, np.array(entries, dtype=np.int64)), N
        assert len(pres.cusp_classes) == len(cusps) == nu_inf(N), N
    assert len(Presentation(2310, 2).cusp_classes) == nu_inf(2310)


def reference_space(N, k, ell):
    """_free, _proj, cusp classes and cuspidal basis from the dense
    construction: every two- and three-term relation row of every point of
    P^1 in a 2D x D matrix, the boundary map entry by entry, and the kernel
    vectors by a loop over the free columns."""
    from math import comb

    from heckechain.matrix import rref

    p1 = P1List(N)
    kk, w = k - 2, k - 1
    D = len(p1) * w
    R = np.zeros((2 * D, D), dtype=np.int64)
    row = 0
    for x in range(len(p1)):
        c, d = (int(v) for v in p1.reps[x])
        xs, xt, xt2 = p1.index(d, -c), p1.index(d, -c - d), p1.index(-c - d, c)
        for i in range(w):
            R[row, x * w + i] += 1
            R[row, xs * w + (kk - i)] += (-1) ** i
            row += 1
            R[row, x * w + i] += 1
            for j in range(kk - i + 1):
                R[row, xt * w + j] += (-1) ** (kk - j) * comb(kk - i, j)
            for j in range(i + 1):
                R[row, xt2 * w + (kk - i + j)] += (-1) ** (kk - i + j) * comb(i, j)
            row += 1
    Rr, rank, piv = rref(R % ell, ell)
    free = [c for c in range(D) if c not in piv]
    proj = np.zeros((len(free), D), dtype=np.int64)
    proj[:, free] = np.eye(len(free), dtype=np.int64)
    proj[:, piv] = -Rr[:rank][:, free].T % ell

    entries, cusps = scan_boundary(N, k)
    boundary = np.zeros((len(cusps), D), dtype=np.int64)
    for ci, col, val in entries:
        boundary[ci, col] += val
    delta = boundary[:, free] % ell
    m, rank, piv = rref(delta, ell)
    kfree = [c for c in range(len(free)) if c not in piv]
    basis = np.zeros((len(free), len(kfree)), dtype=np.int64)
    for j, f in enumerate(kfree):
        basis[f, j] = 1
        for i, pc in enumerate(piv):
            basis[pc, j] = (-m[i, f]) % ell
    return p1, free, proj, cusps, basis


def reference_action(p1, free, proj, basis, N, k, ell, mats):
    # The matrices' action on all symbols, projected to the quotient,
    # restricted to the free symbols and solved for in the given basis.
    from heckechain.matrix import solve_columns

    D = proj.shape[1]
    A = np.zeros((D, D), dtype=np.int64)
    hecke_accum(A, mats, p1.table, p1.reps, k, N, ell)
    lift = np.zeros((D, len(free)), dtype=np.int64)
    lift[free, np.arange(len(free))] = 1
    M = matmul_mod(matmul_mod(proj, A, ell), lift, ell)
    return solve_columns(basis, matmul_mod(M, basis, ell), ell)


@pytest.mark.parametrize(
    "N, k, ells",
    [
        (1, 2, (5, 7, 11)),
        (11, 2, (5, 7, 13)),
        (23, 2, (5, 7, 11, 13)),
        (37, 2, (5, 11, 19)),
        (67, 2, (5, 7, 13)),
        (97, 4, (5, 7, 13)),
        (5, 12, (11, 13, 17)),
        (13, 6, (5, 7, 11)),
        (10, 2, (7, 11, 13)),
        (5, 4, (7, 11, 13)),
        (7, 2, (5, 11, 13)),
    ],
)
def test_presentation_matches_dense_construction(N, k, ells):
    if (N, k) in FIXED_POINT_PREMISES:
        assert fixed_point_counts(N, k) == FIXED_POINT_PREMISES[(N, k)]
    for ell in ells:
        sp = ModularSymbolSpace(N, k, ell)
        p1, free, proj, cusps, basis = reference_space(N, k, ell)
        assert sp._free == free
        assert np.array_equal(sp._proj, proj)
        assert len(sp.cusp_classes) == len(cusps)
        assert np.array_equal(sp.cuspidal_basis, basis)
        # The plus part: ker(eta - 1) in the cuspidal basis, mapped back.
        eta = reference_action(p1, free, proj, basis, N, k, ell, STAR)
        plus, _ = right_kernel((eta - np.eye(len(eta), dtype=np.int64)) % ell, ell)
        assert np.array_equal(sp.plus_basis, basis @ plus % ell)
        for q in [q for q in (2, 3, 7, 13) if N % q]:
            want = reference_action(p1, free, proj, basis, N, k, ell, merel(q))
            assert np.array_equal(full_hecke_matrix(sp, q), want), (ell, q)
            want = reference_action(p1, free, proj, sp.plus_basis, N, k, ell, merel(q))
            assert np.array_equal(sp.hecke_matrix(q), want), (ell, q)


# (killed middle symbols, unconstrained middle symbols, ST-fixed points of
# P^1) of the cases added to the dense comparison for their fixed points.
# The middle symbol of an S-fixed point is killed at k = 2, 6, 10 and
# unconstrained at k = 4, 8, 12; -1 is a square mod 13, 10 and 5, and -3 one
# mod 13 and 7.
FIXED_POINT_PREMISES = {(13, 6): (2, 0, 2), (10, 2): (2, 0, 0), (5, 4): (0, 2, 0), (7, 2): (0, 0, 2)}


def fixed_point_counts(N, k):
    pres = _presentation(N, k)
    p1, w = pres.p1, k - 1
    D = len(p1) * w
    killed = D - pres.kept.size - pres.small.size
    # The pairs of distinct symbols hold 2 * #small columns; the rest are
    # their own S-partners, killed or unconstrained.
    unconstrained = D - 2 * pres.small.size - killed
    st_fixed = sum(p1.index(d, -c - d) == x for x, (c, d) in enumerate(p1.reps.tolist()))
    return killed, unconstrained, st_fixed


def test_heilbronn_matrices_count_and_determinant():
    # Cremona's set is 2.2-3 times smaller than Merel's at these primes.
    for p, count, merel_count in [(2, 4, 4), (3, 6, 7), (43, 154, 345), (97, 392, 1039)]:
        mats = heilbronn_matrices(p)
        assert mats.shape == (count, 4)
        assert len(merel(p)) == merel_count
        a, b, c, d = mats.T
        assert set((a * d - b * c).tolist()) == {p}


# T_q from Cremona's matrices against T_q from Merel's on the full quotient,
# at every prime q up to the classify witness bound: every weight at N = 1, 5,
# 13 and 37, and at 97 and 389 where the Merel sets stay small. 97.12 and
# 389.4 stop at q = 23, and 389 at k >= 6 is left out: its Merel scatter takes
# 3 s at k = 8 for q <= 7 alone, and at 389.12 the whole range would take
# 6.8e9 terms.
HEILBRONN_CASES = [(N, k, witness_bound(N, k)) for N in (1, 5, 13, 37) for k in (2, 4, 6, 8, 12)]
HEILBRONN_CASES += [(97, k, witness_bound(97, k)) for k in (2, 4, 6, 8)]
HEILBRONN_CASES += [(389, 2, witness_bound(389, 2)), (97, 12, 23), (389, 4, 23)]


@pytest.mark.parametrize("N, k, bound", HEILBRONN_CASES)
def test_heilbronn_matrices_give_the_merel_hecke_operators(N, k, bound):
    ell = pick_characteristics(N, k, 1)[0]
    sp = symbol_space(N, k, ell)
    for q in (q for q in primes_up_to(bound) if N % q):
        A = np.zeros((sp.n_symbols, sp._source_reps.shape[0] * (k - 1)), dtype=np.int64)
        hecke_accum(A, merel(q), sp.p1.table, sp._source_reps, k, N, ell)
        want = matmul_mod(sp._proj, A[:, sp._source_cols], ell)
        assert np.array_equal(sp.hecke_on_quotient(q), want), q


def test_hecke_matrix_rejects_an_operator_leaving_the_cuspidal_space(monkeypatch):
    sp = ModularSymbolSpace(23, 2, 7)
    # e_j lies outside the cuspidal subspace (the boundary map does not kill
    # it), and M sends the first plus basis vector to a multiple of it.
    j = next(j for j in range(sp.dim) if sp._boundary[:, sp._free][:, j].any())
    M = np.zeros((sp.dim, sp.dim), dtype=np.int64)
    M[j, np.flatnonzero(sp.plus_basis[:, 0])[0]] = 1
    monkeypatch.setattr(sp, "hecke_on_quotient", lambda q: M)
    with pytest.raises(DomainError, match="^linear system is inconsistent$"):
        sp.hecke_matrix(2)


def test_presentation_is_shared_read_only_and_bounded():
    assert _presentation.cache_info().maxsize is not None
    assert heilbronn_matrices.cache_info().maxsize is not None
    _presentation.cache_clear()
    a, b = ModularSymbolSpace(37, 2, 5), ModularSymbolSpace(37, 2, 11)
    pres = _presentation(37, 2)
    assert a.p1 is b.p1 is pres.p1
    assert _presentation.cache_info().misses == 1
    arrays = [pres.p1.reps, pres.p1.table, pres.relations, pres.boundary, heilbronn_matrices(5)]
    arrays += [pres.small, pres.partner, pres.coeff, pres.kept]
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] = 1
