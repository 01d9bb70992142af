import gc
import weakref
from math import lcm
from types import SimpleNamespace

import numpy as np
import pytest

from heckechain import eigensystems, matrix, modsym, polys
from heckechain.arith import DomainError, divisors, primes_up_to
from heckechain.dims import dim_cusp_forms
from heckechain.eigensystems import (
    Eigensystem,
    charpoly_halved,
    decompose,
    old_flags,
    operator_primes,
    sturm_bound,
)
from heckechain.gf import field
from heckechain.images import classify_image, witness_primes
from heckechain.lifting import IntegralClasses
from heckechain.modsym import symbol_space
from test_modsym import full_hecke_matrix, star_on_cuspidal
from test_polys import evaluate

# Integral eigenvalues of the unique newform orbits, for spot checks after
# reduction. Keys are primes q; the level-11 elliptic curve and the weight-12
# level-1 cusp form.
A_11A = {2: -2, 3: -1, 5: 1, 7: -2, 13: 4}
TAU = {2: -24, 3: 252, 5: 4830, 7: -16744, 11: 534612, 13: -577738}


def test_sturm_bound_values():
    assert sturm_bound(11, 2) == 2
    assert sturm_bound(1, 12) == 1
    assert sturm_bound(23, 2) == 4
    assert sturm_bound(37, 2) == 6
    # Multiplicative index for composite levels.
    assert sturm_bound(22, 2) == 6
    assert sturm_bound(30, 2) == 12


def test_operator_primes_skip_level_and_characteristic():
    assert operator_primes(11, 2, 5) == [2]
    assert operator_primes(23, 2, 3) == [2]
    assert operator_primes(22, 2, 7) == [3, 5]


@pytest.mark.parametrize("ell", [5, 7, 13])
def test_level_11_eigenvalues(ell):
    systems = decompose(11, 2, ell)
    assert len(systems) == 1
    s = systems[0]
    assert s.label == f"11.2.0"
    assert s.degree == 1 and s.multiplicity == 1 and old_flags(11, 2, ell) == [False]
    for q, aq in A_11A.items():
        if q == ell:
            continue
        assert s.a(q) == aq % ell, (ell, q)


@pytest.mark.parametrize("ell", [11, 13, 17, 691])
def test_weight_12_eigenvalues(ell):
    systems = decompose(1, 12, ell)
    assert len(systems) == 1
    s = systems[0]
    assert s.degree == 1
    assert s.multiplicity == 1
    for q, tq in TAU.items():
        if q == ell:
            continue
        assert s.a(q) == tq % ell, (ell, q)


def test_weight_12_mod_691_is_eisenstein_like():
    # The classical congruence tau(q) = 1 + q^11 mod 691.
    s = decompose(1, 12, 691)[0]
    for q in primes_up_to(40):
        assert s.a(q) == (1 + q**11) % 691


def test_level_23_golden_ratio_orbit():
    systems = decompose(23, 2, 7)
    assert len(systems) == 1
    s = systems[0]
    assert s.degree == 2
    assert s.multiplicity == 1
    assert s.semisimple
    # a(2) generates F_49 with minimal polynomial x^2 + x - 1.
    assert s.min_poly(2) == (6, 1, 1)
    F = s.field
    a2 = s.a(2)
    assert evaluate(F, (6, 1, 1), a2) == 0


def test_level_23_collapses_mod_5():
    # x^2 + x - 1 has discriminant 5: the conjugate pair collides.
    systems = decompose(23, 2, 5)
    assert len(systems) == 1
    s = systems[0]
    assert s.degree == 1
    assert s.multiplicity == 2
    assert not s.semisimple
    assert s.a(2) == 2


def test_old_orbit_marking_at_composite_level():
    systems = decompose(22, 2, 7)
    assert len(systems) == 1
    s = systems[0]
    assert old_flags(22, 2, 7) == [True]
    assert s.multiplicity == 2
    for q, aq in A_11A.items():
        if q in (2, 7, 11):
            continue
        assert s.a(q) == aq % 7


def all_divisor_old_flags(N, k, ell):
    """The marking `decompose` did before `old_flags`: an orbit is old when a
    system at some proper divisor level has its minimal polynomials at every
    operator prime of N.  It raises where a divisor's block splits at one of
    those primes."""
    qs = operator_primes(N, k, ell)
    subs = [sub for M in divisors(N)[:-1] for sub in decompose(M, k, ell)]
    old = {tuple(sub.min_poly(q) for q in qs) for sub in subs}
    return [tuple(s.min_poly(q) for q in qs) in old for s in decompose(N, k, ell)]


# Where a block at a divisor level splits at an operator prime of N above
# its own Sturm bound: the all-divisor marking raised, and with it the level.
SPLIT_AT_DIVISOR = [
    (96, 2, 11), (144, 2, 11), (192, 2, 11), (28, 4, 5), (42, 4, 5), (56, 4, 5),
    (12, 6, 5), (18, 6, 5), (24, 6, 5), (36, 6, 5), (42, 6, 5), (48, 6, 5), (54, 6, 5),
    (12, 8, 7), (18, 8, 7), (24, 8, 7), (30, 8, 7), (36, 8, 7),
]


@pytest.mark.parametrize("k, nmax", [(2, 60), (4, 30)])
@pytest.mark.parametrize("ell", [5, 7, 11, 13])
def test_old_flags_match_the_all_divisor_marking(k, nmax, ell):
    compared = 0
    for N in range(1, nmax + 1):
        if N % ell == 0:
            continue
        if (N, k, ell) in SPLIT_AT_DIVISOR:
            with pytest.raises(DomainError, match="splits the orbit's block"):
                all_divisor_old_flags(N, k, ell)
            continue
        assert old_flags(N, k, ell) == all_divisor_old_flags(N, k, ell), N
        compared += 1
    assert compared >= nmax * 3 // 4


@pytest.mark.parametrize("N, k, ell", SPLIT_AT_DIVISOR, ids=lambda v: str(v))
def test_level_decomposes_where_a_divisor_block_splits(N, k, ell):
    with pytest.raises(DomainError, match="splits the orbit's block"):
        all_divisor_old_flags(N, k, ell)
    systems = decompose(N, k, ell)
    assert sum(s.block_dim for s in systems) == dim_cusp_forms(N, k)
    flags = old_flags(N, k, ell)
    assert len(flags) == len(systems) and any(flags)


def test_labels_and_ordering_are_stable():
    systems = decompose(67, 2, 5)
    assert [s.index for s in systems] == list(range(len(systems)))
    degrees = [s.degree for s in systems]
    assert degrees == sorted(degrees)
    again = decompose(67, 2, 5)
    assert [s.label for s in again] == [s.label for s in systems]


def test_block_dimensions_cover_cuspidal_space():
    for N, k, ell in [(23, 2, 5), (37, 2, 5), (67, 2, 7), (33, 2, 7)]:
        sp = symbol_space(N, k, ell)
        systems = decompose(N, k, ell)
        assert sum(s.block_dim for s in systems) == sp.plus_dim == sp.cuspidal_dim // 2


def full_space_orbits(N, k, ell):
    """(degree, multiplicity, semisimple, min polys at the operator primes)
    of each orbit, in label order, from the split of the whole cuspidal
    space, where an orbit's multiplicity is block_dim / (2 degree)."""
    sp = symbol_space(N, k, ell)
    qs = operator_primes(N, k, ell)
    full = {q: full_hecke_matrix(sp, q) for q in qs}
    n = sp.cuspidal_dim
    blocks = [(np.eye(n, dtype=np.int64), {})] if n else []
    whole = SimpleNamespace(ell=ell, hecke_matrix=full.__getitem__)
    blocks = eigensystems._refine(whole, blocks, qs)
    out = []
    for basis, minpolys in blocks:
        degree = lcm(*(polys.degree(f) for f in minpolys.values())) if minpolys else 1
        assert basis.shape[1] % (2 * degree) == 0
        semisimple = all(
            not matrix.poly_of_matrix(minpolys[q], matrix.restrict(full[q], basis, ell), ell).any()
            for q in qs
        )
        out.append((degree, basis.shape[1] // (2 * degree), semisimple, [minpolys[q] for q in qs]))
    return sorted(out, key=lambda o: (o[0], o[3]))


def check_plus_part(N, k, ell):
    """The star involution on the whole cuspidal space squares to 1 and
    commutes with every T_q; its plus part is half the space, carries half
    of each charpoly and splits into the whole space's orbits."""
    sp = symbol_space(N, k, ell)
    n = sp.cuspidal_dim
    eta = star_on_cuspidal(sp)
    assert np.array_equal(eta @ eta % ell, np.eye(n, dtype=np.int64))
    assert 2 * sp.plus_dim == n
    qs = operator_primes(N, k, ell)
    for q in qs:
        T = full_hecke_matrix(sp, q)
        assert np.array_equal(eta @ T % ell, T @ eta % ell), q
        half = matrix.charpoly_mod(sp.hecke_matrix(q), ell)
        assert polys.mul(field(ell), half, half) == matrix.charpoly_mod(T, ell), q
    got = [
        (s.degree, s.multiplicity, s.semisimple, [s.min_poly(q) for q in qs])
        for s in decompose(N, k, ell)
    ]
    assert got == full_space_orbits(N, k, ell)


@pytest.mark.parametrize("k, nmax", [(2, 60), (4, 30)])
@pytest.mark.parametrize("ell", [5, 7, 11, 13])
def test_plus_part_matches_the_full_space(k, nmax, ell):
    for N in range(1, nmax + 1):
        if N % ell:
            check_plus_part(N, k, ell)


@pytest.mark.parametrize("N, k, ell", [(389, 2, 7), (97, 4, 13)])
def test_plus_part_matches_the_full_space_on_large_spaces(N, k, ell):
    check_plus_part(N, k, ell)


def test_eigenvalue_preconditions():
    s = decompose(11, 2, 7)[0]
    for query in (s.a, s.min_poly):
        with pytest.raises(DomainError, match="indexed by primes"):
            query(6)
        with pytest.raises(DomainError, match="dividing the level"):
            query(11)
        with pytest.raises(DomainError, match="working characteristic"):
            query(7)


def joint_eigenspace(K, mats, values):
    """Joint kernel over K of M - a for prime-field matrices M and values a."""
    rows = []
    for M, a in zip(mats, values):
        for i, row in enumerate(M.tolist()):
            rows.append([K.sub(x % K.p, a) if i == j else x % K.p for j, x in enumerate(row)])
    return matrix.gkernel(K, rows)


def test_eigenvector_satisfies_hecke_equation():
    # An eigenvector for the base-prime values, built here over the orbit's
    # field, must satisfy T_q v = a(q) v at every prime.
    ell = 7
    sp = symbol_space(23, 2, ell)
    s = decompose(23, 2, ell)[0]
    F = s.field
    vs = joint_eigenspace(
        F, [sp.hecke_matrix(p) for p in s.base_primes], [s.a(p) for p in s.base_primes]
    )
    assert len(vs) * s.degree == s.block_dim
    for q in (2, 3, 5, 13):
        aq = s.a(q)
        M = sp.hecke_matrix(q)
        for v in vs:
            Mv = [
                sum_vec(F, [F.mul(int(M[i, j]) % ell, v[j]) for j in range(len(v))])
                for i in range(M.shape[0])
            ]
            assert Mv == [F.mul(aq, x) for x in v], q


def sum_vec(F, xs):
    acc = 0
    for x in xs:
        acc = F.add(acc, x)
    return acc


def test_min_poly_consistency_beyond_base_primes():
    s = decompose(23, 2, 7)[0]
    f = s.min_poly(13)
    assert evaluate(s.field, tuple(c % 7 for c in f), s.a(13)) == 0
    assert polys.degree(f) in (1, 2)


def conjugate_product(s, q):
    """Minimal polynomial of a(q) as the product of x - c over its Frobenius
    conjugates in the working field; its coefficients must lie in F_ell."""
    a = s.a(q)
    K = s.field
    conj = [a]
    x = K.frobenius(a)
    while x != a:
        conj.append(x)
        x = K.frobenius(x)
    f = (1,)
    for c in conj:
        f = polys.mul(K, f, (K.neg(c), 1))
    assert all(c < s.ell for c in f), f
    return tuple(int(c) for c in f)


@pytest.mark.parametrize(
    "N, k, ell",
    [(23, 2, 7), (23, 2, 5), (22, 2, 7), (67, 2, 5), (97, 2, 11), (37, 6, 101)],
)
def test_min_poly_equals_conjugate_product_of_eigenvalue(N, k, ell):
    # Covers a non-semisimple block (23.2.5), an old orbit of multiplicity 2
    # (22.2.7) and orbits of degree 5 and 7 (37.6.101).
    for s in decompose(N, k, ell):
        for q in primes_up_to(60):
            if (N * ell) % q:
                assert s.min_poly(q) == conjugate_product(s, q), (s.label, q)


def no_root(K, f):
    raise AssertionError("a root was taken in the orbit's field")


def test_min_poly_beyond_base_primes_needs_no_eigenvector(monkeypatch):
    monkeypatch.setattr(eigensystems, "_DECOMPOSE_CACHE", {})
    (s,) = decompose(23, 2, 7)
    monkeypatch.setattr(polys, "one_root", no_root)
    assert s.base_primes == [2, 3]
    assert s.min_poly(17) == (4, 1, 1)
    assert s.min_poly(13) == (4, 1)


def test_min_poly_on_a_block_holding_two_orbits_is_refused():
    sp = symbol_space(67, 2, 5)
    assert [s.min_poly(2) for s in decompose(67, 2, 5)] == [(3, 1), (4, 1)]
    whole = Eigensystem(sp, np.eye(sp.plus_dim, dtype=np.int64), {})
    with pytest.raises(DomainError, match="splits the orbit's block"):
        whole.min_poly(2)


def test_eigenvalue_outside_the_orbit_field_is_refused():
    # Taken as one degree-1 orbit, the whole space of 23.2.7 has its
    # eigenvalue at 2 only in F_49, and the field does not grow to hold it.
    sp = symbol_space(23, 2, 7)
    whole = Eigensystem(sp, np.eye(sp.plus_dim, dtype=np.int64), {})
    with pytest.raises(DomainError, match="needs a larger field"):
        whole.a(2)
    # Taken as one orbit, the whole space of 67.2.5 splits at 2, and the
    # query keeps the piece with the smaller eigenvalue.
    sp = symbol_space(67, 2, 5)
    whole = Eigensystem(sp, np.eye(sp.plus_dim, dtype=np.int64), {})
    assert whole.a(2) == min(s.a(2) for s in decompose(67, 2, 5))


def test_cached_decomposition_does_not_keep_its_space_alive(monkeypatch):
    # Orbits look their space up when they need an operator, so the lru
    # bound of symbol_space also bounds the spaces the decompose cache keeps.
    monkeypatch.setattr(eigensystems, "_DECOMPOSE_CACHE", {})
    space = weakref.ref(symbol_space(43, 2, 5))
    systems = decompose(43, 2, 5)
    symbol_space.cache_clear()
    gc.collect()
    assert space() is None
    got = [(s.a(13), s.min_poly(17)) for s in systems]
    monkeypatch.setattr(eigensystems, "_DECOMPOSE_CACHE", {})
    assert got == [(s.a(13), s.min_poly(17)) for s in decompose(43, 2, 5)]


def refined_semisimple(s):
    """Semisimplicity read off the joint eigenspace over s.field of the
    base-prime operators on the block: the eigenspace of one conjugate fills
    its share block_dim / degree of the block exactly when every operator
    acts semisimply."""
    sp = symbol_space(s.N, s.k, s.ell)
    restricted = [
        matrix.restrict(sp.hecke_matrix(p), s._basis, s.ell) for p in s.base_primes
    ]
    vs = joint_eigenspace(s.field, restricted, [s.a(p) for p in s.base_primes])
    return len(vs) * s.degree == s.block_dim


@pytest.mark.parametrize(
    "N, k, ell, has_non_semisimple",
    [
        (23, 2, 5, True),
        (67, 2, 5, True),
        (49, 4, 5, True),
        (74, 4, 7, True),
        (77, 4, 5, True),
        # Non-semisimple at the last base prime only (66.2.5 orbit 1), and
        # at every base prime but the last (15.6.13 orbit 1).
        (66, 2, 5, True),
        (15, 6, 13, True),
        (37, 6, 101, False),
        (11, 10, 101, False),
    ],
)
def test_semisimple_over_f_ell_matches_refinement(N, k, ell, has_non_semisimple, monkeypatch):
    monkeypatch.setattr(eigensystems, "_DECOMPOSE_CACHE", {})
    systems = decompose(N, k, ell)
    flags = [s.semisimple for s in systems]
    assert flags == [refined_semisimple(s) for s in systems]
    assert (not all(flags)) == has_non_semisimple


def test_construction_field_and_semisimple_need_no_eigenvector(monkeypatch):
    monkeypatch.setattr(eigensystems, "_DECOMPOSE_CACHE", {})
    monkeypatch.setattr(polys, "one_root", no_root)
    systems = decompose(49, 4, 5)
    assert charpoly_halved(49, 4, 5, 19)
    assert IntegralClasses(37, 2).classes
    assert [(s.field.degree, s.semisimple) for s in systems] == [(1, True)] * 5 + [(2, False)]
    with pytest.raises(AssertionError, match="root was taken"):
        systems[0].a(2)


# a(q) recorded from the eigenvector refinement before eigenvalues became
# characters of the F_ell Hecke algebra.  Each block holds several systems
# that agree at the base primes and part at later primes, so the value at a
# later prime depends on which primes were asked for before it.
QUERY_ORDER_PINS = [
    (6, 6, 5, {7: 0, 11: 1, 13: 3}),
    (6, 6, 5, {13: 2, 11: 0, 7: 1}),
    (14, 4, 5, {11: 2, 13: 3, 17: 4, 19: 0, 23: 3}),
    (14, 4, 5, {23: 0, 19: 2, 17: 1, 13: 1, 11: 3}),
    (48, 2, 11, {7: 0, 13: 9, 17: 2, 19: 4, 23: 8}),
    (48, 2, 11, {23: 3, 19: 7, 17: 2, 13: 9, 7: 0}),
]


@pytest.mark.parametrize("N, k, ell, pinned", QUERY_ORDER_PINS)
def test_later_prime_values_follow_query_order(N, k, ell, pinned, monkeypatch):
    monkeypatch.setattr(eigensystems, "_DECOMPOSE_CACHE", {})
    (s,) = decompose(N, k, ell)
    assert s.degree == 1 and s.multiplicity > 1
    assert {q: s.a(q) for q in pinned} == pinned


# Spaces whose decompositions `restrict` is checked on: prime and composite
# levels, weights 2 and 4, a non-semisimple orbit (49.4.5) and the degree-18
# orbit of 389.2.7; then blocks holding several systems, which `_narrow`
# splits.
RESTRICT_SPACES = [(23, 2, 5), (67, 2, 5), (49, 4, 5), (97, 4, 13), (389, 2, 7)]
NARROWED_SPACES = [(6, 6, 5), (14, 4, 5), (48, 2, 11)]


def solved_restriction(M, basis, ell):
    return matrix.solve_columns(basis, M @ basis % ell, ell)


@pytest.mark.parametrize("N, k, ell", RESTRICT_SPACES + NARROWED_SPACES)
def test_restrict_equals_the_solved_restriction(N, k, ell, monkeypatch):
    restrict, split_block = matrix.restrict, eigensystems._split_block
    checked = []

    def compared(M, basis, ell):
        R = restrict(M, basis, ell)
        assert np.array_equal(R, solved_restriction(M, basis, ell))
        checked.append(basis.shape)
        return R

    def split_compared(R, fac, ell):
        pieces = split_block(R, fac, ell)
        for ker, _ in pieces:
            compared(R, ker, ell)
        return pieces

    monkeypatch.setattr(eigensystems, "_DECOMPOSE_CACHE", {})
    monkeypatch.setattr(eigensystems, "restrict", compared)
    monkeypatch.setattr(modsym, "restrict", compared)
    monkeypatch.setattr(eigensystems, "_split_block", split_compared)
    symbol_space.cache_clear()
    systems = decompose(N, k, ell)
    later = [q for q in primes_up_to(sturm_bound(N, k) + 20) if N * ell % q][-3:]
    for s in systems:
        assert s.semisimple in (True, False)
        for q in s.base_primes + later:
            s.a(q)
        compared(s._hecke_matrix(later[0]), s._W, ell)
    assert len(checked) > len(systems)
    # The fresh space's Hecke matrices went through the same routine.
    assert symbol_space(N, k, ell).plus_basis.shape in checked


def test_restrict_refuses_a_subspace_that_is_not_invariant():
    swap = np.array([[0, 1], [1, 0]], dtype=np.int64)
    with pytest.raises(DomainError, match="inconsistent"):
        matrix.restrict(swap, np.array([[1], [0]], dtype=np.int64), 5)


def test_restrict_refuses_a_basis_without_identity_rows():
    basis = np.array([[1, 1], [1, 2], [2, 0]], dtype=np.int64)
    assert matrix.rref(basis, 5)[1] == 2
    with pytest.raises(DomainError, match="no identity rows"):
        matrix.restrict(np.eye(3, dtype=np.int64), basis, 5)


def test_restrict_to_a_basis_without_columns_is_empty():
    R = matrix.restrict(np.eye(3, dtype=np.int64), np.zeros((3, 0), dtype=np.int64), 5)
    assert R.shape == (0, 0)


def power_exponent(s):
    """The least power of ell^degree >= block_dim."""
    e = 1
    while e < s.block_dim:
        e *= s.ell**s.degree
    return e


@pytest.fixture
def semisimple_parts(monkeypatch):
    """Fresh decompositions whose `_semisimple_part` calls are checked
    against the power they may skip and recorded as (system, skipped,
    narrowing): the calls made once the character is fixed narrow it."""
    part = Eigensystem._semisimple_part
    calls = []

    def checked(self, R, semisimple):
        S = part(self, R, semisimple)
        assert np.array_equal(S, matrix.matrix_power(R, power_exponent(self), self.ell))
        calls.append((self, semisimple, bool(self._theta)))
        return S

    monkeypatch.setattr(eigensystems, "_DECOMPOSE_CACHE", {})
    monkeypatch.setattr(Eigensystem, "_semisimple_part", checked)
    return calls


@pytest.mark.parametrize("N, k, ell", [(389, 2, 7), (97, 4, 13)])
def test_skipped_power_changes_no_semisimple_part(N, k, ell, semisimple_parts):
    systems = decompose(N, k, ell)
    for s in systems:
        for q in s.base_primes:
            s.a(q)
    skipped = [s for s, skip, _ in semisimple_parts if skip]
    assert len(skipped) == len(semisimple_parts) == sum(len(s.base_primes) for s in systems)
    assert max(s.degree for s in skipped) == (18 if N == 389 else 11)


def test_skipped_power_changes_no_narrowed_semisimple_part(semisimple_parts):
    # classify 97 4 13 0..2 asks for a(q) at every witness prime, which
    # narrows each orbit past its base primes.
    systems = decompose(97, 4, 13)[:3]
    for s in systems:
        classify_image(s)
    narrowed = [skip for _, skip, narrowing in semisimple_parts if narrowing]
    witnesses = set(witness_primes(97, 4, 13))
    assert len(narrowed) == sum(len(witnesses - set(s.base_primes)) for s in systems)
    assert all(narrowed)


@pytest.mark.parametrize("N, k, ell", [(23, 2, 5), (67, 2, 5), (49, 4, 5)])
def test_power_is_kept_on_non_semisimple_blocks(N, k, ell, semisimple_parts):
    blocks = [s for s in decompose(N, k, ell) if not s.semisimple]
    assert blocks
    for s in blocks:
        for q in s.base_primes:
            s.a(q)
    assert [skip for _, skip, _ in semisimple_parts] == [False] * sum(
        len(s.base_primes) for s in blocks
    )
