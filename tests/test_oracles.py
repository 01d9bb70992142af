"""Eigenvalues against references that share no code with modular symbols.

The coefficients of Delta come from expanding q * prod (1 - q^n)^24, those of
the level-11 newform from eta(z)^2 eta(11z)^2, and the eigenvalues of the
weight-2 newforms of the elliptic curves 11a1 and 37a1 from counting points,
a_p = p + 1 - #E(F_p).  Most primes below 50 lie beyond the base primes, so
these checks reach the step that narrows an orbit at a later prime.  The
roots of lifted charpolys are checked numerically against the
Ramanujan-Petersson bound 2 q^((k-1)/2).
"""

import numpy as np
import pytest

from heckechain.arith import primes_up_to
from heckechain.eigensystems import decompose
from heckechain.lifting import integral_classes, lift_charpoly

BOUND = 50


def delta_coefficients(n: int) -> list[int]:
    """tau(0), ..., tau(n) from Delta = q prod_{m >= 1} (1 - q^m)^24."""
    series = [1] + [0] * (n - 1)  # prod (1 - q^m)^24, through q^(n-1)
    for m in range(1, n):
        for _ in range(24):
            for i in range(n - 1, m - 1, -1):
                series[i] -= series[i - m]
    return [0] + series


def point_count_ap(a1, a2, a3, a4, a6, p: int) -> int:
    """p + 1 - #E(F_p) for y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6."""
    affine = sum(
        (y * y + a1 * x * y + a3 * y - (x**3 + a2 * x * x + a4 * x + a6)) % p == 0
        for x in range(p)
        for y in range(p)
    )
    return p + 1 - (affine + 1)


CURVES = {
    "11a1": (11, (0, -1, 1, -10, -20)),
    "37a1": (37, (0, 0, 1, -1, 0)),
}


def test_delta_expansion_starts_with_known_tau():
    assert delta_coefficients(8)[1:] == [1, -24, 252, -1472, 4830, -6048, -16744, 84480]


@pytest.mark.parametrize("ell", [13, 17])
def test_weight_12_eigenvalues_match_delta_expansion(ell):
    tau = delta_coefficients(BOUND)
    (s,) = decompose(1, 12, ell)
    for q in primes_up_to(BOUND - 1):
        if q != ell:
            assert s.a(q) == tau[q] % ell, (ell, q)


@pytest.mark.parametrize("ell", [5, 7, 13])
@pytest.mark.parametrize("curve", sorted(CURVES))
def test_weight_2_eigenvalues_match_point_counts(curve, ell):
    N, coeffs = CURVES[curve]
    ap = {p: point_count_ap(*coeffs, p) for p in primes_up_to(BOUND) if N % p}
    systems = decompose(N, 2, ell)
    # The curve's orbit is the rational one matching it at the base primes.
    (s,) = [
        s for s in systems
        if s.degree == 1 and all(s.a(p) == ap[p] % ell for p in s.base_primes)
    ]
    for q, a in ap.items():
        if q != ell:
            assert s.a(q) == a % ell, (curve, ell, q)


def eta_product_11_coefficients(n: int) -> list[int]:
    """a(0), ..., a(n) of eta(z)^2 eta(11z)^2 = q prod_{m >= 1} (1 - q^m)^2 (1 - q^(11m))^2."""
    series = [1] + [0] * (n - 1)  # the product, through q^(n-1)
    for m in range(1, n):
        for step in (m, 11 * m):
            for _ in range(2):
                for i in range(n - 1, step - 1, -1):
                    series[i] -= series[i - step]
    return [0] + series


def test_eta_product_starts_with_known_coefficients():
    assert eta_product_11_coefficients(11)[1:] == [1, -2, -1, 2, 1, 2, -2, 0, -2, -2, 1]


def test_level_11_rational_class_matches_eta_product():
    a = eta_product_11_coefficients(200)
    (cls,) = [c for c in integral_classes(11, 2).classes if c.degree == 1]
    table = cls.rational_table(200)
    assert table == {q: a[q] for q in primes_up_to(200) if q != 11}


@pytest.mark.parametrize("ell", [5, 7, 13])
def test_level_11_eigenvalues_match_eta_product(ell):
    a = eta_product_11_coefficients(BOUND)
    (s,) = decompose(11, 2, ell)
    for q in primes_up_to(BOUND - 1):
        if q not in (11, ell):
            assert s.a(q) == a[q] % ell, (ell, q)


@pytest.mark.parametrize("N, k", [(11, 2), (23, 2), (37, 2), (1, 12), (5, 4), (13, 4)])
def test_lifted_charpoly_roots_obey_ramanujan_petersson(N, k):
    qs = [q for q in primes_up_to(BOUND) if N % q][:6]
    for q in qs:
        coeffs = lift_charpoly(N, k, q)
        bound = 2 * q ** ((k - 1) / 2) * (1 + 1e-9)
        roots = np.roots([float(c) for c in reversed(coeffs)])
        assert len(roots) == len(coeffs) - 1
        assert max(abs(roots), default=0.0) <= bound, (N, k, q)
