import pytest

from heckechain.arith import DomainError, is_prime, legendre, primes_up_to
from heckechain.images import ImageClass
from heckechain.mlt import (
    ASSUMED,
    FAIL,
    PASS,
    EdgeContext,
    GoodDihedralPair,
    all_verdicts,
    best_verdict,
    check_mlt1,
    check_mlt2,
    check_mlt3,
    check_mlt4,
    find_good_dihedral,
)

LARGE = ImageClass("Large")
REDUCIBLE = ImageClass("Reducible", 0)
DIHEDRAL_23 = ImageClass("Dihedral", -23)


def conditions(verdict):
    return dict(verdict.conditions)


def test_mlt1_large_image_flagship_context():
    v = check_mlt1(EdgeContext(ell=11, image=LARGE, weights=(12, 2)))
    c = conditions(v)
    assert v.applicable
    assert v.assumption_used
    assert c["characteristic at least five"] == PASS
    assert c["potentially semistable with distinct weights"] == ASSUMED
    assert c["irreducible cyclotomic restriction"] == PASS
    assert c["residual modularity"] == PASS


def test_mlt1_fails_below_five_and_for_reducible():
    v = check_mlt1(EdgeContext(ell=3, image=LARGE, weights=(2, 2)))
    assert conditions(v)["characteristic at least five"] == FAIL
    assert not v.applicable
    v = check_mlt1(EdgeContext(ell=11, image=REDUCIBLE, weights=(2, 2)))
    assert conditions(v)["irreducible cyclotomic restriction"] == FAIL


def test_mlt1_dihedral_restriction_cases():
    # Ramified-at-ell dihedral parameter: restriction collapses.
    v = check_mlt1(EdgeContext(ell=23, image=DIHEDRAL_23, weights=(12, 12)))
    assert conditions(v)["irreducible cyclotomic restriction"] == FAIL
    # Away from the parameter the restriction stays irreducible.
    v = check_mlt1(EdgeContext(ell=11, image=DIHEDRAL_23, weights=(12, 12)))
    assert conditions(v)["irreducible cyclotomic restriction"] == PASS
    # Unknown parameter: assumed.
    v = check_mlt1(
        EdgeContext(ell=11, image=ImageClass("Dihedral", None), weights=(12, 12))
    )
    assert conditions(v)["irreducible cyclotomic restriction"] == ASSUMED


def test_mlt2_needs_ordinary_pair():
    ctx = EdgeContext(ell=7, image=LARGE, weights=(2, 2), ordinary=(True, True))
    v = check_mlt2(ctx)
    assert v.applicable and not v.assumption_used
    for bad in (None, (True, False), (False, False)):
        v = check_mlt2(EdgeContext(ell=7, image=LARGE, weights=(2, 2), ordinary=bad))
        assert conditions(v)["ordinary pair"] == FAIL


def test_mlt3_fontaine_laffaille_window():
    v = check_mlt3(EdgeContext(ell=13, image=LARGE, weights=(12, 2)))
    assert conditions(v)["fontaine-laffaille range"] == PASS
    assert v.applicable and not v.assumption_used
    v = check_mlt3(EdgeContext(ell=11, image=LARGE, weights=(12, 2)))
    assert conditions(v)["fontaine-laffaille range"] == FAIL


def test_mlt3_flag_contradiction_is_a_domain_error():
    with pytest.raises(DomainError, match="contradicts weights 12,2 at 11"):
        check_mlt3(
            EdgeContext(
                ell=11, image=LARGE, weights=(12, 2), fontaine_laffaille=True
            )
        )


def test_mlt3_small_characteristic_needs_good_dihedral():
    ctx = EdgeContext(ell=5, image=LARGE, weights=(2, 2), good_dihedral=True)
    v = check_mlt3(ctx)
    assert conditions(v)["adequate image"] == ASSUMED
    assert v.applicable and v.assumption_used
    v = check_mlt3(EdgeContext(ell=5, image=LARGE, weights=(2, 2)))
    assert conditions(v)["adequate image"] == FAIL


def test_mlt4_parallel_weight_two():
    v = check_mlt4(EdgeContext(ell=7, image=LARGE, weights=(2, 2)))
    assert v.applicable and not v.assumption_used
    v = check_mlt4(EdgeContext(ell=7, image=LARGE, weights=(12, 2)))
    assert conditions(v)["parallel weight two"] == ASSUMED
    assert check_mlt4(EdgeContext(ell=7, image=REDUCIBLE, weights=(2, 2))) is None


def test_mlt4_at_two_needs_good_dihedral():
    v = check_mlt4(EdgeContext(ell=2, image=LARGE, weights=(2, 2)))
    assert conditions(v)["adequate image at two"] == FAIL
    v = check_mlt4(
        EdgeContext(ell=2, image=LARGE, weights=(2, 2), good_dihedral=True)
    )
    assert conditions(v)["adequate image at two"] == ASSUMED
    assert v.applicable and v.assumption_used


def test_residual_modularity_is_tracked():
    ctx = EdgeContext(
        ell=11, image=LARGE, weights=(2, 2), residually_modular=False
    )
    for v in all_verdicts(ctx):
        if v is not None:
            assert conditions(v)["residual modularity"] == FAIL
            assert not v.applicable
    assert best_verdict(ctx) is None


def test_best_verdict_prefers_assumption_free_then_lowest():
    # Clean MLT3 beats assumed MLT1.
    ctx = EdgeContext(ell=13, image=LARGE, weights=(12, 2))
    assert best_verdict(ctx).theorem == 3
    # With an ordinary pair, clean MLT2 wins over clean MLT3.
    ctx = EdgeContext(ell=13, image=LARGE, weights=(12, 2), ordinary=(True, True))
    assert best_verdict(ctx).theorem == 2
    # Parallel weight two at 7: everything clean fails FL? no; MLT2 absent,
    # MLT3 clean, MLT4 clean; lowest clean is MLT3.
    ctx = EdgeContext(ell=7, image=LARGE, weights=(2, 2))
    assert best_verdict(ctx).theorem == 3
    # When only assumed verdicts remain, lowest theorem number wins.
    ctx = EdgeContext(ell=11, image=LARGE, weights=(12, 2))
    assert best_verdict(ctx).theorem == 1


def good_dihedral_conditions(pair, bound, forbidden=()):
    p, q = pair.p, pair.q
    assert is_prime(p) and p > bound and p % 4 == 1
    assert is_prime(q) and q % p == p - 1 and q % 8 == 1
    for ell in primes_up_to(bound):
        if ell == 2:
            continue
        assert legendre(ell, q) == 1, ell
    assert p not in forbidden and q not in forbidden


def test_good_dihedral_bound_10_is_minimal():
    pair = find_good_dihedral(10)
    assert (pair.p, pair.q) == (13, 2521)
    good_dihedral_conditions(pair, 10)
    # No smaller prime than 13 works for p.
    assert [p for p in (11,) if p % 4 == 1] == []
    # Exhaustive check: no smaller q satisfies every condition.
    for cand in range(2, 2521):
        if not is_prime(cand):
            continue
        ok = (
            cand % 13 == 12
            and cand % 8 == 1
            and all(legendre(l, cand) == 1 for l in (3, 5, 7))
        )
        assert not ok, cand


def test_good_dihedral_respects_forbidden_lists():
    pair = find_good_dihedral(10, forbidden=(13,))
    assert (pair.p, pair.q) == (17, 1801)
    good_dihedral_conditions(pair, 10, forbidden=(13,))
    pair = find_good_dihedral(10, forbidden=(2521,))
    assert (pair.p, pair.q) == (13, 8761)
    good_dihedral_conditions(pair, 10, forbidden=(2521,))


def test_good_dihedral_larger_bound():
    pair = find_good_dihedral(20, forbidden=(2, 3, 13))
    assert (pair.p, pair.q) == (29, 53881)
    good_dihedral_conditions(pair, 20, forbidden=(2, 3, 13))


def test_good_dihedral_bound_101():
    # The first hit lies near t = 2.87e8 on the progression q = x0 + 8*109*t,
    # about 2190 sieve windows in.
    pair = find_good_dihedral(101)
    assert pair == GoodDihedralPair(109, 250512128689)
    good_dihedral_conditions(pair, 101)


def test_good_dihedral_is_deterministic_across_calls():
    assert find_good_dihedral(10) == find_good_dihedral(10)
