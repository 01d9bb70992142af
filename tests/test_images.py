import pytest

from heckechain.arith import DomainError, kronecker, primes_up_to
from heckechain.eigensystems import decompose
from heckechain.images import (
    ImageClass,
    candidate_discriminants,
    classify_image,
    is_adequate,
    witness_primes,
)
from heckechain.lifting import integral_classes, reduce_class_mod

from test_eigensystems import TAU


def test_witness_primes_avoid_level_and_characteristic():
    qs = witness_primes(11, 2, 7)
    assert qs == [q for q in primes_up_to(50) if q not in (7, 11)]
    assert len(qs) >= 5


def test_candidate_discriminants_level_23():
    ds = candidate_discriminants(23, 5)
    assert ds[0] in (5, -23) or ds[0] == 5
    assert -23 in ds
    assert 5 in ds
    for D in ds:
        assert D % 4 in (0, 1)


def is_squarefree(n):
    return all(n % (p * p) for p in range(2, abs(n)))


def is_fundamental(D):
    if D % 4 == 1:
        return is_squarefree(D)
    return D % 4 == 0 and (D // 4) % 4 in (2, 3) and is_squarefree(D // 4)


@pytest.mark.parametrize("ell", [5, 7, 11, 13])
def test_candidate_discriminants_match_brute_force(ell):
    # A fundamental discriminant unramified outside M has |D| <= 4 rad(M) and
    # at most 2^3 and single odd primes, so M^3 is divisible by it.
    for N in range(1, 61):
        M = N * ell
        want = [D for D in range(-4 * M, 4 * M + 1)
                if D not in (0, 1) and pow(M, 3, abs(D)) == 0 and is_fundamental(D)]
        assert candidate_discriminants(N, ell) == sorted(want, key=lambda D: (abs(D), D < 0)), N


def test_level_11_mod_5_is_reducible():
    # The level-11 curve has a rational 5-torsion point: a(q) = 1 + q mod 5.
    img = classify_image(decompose(11, 2, 5)[0])
    assert img == ImageClass("Reducible", 0)
    assert str(img) == "Reducible(0)"


def test_weight_12_mod_23_is_dihedral():
    # tau(q) vanishes mod 23 whenever q is inert in Q(sqrt(-23)).
    cls = integral_classes(1, 12).classes[0]
    img = classify_image(reduce_class_mod(cls, 23, 60))
    assert img == ImageClass("Dihedral", -23)


def test_weight_12_mod_11_is_large():
    img = classify_image(decompose(1, 12, 11)[0])
    assert img == ImageClass("Large")
    assert str(img) == "Large"


def test_weight_12_mod_691_is_reducible_with_exponent():
    # tau(q) = q^0 + q^11 mod 691.
    cls = integral_classes(1, 12).classes[0]
    img = classify_image(reduce_class_mod(cls, 691, 60))
    assert img == ImageClass("Reducible", 0)


def test_dihedral_pin_against_handwritten_table():
    # Independent check of the mod-23 dihedral shape on five primes.
    for q in (2, 3, 5, 7, 13):
        if kronecker(-23, q) == -1:
            assert TAU[q] % 23 == 0, q
        else:
            assert TAU[q] % 23 != 0, q


def test_large_pin_against_handwritten_table():
    # Mod 11 the first five tau values hit nonzero non-eisenstein traces.
    reductions = {q: TAU[q] % 11 for q in (2, 3, 5, 7, 13)}
    assert reductions == {2: 9, 3: 10, 5: 1, 7: 9, 13: 4}
    # Not reducible with exponent pair (0, 11): tau(2) != 1 + 2^11 mod 11.
    assert reductions[2] != (1 + 2**11) % 11


def test_adequacy_rules():
    large = ImageClass("Large")
    red = ImageClass("Reducible", 0)
    dih = ImageClass("Dihedral", -23)
    assert is_adequate(large, 7)
    assert is_adequate(dih, 11)
    assert not is_adequate(red, 11)
    assert not is_adequate(large, 5)
    assert is_adequate(large, 5, good_dihedral=True)
    assert not is_adequate(large, 3)
    assert is_adequate(large, 3, good_dihedral=True)
    with pytest.raises(DomainError, match="characteristic 2"):
        is_adequate(large, 2)


def test_classifier_accepts_reduced_systems_at_level_characteristic():
    # u = a(7)^2 / 7 = 10 mod 11 falls outside the projective list, so the
    # level-11 curve is genuinely large at its own characteristic.
    cls = integral_classes(11, 2).classes[0]
    img = classify_image(reduce_class_mod(cls, 11, 60))
    assert img == ImageClass("Large")
