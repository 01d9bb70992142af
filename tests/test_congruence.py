import pytest

from heckechain import cli, congruence
from heckechain.arith import DomainError
from heckechain.congruence import (
    check_congruence,
    comparison_primes,
    cross_bound,
    scan_congruences,
    space_congruences,
    weight_compatible,
)
from heckechain.eigensystems import decompose
from heckechain.lifting import integral_classes, reduce_class_mod

from test_eigensystems import A_11A, TAU


def delta_mod(ell, bound=60):
    return reduce_class_mod(integral_classes(1, 12).classes[0], ell, bound)


def f11_mod(ell, bound=60):
    return reduce_class_mod(integral_classes(11, 2).classes[0], ell, bound)


def test_cross_bound_uses_joint_level_and_max_weight():
    assert cross_bound(1, 12, 11, 2) == 12
    assert cross_bound(11, 2, 23, 2) == 48
    assert cross_bound(11, 2, 11, 2) == 2


def test_weight_compatibility_window():
    assert weight_compatible(12, 2, 11)
    assert not weight_compatible(12, 2, 5)
    assert not weight_compatible(12, 2, 7)
    assert not weight_compatible(12, 2, 13)
    assert weight_compatible(2, 2, 7)
    assert weight_compatible(4, 2, 3)


def test_flagship_congruence_certifies():
    edge = check_congruence(delta_mod(11), f11_mod(11))
    assert edge.certified
    assert edge.ell == 11
    assert edge.bound == 12
    assert edge.witnesses == (2, 3, 5, 7)
    assert edge.first_mismatch is None
    assert edge.left == "1.12.0"
    assert edge.right == "11.2.0"


def test_flagship_spot_values():
    d = delta_mod(11)
    f = f11_mod(11)
    assert d.a(2) == (-24) % 11 == (-2) % 11
    assert f.a(2) == (-2) % 11
    assert d.a(3) == 252 % 11 == (-1) % 11
    assert f.a(3) == (-1) % 11


def test_flagship_weight_incompatible_at_7():
    with pytest.raises(DomainError) as err:
        check_congruence(delta_mod(7), f11_mod(7))
    msg = str(err.value)
    assert msg == (
        "weights 12 and 2 are incompatible at 7: "
        "their difference must vanish modulo 6"
    )


def test_refuted_pair_between_rational_tables():
    cb = cross_bound(11, 2, 37, 2)
    a = f11_mod(13, bound=cb)
    b = reduce_class_mod(integral_classes(37, 2).classes[0], 13, cb)
    edge = check_congruence(a, b)
    assert not edge.certified
    assert edge.witnesses == ()
    assert edge.first_mismatch is not None


def test_check_requires_shared_characteristic():
    with pytest.raises(DomainError, match="shared characteristic"):
        check_congruence(delta_mod(11), f11_mod(13))


def test_check_requires_usable_primes():
    with pytest.raises(DomainError, match="no usable comparison primes"):
        check_congruence(f11_mod(5), f11_mod(5), bound=1)


def test_comparison_primes_skip_levels_and_characteristic():
    assert comparison_primes(1, 11, 11, cross_bound(1, 12, 11, 2)) == [2, 3, 5, 7]
    assert comparison_primes(11, 23, 5, cross_bound(11, 2, 23, 2)) == [
        2, 3, 7, 13, 17, 19, 29, 31, 37, 41, 43, 47,
    ]
    assert comparison_primes(11, 23, 5, 10) == [2, 3, 7]


def test_scan_finds_mod_5_collision_pair():
    # Level 23's conjugate pair collapses mod 5 into one orbit; comparing
    # the space with itself reports no self-edge.
    assert len(decompose(23, 2, 5)) == 1
    assert space_congruences(23, 2, 23, 2, 5) == ("reduced", [])


def test_scan_cross_level_certified_edge():
    left = decompose(11, 2, 5)
    right = decompose(33, 2, 5)
    edges = scan_congruences(left, right, 5)
    certified_pairs = {(e.left, e.right) for e in edges}
    # The level-11 system reappears as an oldform inside level 33.
    assert any(l == "11.2.0" for l, _ in certified_pairs)


def test_higher_degree_congruence_uses_embeddings():
    # Compare the level-23 quadratic orbit with itself through both
    # embeddings; the identity embedding certifies.
    s = decompose(23, 2, 7)[0]
    edge = check_congruence(s, s)
    assert edge.certified


# A space compared with itself takes the reduced route at 5, 7, 11 and 13:
# one check per unordered pair of its rational classes, two at 37.2 and three
# at 14.4.
@pytest.mark.parametrize(
    "argv, calls",
    [
        (["congruences", "37", "2", "37", "2", "--lmax", "13"], 4),
        (["congruences", "14", "4", "14", "4", "--lmax", "13"], 12),
    ],
)
def test_same_space_scan_checks_each_pair_once(argv, calls, monkeypatch, capsys):
    seen = []
    original = congruence.check_congruence

    def counting(sys_a, sys_b, bound=None):
        seen.append((sys_a.label, sys_b.label, sys_a.ell))
        return original(sys_a, sys_b, bound)

    monkeypatch.setattr(congruence, "check_congruence", counting)
    monkeypatch.delenv("HECKECHAIN_CACHE_DIR", raising=False)
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert len(seen) == calls
    assert len({(frozenset(pair), ell) for *pair, ell in seen}) == calls
