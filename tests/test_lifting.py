from itertools import islice

import pytest

from heckechain import lifting
from heckechain.arith import DomainError, primes_up_to
from heckechain.eigensystems import decompose
from heckechain.lifting import (
    integral_classes,
    lift_charpoly,
    orbit_class_map,
    reduce_class_mod,
)

from test_eigensystems import A_11A, TAU
from test_polys import evaluate


def test_lift_charpoly_level_11():
    # Degree-one space: the charpoly at q is x - a(q).
    for q, aq in A_11A.items():
        assert lift_charpoly(11, 2, q) == (-aq, 1)


def test_lift_charpoly_weight_12():
    for q, tq in TAU.items():
        assert lift_charpoly(1, 12, q) == (-tq, 1)


def test_lift_charpoly_level_23_golden():
    # x^2 + x - 1 at q = 2.
    assert lift_charpoly(23, 2, 2) == (-1, 1, 1)


def test_lift_charpoly_rejects_level_primes():
    with pytest.raises(DomainError, match="away from the level"):
        lift_charpoly(11, 2, 11)


def test_lift_charpoly_gives_up_after_max_lift_primes(monkeypatch):
    calls = []

    def failing(N, k, ell, q):
        calls.append(ell)
        raise DomainError("no charpoly at this characteristic")

    monkeypatch.setattr(lifting, "charpoly_halved", failing)
    with pytest.raises(DomainError, match="could not stabilize"):
        lift_charpoly(11, 2, 2)
    assert len(calls) == lifting._MAX_LIFT_PRIMES
    assert len(set(calls)) == len(calls)


def test_lift_charpoly_trivial_space():
    assert lift_charpoly(13, 2, 2) == (1,)


def test_integral_classes_level_37():
    cont = integral_classes(37, 2)
    assert [c.label for c in cont.classes] == [(37, 2, 0), (37, 2, 1)]
    assert all(c.degree == 1 for c in cont.classes)
    tables = [c.rational_table(7) for c in cont.classes]
    assert sorted(t[2] for t in tables) == [-2, 0]
    assert sorted(t[3] for t in tables) == [-3, 1]


def test_integral_classes_level_23_single_quadratic_orbit():
    cont = integral_classes(23, 2)
    assert len(cont.classes) == 1
    c = cont.classes[0]
    assert c.degree == 2
    assert c.factor_at(2) == (-1, 1, 1)
    with pytest.raises(DomainError, match="rational orbit class"):
        c.rational_table(10)


def test_rational_table_matches_known_eigenvalues():
    c = integral_classes(11, 2).classes[0]
    t = c.rational_table(13)
    for q, aq in A_11A.items():
        assert t[q] == aq
    assert 11 not in t

    d = integral_classes(1, 12).classes[0]
    t = d.rational_table(13)
    for q, tq in TAU.items():
        assert t[q] == tq


def test_reduce_class_mod_at_level_prime():
    c = integral_classes(11, 2).classes[0]
    r = reduce_class_mod(c, 11, 20)
    assert r.ell == 11
    assert r.label == "11.2.0"
    assert r.a(2) == (-2) % 11
    assert r.a(13) == 4
    with pytest.raises(DomainError, match="no entry at 11"):
        r.a(11)
    with pytest.raises(DomainError, match="no entry at 23"):
        r.a(23)


def test_reduce_class_mod_eisenstein_congruence():
    d = integral_classes(1, 12).classes[0]
    r = reduce_class_mod(d, 691, 30)
    for q in (2, 3, 5, 7, 11, 13):
        assert r.a(q) == (1 + q**11) % 691


def test_reduce_class_mod_rejects_non_rational():
    c = integral_classes(23, 2).classes[0]
    with pytest.raises(DomainError, match="rational orbit class"):
        reduce_class_mod(c, 5, 10)


def test_reduce_class_mod_requires_prime():
    c = integral_classes(11, 2).classes[0]
    with pytest.raises(DomainError, match="must be prime"):
        reduce_class_mod(c, 6, 10)


def test_old_classes_deduplicated_at_composite_level():
    cont = integral_classes(22, 2)
    assert len(cont.classes) == 1
    assert cont.classes[0].label == (22, 2, 0)
    assert cont.classes[0].multiplicity == 2


def test_orbit_class_map_covers_systems_and_classes():
    for N, k, ell in [(23, 2, 5), (23, 2, 7), (37, 2, 5), (67, 2, 7)]:
        classes = integral_classes(N, k).classes
        mapping = orbit_class_map(N, k, ell, classes)
        systems = decompose(N, k, ell)
        assert set(mapping) == {s.index for s in systems}
        covered = {i for ids in mapping.values() for i in ids}
        assert covered == set(range(len(classes)))


def test_orbit_class_map_tracks_a_split_orbit():
    # The quadratic orbit at level 23 splits into two rational systems mod 11
    # (its discriminant 5 is a square there); both point back to one class.
    mapping = orbit_class_map(23, 2, 11, integral_classes(23, 2).classes)
    systems = decompose(23, 2, 11)
    assert len(systems) == 2
    assert all(s.degree == 1 for s in systems)
    assert mapping == {0: [0], 1: [0]}


@pytest.mark.parametrize("N", [38, 62])
def test_factors_beyond_base_primes_vanish_at_eigenvalues_mod_other_characteristics(N):
    # At 38 (q = 29) and 62 (q = 17, its anchor) one reference orbit's
    # minimal polynomial divides two integer factors.  Whatever factor_for
    # settles on must vanish at the eigenvalue a(q) of the class's orbits
    # at other characteristics, matched by their base-prime values alone.
    ic = integral_classes(N, 2)
    qs = [q for q in primes_up_to(50) if N % q]
    table = {(i, q): ic.factor_for(i, q) for i in range(len(ic.classes)) for q in qs}
    others = [ell for ell in islice(lifting.valid_characteristics(N, 2), 4) if ell != ic.anchor]
    checked = 0
    for ell in others[:3]:
        for s in decompose(N, 2, ell):

            def vanishes(i, q):
                F = tuple(c % ell for c in table[i, q])
                return evaluate(s.field, F, s.a(q)) == 0

            matches = [
                i for i in range(len(ic.classes))
                if all(vanishes(i, p) for p in ic.base_primes if p != ell)
            ]
            if len(matches) != 1:
                continue
            assert all(vanishes(matches[0], q) for q in qs if q != ell), (ell, s.label)
            checked += 1
    assert checked >= 2 * len(ic.classes)
