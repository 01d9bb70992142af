import pytest

from heckechain import mlt
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
    # The first hit lies near t = 2.87e8 on the progression q = x0 + 8*109*t.
    pair = find_good_dihedral(101)
    assert pair == GoodDihedralPair(109, 250512128689)
    good_dihedral_conditions(pair, 101)


def test_good_dihedral_is_deterministic_across_calls():
    assert find_good_dihedral(10) == find_good_dihedral(10)


# The first six protecting primes q at three bounds, each pulled by forbidding
# the ones before it.
SUCCESSIVE_Q = {
    10: (13, (2521, 8761, 13441, 16249, 19681, 24049)),
    30: (37, (3980089, 4085761, 7504561, 9524761, 11069881, 12234049)),
    62: (73, (1873751881, 6179298889, 7904941801, 9346329721, 9513924289, 12133838809)),
}


def pull_successive(bound, n):
    forbidden = ()
    pairs = []
    for _ in range(n):
        pair = find_good_dihedral(bound, forbidden)
        pairs.append(pair)
        forbidden += (pair.q,)
    return pairs


@pytest.mark.parametrize("bound", sorted(SUCCESSIVE_Q))
def test_good_dihedral_successive_protecting_primes(monkeypatch, bound):
    monkeypatch.setattr(mlt, "_PAIR_CACHE", {})
    p, qs = SUCCESSIVE_Q[bound]
    pairs = pull_successive(bound, len(qs))
    assert pairs == [GoodDihedralPair(p, q) for q in qs]
    for i, pair in enumerate(pairs):
        good_dihedral_conditions(pair, bound, forbidden=qs[:i])


def record_windows(monkeypatch):
    """Patch the sieve seen by mlt to log each call's (t_start, count)."""
    windows = []
    scan = mlt.sieve_scan

    def logged(x0, step, t_start, count, ells):
        windows.append((t_start, count))
        return scan(x0, step, t_start, count, ells)

    monkeypatch.setattr(mlt, "sieve_scan", logged)
    return windows


def test_good_dihedral_window_stays_small_while_windows_yield_primes(monkeypatch):
    # At bound 10 every window of the progression holds about a hundred
    # primes, so a search past the first 300 never widens its window.
    monkeypatch.setattr(mlt, "_PAIR_CACHE", {})
    forbidden = tuple(pair.q for pair in pull_successive(10, 300))
    monkeypatch.setattr(mlt, "_PAIR_CACHE", {})
    windows = record_windows(monkeypatch)
    pair = find_good_dihedral(10, forbidden)
    assert pair.q not in forbidden and pair.q > max(forbidden)
    w = mlt.FIRST_WINDOW
    assert len(windows) >= 3
    assert windows == [(i * w, w) for i in range(len(windows))]


def test_good_dihedral_window_doubles_after_empty_windows(monkeypatch):
    # At bound 62 the first nine windows hold no prime.
    monkeypatch.setattr(mlt, "_PAIR_CACHE", {})
    windows = record_windows(monkeypatch)
    assert find_good_dihedral(62).q == SUCCESSIVE_Q[62][1][0]
    w = mlt.FIRST_WINDOW
    assert [count for _, count in windows] == [w << i for i in range(10)]
    assert [t for t, _ in windows] == [w * ((1 << i) - 1) for i in range(10)]


class Interrupted(Exception):
    pass


@pytest.mark.parametrize("target, calls_made", [("is_prime", 36), ("sieve_scan", 4)])
def test_good_dihedral_scan_survives_interruption(monkeypatch, target, calls_made):
    # The search below makes calls_made calls to target.  Cut short at any
    # one of them, it leaves state from which later searches still find
    # every protecting prime in order.
    p, qs = SUCCESSIVE_Q[30]
    real = getattr(mlt, target)
    interrupted = 0
    for stop in range(1, calls_made + 1):
        monkeypatch.setattr(mlt, "_PAIR_CACHE", {})
        calls = 0

        def flaky(*args):
            nonlocal calls
            calls += 1
            if calls == stop:
                raise Interrupted
            return real(*args)

        monkeypatch.setattr(mlt, target, flaky)
        try:
            find_good_dihedral(30, qs[:3])
        except Interrupted:
            interrupted += 1
        monkeypatch.setattr(mlt, target, real)
        assert pull_successive(30, len(qs)) == [GoodDihedralPair(p, q) for q in qs]
    assert interrupted == calls_made
