import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heckechain import gf, polys
from heckechain.arith import DomainError
from heckechain.gf import field


def evaluate(F, f, x):
    """f(x) over F by Horner's rule."""
    acc = 0
    for c in reversed(f):
        acc = F.add(F.mul(acc, x), c)
    return acc


def rand_poly(F, rng, deg):
    out = [rng.randrange(F.order) for _ in range(deg)]
    out.append(rng.randrange(1, F.order))
    return polys.trim(out)


@st.composite
def poly_pair(draw):
    p, d = draw(st.sampled_from([(5, 1), (7, 1), (7, 2), (11, 1)]))
    F = field(p, d)
    seed = draw(st.integers(min_value=0, max_value=10**6))
    rng = random.Random(seed)
    f = rand_poly(F, rng, draw(st.integers(min_value=1, max_value=5)))
    g = rand_poly(F, rng, draw(st.integers(min_value=0, max_value=4)))
    return F, f, g


@settings(max_examples=150)
@given(poly_pair())
def test_division_identity(data):
    F, f, g = data
    q, r = polys.divmod_poly(F, f, g)
    assert polys.add(F, polys.mul(F, q, g), r) == polys.trim(f)
    assert polys.degree(r) < polys.degree(g) or r == ()


@settings(max_examples=150)
@given(poly_pair())
def test_gcd_divides_both(data):
    F, f, g = data
    h = polys.gcd(F, f, g)
    for target in (f, g):
        _, r = polys.divmod_poly(F, target, h)
        assert r == ()


@settings(max_examples=150)
@given(poly_pair())
def test_xgcd_bezout_coefficient(data):
    F, f, g = data
    d, s = polys.xgcd(F, f, g)
    assert d == polys.gcd(F, f, g)
    assert polys.mod(F, polys.sub(F, polys.mul(F, s, f), d), g) == ()


@settings(max_examples=100)
@given(poly_pair())
def test_factor_reconstructs_monic_input(data):
    F, f, g = data
    h = polys.mul(F, f, g)
    if polys.degree(h) < 1:
        return
    h = polys.monic(F, h)
    factors = polys.factor(F, h)
    prod = (F.one,)
    for fac, mult in factors:
        assert polys.is_irreducible(F, fac)
        assert fac[-1] == F.one
        for _ in range(mult):
            prod = polys.mul(F, prod, fac)
    assert prod == h


def test_roots_against_evaluation():
    F = field(11)
    f = (3, 0, 1, 7, 1)
    rs = polys.roots(F, f)
    assert rs == sorted(rs)
    for x in F.elements():
        if evaluate(F, f, x) == 0:
            assert x in rs
        else:
            assert x not in rs


def test_known_factorization():
    F = field(5)
    # x^2 + x - 1 has discriminant 5, a double root at x = 2 mod 5.
    f = (4, 1, 1)
    assert polys.roots(F, f) == [2]
    factors = polys.factor(F, f)
    assert factors == [((3, 1), 2)]


def test_irreducibility_detection():
    F = field(7)
    assert polys.is_irreducible(F, (3, 1))
    assert polys.is_irreducible(F, (1, 0, 1))  # x^2 + 1 with 7 % 4 == 3
    assert not polys.is_irreducible(F, (6, 0, 1))  # x^2 - 1


def test_embeddings_count_and_homomorphism():
    src = field(7, 2)
    dst = field(7, 2)
    embs = polys.embeddings(src, dst)
    assert len(embs) == 2
    for images in embs:
        for a in range(src.order):
            for b in range(src.order):
                fa = polys.apply_embedding(src, dst, images, a)
                fb = polys.apply_embedding(src, dst, images, b)
                fab = polys.apply_embedding(src, dst, images, src.mul(a, b))
                assert dst.mul(fa, fb) == fab
                assert polys.apply_embedding(
                    src, dst, images, src.add(a, b)
                ) == dst.add(fa, fb)
        break  # homomorphism check on the first embedding only


def test_embeddings_into_extension():
    src = field(5, 2)
    dst = field(5, 4)
    embs = polys.embeddings(src, dst)
    assert len(embs) == 2
    one_images = {polys.apply_embedding(src, dst, e, src.one) for e in embs}
    assert one_images == {dst.one}


def test_squarefree_decomposition():
    F = field(7)
    f = polys.mul(F, (1, 1), (1, 1))
    f = polys.mul(F, f, (3, 1))
    parts = polys.squarefree_decomposition(F, f)
    rebuilt = (F.one,)
    for g, mult in parts:
        for _ in range(mult):
            rebuilt = polys.mul(F, rebuilt, g)
    assert rebuilt == polys.monic(F, f)


def roots_by_factoring(F, f):
    """The roots as the linear factors of a full factorization: the former
    implementation of `roots`, kept as an oracle."""
    if polys.degree(f) < 1:
        return []
    g = polys.gcd(F, polys.sub(F, polys.pow_mod(F, polys.X, F.order, f), polys.X), f)
    out = []
    if polys.degree(g) > 0:
        for irr, _ in polys.factor(F, g):
            if polys.degree(irr) == 1:
                out.append(F.neg(irr[0]))
    return sorted(set(out))


@pytest.mark.parametrize("p, d", [(7, 1), (7, 3), (13, 2)])
def test_roots_match_factoring_oracle(p, d):
    F = field(p, d)
    rng = random.Random(1000 * p + d)
    for _ in range(25):
        f = rand_poly(F, rng, rng.randrange(1, 9))
        # Multiply in random linear factors so that most inputs have roots.
        for _ in range(rng.randrange(0, 5)):
            f = polys.mul(F, f, (rng.randrange(F.order), 1))
        assert polys.roots(F, f) == roots_by_factoring(F, f)


def test_equal_degree_split_refuses_characteristic_two():
    F = field(2, 3)
    f = polys.mul(F, (0, 1), (1, 1))  # x (x + 1): two linear factors over F_8
    with pytest.raises(DomainError, match="odd characteristic"):
        polys.equal_degree_split(F, f, 1)
    assert polys.equal_degree_split(F, (1, 1), 1) == [(1, 1)]


def monic_polys(p, d):
    for low in itertools.product(range(p), repeat=d):
        yield (*low, 1)


@pytest.mark.parametrize("p", [3, 5])
def test_ben_or_irreducibility_matches_factoring(p):
    F = field(p)
    for d in range(1, 5):
        for f in monic_polys(p, d):
            assert polys.is_irreducible(F, f) == (polys.factor(F, f) == [(f, 1)]), f
    assert not polys.is_irreducible(F, ())
    assert not polys.is_irreducible(F, (1,))


@pytest.mark.parametrize("p, d", [(3, 5), (5, 4), (7, 3), (13, 2)])
def test_canonical_modulus_is_first_irreducible_by_factoring(p, d):
    Fp = field(p)
    by_low_part = sorted(monic_polys(p, d), key=lambda f: sum(c * p**i for i, c in enumerate(f)))
    first = next(f for f in by_low_part if polys.factor(Fp, f) == [(f, 1)])
    assert gf._canonical_modulus(p, d) == first


@pytest.mark.parametrize("p, d", [(7, 1), (7, 3), (13, 2), (5, 6)])
def test_one_root_of_a_split_polynomial(p, d):
    F = field(p, d)
    rng = random.Random(p * d)
    rts = set()
    while len(rts) < 6:
        rts.add(rng.randrange(F.order))
    f = (1,)
    for r in rts:
        f = polys.mul(F, f, (F.neg(r), 1))
    assert polys.one_root(F, f) in rts
    # The modulus of F splits into distinct linear factors over F itself.
    assert evaluate(F, F.modulus, polys.one_root(F, F.modulus)) == 0


def schoolbook_pow_mod(F, a, e, m):
    """Right-to-left square-and-multiply through `polys.mul` and `polys.mod`."""
    result = (1,)
    a = polys.mod(F, a, m)
    while e:
        if e & 1:
            result = polys.mod(F, polys.mul(F, result, a), m)
        a = polys.mod(F, polys.mul(F, a, a), m)
        e >>= 1
    return result


def outside_prime_field(F, rng):
    """A random element of F that does not lie in F_p."""
    return rng.randrange(F.p, F.order)


@pytest.mark.parametrize("p, d", [(7, 18), (13, 10), (13, 11), (3, 5), (5, 2)])
def test_packed_pow_mod_matches_schoolbook(p, d):
    F = field(p, d)
    rng = random.Random(100 * p + d)
    # The schoolbook reference at a random exponent costs about
    # 2 deg(m)^2 log2(q) field multiplies, so the small fields take every
    # degree 1..20 and the large ones degrees 1..3 and d, the degree of the
    # minimal polynomials whose roots they hold.
    for n in range(1, 21) if F.order < 1000 else (1, 2, 3, d):
        m = tuple(outside_prime_field(F, rng) for _ in range(n)) + (1,)
        if n == 2:
            m = m[:-1] + (outside_prime_field(F, rng),)  # not monic
        a = tuple(outside_prime_field(F, rng) for _ in range(n))
        tall = tuple(outside_prime_field(F, rng) for _ in range(n + 3))  # deg >= deg m
        cases = [(a, e) for e in (0, 1, 2, rng.randrange((F.order - 1) // 2 + 1))]
        cases += [((), 0), ((), 3), (tall, 0), (tall, 2)]
        for base, e in cases:
            assert polys.pow_mod(F, base, e, m) == schoolbook_pow_mod(F, base, e, m), (n, e)


def test_packed_pow_mod_at_the_64_bit_slot_edge():
    # p is the largest prime below 2^30, so F_p^2 itself packs into 64-bit
    # slots, and a degree-n modulus needs the slot bound n * 2 * (p-1)^2:
    # 64 bits at n = 8, 65 bits at n = 9.
    p = 1073741789
    F = field(p, 2)
    rng = random.Random(5)
    for n in (8, 9):
        m = tuple(outside_prime_field(F, rng) for _ in range(n)) + (1,)
        a = tuple(outside_prime_field(F, rng) for _ in range(n))
        if n == 8:
            assert polys.pow_mod(F, a, 5, m) == schoolbook_pow_mod(F, a, 5, m)
        else:
            with pytest.raises(DomainError, match="too large"):
                polys.pow_mod(F, a, 5, m)


def convolve_mod(f, g, p):
    """f * g over F_p with exact (object) integer sums."""
    if not f or not g:
        return ()
    c = np.convolve(np.array(f, dtype=object), np.array(g, dtype=object))
    return polys.trim(int(x) % p for x in c)


@pytest.mark.parametrize("p", [2, 3, 7, 13, 2147483647])
def test_prime_field_mul_and_division_match_convolution(p):
    F = field(p)
    rng = random.Random(p)
    for _ in range(60):
        f = polys.trim(rng.randrange(p) for _ in range(rng.randrange(0, 12)))
        g = rand_poly(F, rng, rng.randrange(0, 8))
        assert polys.mul(F, f, g) == convolve_mod(f, g, p)
        q, r = polys.divmod_poly(F, f, g)
        assert polys.degree(r) < polys.degree(g)
        assert all(0 <= c < p for c in q + r)
        qg = convolve_mod(q, g, p)
        assert polys.trim((a + b) % p for a, b in itertools.zip_longest(qg, r, fillvalue=0)) == f
        pairs = list(itertools.zip_longest(f, g, fillvalue=0))
        assert polys.add(F, f, g) == polys.trim(F.add(a, b) for a, b in pairs)
        assert polys.sub(F, f, g) == polys.trim(F.sub(a, b) for a, b in pairs)
        assert polys.neg(F, g) == tuple(F.neg(b) for b in g)


def pow_mod_distinct_degree(F, f):
    """Distinct-degree factorisation with one pow_mod per step."""
    out = []
    h = polys.X
    i = 0
    while polys.degree(f) >= 2 * (i + 1):
        i += 1
        h = polys.pow_mod(F, h, F.order, f)
        g = polys.gcd(F, polys.sub(F, h, polys.X), f)
        if polys.degree(g) > 0:
            out.append((i, g))
            f = polys.divmod_poly(F, f, g)[0]
            h = polys.mod(F, h, f)
    if polys.degree(f) > 0:
        out.append((polys.degree(f), f))
    return out


@pytest.mark.parametrize("p, d", [(5, 1), (7, 1), (13, 1), (101, 1), (2147483647, 1), (7, 2)])
def test_distinct_degree_matches_pow_mod_steps(p, d):
    F = field(p, d)
    rng = random.Random(p + d)
    partway = 0
    for _ in range(12):
        # Low-degree factors times a random part, so that factors split off
        # before the last step.
        f = (rng.randrange(F.order), 1)
        for _ in range(rng.randrange(0, 3)):
            f = polys.mul(F, f, rand_poly(F, rng, rng.randrange(1, 4)))
        f = polys.mul(F, f, rand_poly(F, rng, rng.randrange(0, 9)))
        for g, _ in polys.squarefree_decomposition(F, f):
            want = pow_mod_distinct_degree(F, g)
            assert polys.distinct_degree(F, g) == want
            # The loop runs on after the first split, on reduced rows.
            i, first = want[0]
            partway += len(want) > 1 and polys.degree(g) - polys.degree(first) >= 2 * (i + 1)
    assert partway >= 3
