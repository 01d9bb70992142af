import random

import pytest
from hypothesis import given, settings, strategies as st

from heckechain import polys
from heckechain.arith import DomainError
from heckechain.gf import field

FIELDS = [(5, 1), (5, 2), (7, 2), (11, 3), (13, 1), (13, 2), (7, 18), (2, 8)]


def poly_mul_mod(a: list[int], b: list[int], mod: list[int], p: int) -> list[int]:
    """Schoolbook product of little-endian digit lists, reduced by the monic
    modulus: the reference for FiniteField.mul."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    d = len(mod) - 1
    for i in range(len(out) - 1, d - 1, -1):
        c = out[i]
        if c:
            out[i] = 0
            for j in range(d):
                out[i - d + j] = (out[i - d + j] - c * mod[j]) % p
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def reference_mul(F, a: int, b: int) -> int:
    prod = poly_mul_mod(list(F.decode(a)), list(F.decode(b)), list(F.modulus), F.p)
    return F.encode(prod)


@st.composite
def field_and_elements(draw, count=2):
    p, d = draw(st.sampled_from(FIELDS))
    F = field(p, d)
    els = [draw(st.integers(min_value=0, max_value=F.order - 1)) for _ in range(count)]
    return F, els


def test_field_is_canonical_and_cached():
    assert field(7, 2) is field(7, 2)
    assert field(7, 2) == field(7, 2)
    assert field(7, 2) != field(7, 3)


def test_order_and_encoding_round_trip():
    F = field(5, 3)
    assert F.order == 125
    for a in range(F.order):
        coeffs = F.decode(a)
        assert len(coeffs) == 3
        assert all(0 <= c < 5 for c in coeffs)
        assert F.encode(coeffs) == a


@settings(max_examples=200)
@given(field_and_elements(count=3))
def test_ring_axioms(data):
    F, (a, b, c) = data
    assert F.add(a, b) == F.add(b, a)
    assert F.mul(a, b) == F.mul(b, a)
    assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    assert F.add(a, F.neg(a)) == 0
    assert F.sub(a, b) == F.add(a, F.neg(b))
    assert F.mul(a, F.from_int(1)) == a


def test_packed_mul_matches_schoolbook_on_every_pair_of_small_fields():
    for p, d in [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3)]:
        F = field(p, d)
        for a in F.elements():
            for b in F.elements():
                assert F.mul(a, b) == reference_mul(F, a, b), (p, d, a, b)


@pytest.mark.parametrize(
    "p, d, width",
    [
        (2, 20, 16), (7, 18, 16), (13, 6, 16), (101, 3, 16), (101, 4, 32), (4099, 2, 32),
        (2147483647, 2, 64),
    ],
)
def test_packed_mul_matches_schoolbook_on_random_pairs(p, d, width):
    # The fields cover p = 2, a large degree and large p.  `width` is the
    # smallest of 16, 32 or 64 bits holding 2d(p-1)^2 + p, the bound on mul's
    # uint64 sums that the constructor checks; the last field needs all 64.
    F = field(p, d)
    assert polys.slot_width(2 * d * (p - 1) ** 2 + p, "") == width
    rng = random.Random(p * 100 + d)
    edge = [0, 1, p - 1, p, F.order - 1]
    pairs = [(a, b) for a in edge for b in edge]
    pairs += [(rng.randrange(F.order), rng.randrange(F.order)) for _ in range(2000)]
    for a, b in pairs:
        assert F.mul(a, b) == reference_mul(F, a, b), (a, b)


@pytest.mark.parametrize("p, d", [(7, 18), (13, 4), (101, 4), (2, 20)])
def test_fold_rows_are_high_powers_of_the_generator(p, d):
    F = field(p, d)
    Fp = field(p)
    assert F.fold.shape == (d - 1, d)
    for i, row in enumerate(F.fold):
        x_power = (0,) * (d + i) + (1,)
        expected = polys.mod(Fp, x_power, F.modulus)
        assert tuple(int(c) for c in row) == expected + (0,) * (d - len(expected)), i
    with pytest.raises(ValueError):
        F.fold[0, 0] = 1


def test_field_beyond_64_bit_slots_is_refused():
    # 2d(p-1)^2 + p has 65 bits for p = 2147483659, d = 2.
    with pytest.raises(DomainError, match="too large"):
        field(2147483659, 2)
    assert field(2147483659).mul(3, 5) == 15


@settings(max_examples=200)
@given(field_and_elements(count=1))
def test_inverse_and_division(data):
    F, (a,) = data
    if a == 0:
        with pytest.raises(DomainError):
            F.inv(0)
        return
    assert F.mul(a, F.inv(a)) == F.from_int(1)
    assert F.div(a, a) == F.from_int(1)


def test_inverse_of_every_element_and_of_samples_in_a_large_field():
    for p, d in [(2, 4), (3, 3), (5, 2)]:
        F = field(p, d)
        for a in range(1, F.order):
            assert F.mul(a, F.inv(a)) == 1
    F = field(7, 18)
    rng = random.Random(18)
    for a in [1, 7, F.order - 1] + [rng.randrange(1, F.order) for _ in range(20)]:
        inv = F.inv(a)
        assert F.mul(a, inv) == 1
        assert inv == F.pow(a, F.order - 2)


@settings(max_examples=100)
@given(field_and_elements(count=2))
def test_frobenius_is_pth_power_homomorphism(data):
    F, (a, b) = data
    p = F.p
    assert F.frobenius(a) == F.pow(a, p)
    assert F.frobenius(F.add(a, b)) == F.add(F.frobenius(a), F.frobenius(b))
    assert F.frobenius(F.mul(a, b)) == F.mul(F.frobenius(a), F.frobenius(b))
    assert F.frobenius(a, F.degree) == a


def test_prime_subfield_detection():
    F = field(7, 2)
    fixed = [a for a in F.elements() if F.frobenius(a) == a]
    assert sorted(fixed) == sorted(a for a in F.elements() if a < F.p)
    assert len(fixed) == 7


def test_from_int_is_additive_section():
    F = field(11, 2)
    for n in range(-5, 25):
        assert F.from_int(n) == F.from_int(n % 11)
    assert F.from_int(3) == F.encode((3, 0))


def test_pow_edge_cases():
    F = field(5, 2)
    g = [a for a in F.elements() if a not in (0, F.from_int(1))][0]
    assert F.pow(g, 0) == F.from_int(1)
    assert F.pow(g, F.order - 1) == F.from_int(1)
    assert F.pow(0, 3) == 0


def test_multiplicative_group_order():
    F = field(7, 2)
    one = F.from_int(1)
    for a in F.elements():
        if a == 0:
            continue
        assert F.pow(a, 48) == one
