import random

import pytest
from hypothesis import given, settings, strategies as st

from heckechain.arith import DomainError
from heckechain.gf import field

FIELDS = [(5, 1), (5, 2), (7, 2), (11, 3), (13, 1), (13, 2)]


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
