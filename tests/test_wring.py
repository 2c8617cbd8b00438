"""Ring axioms, truncation coherence, and kernel agreement for MPoly2."""

import random

import pytest

from charclass.errors import MissingImageError, NamespaceMismatchError
from charclass.wring import (
    SW,
    MPoly2,
    RingContext,
    add,
    constant_term,
    grade_component,
    mono_degree,
    mul,
    power,
    r,
    reduce_poly,
    square,
    substitute,
    w,
)
from charclass.verify import random_mod2


def test_add_cancels_mod2():
    assert add(w(1) + w(2), w(2) + w(3)) == w(1) + w(3)


def test_add_identity():
    x = w(1) * w(2) + w(3)
    assert add(x, MPoly2.zero()) == x


def test_add_truncates():
    ctx = RingContext(degree_cap=2)
    assert add(power(w(1), 3) + w(2), MPoly2.zero(), ctx) == w(2)


def test_mul_squares_binomial():
    one = MPoly2.one()
    assert (one + w(1)) * (one + w(1)) == one + square(w(1))


def test_mul_distinct_generators():
    p = w(2) * w(3)
    assert str(p) == "w2*w3"
    assert p.degree() == 5


def test_frobenius_additivity():
    assert square(w(1) + w(2)) == square(w(1)) + square(w(2))


def test_grade_component_examples():
    x = MPoly2.one() + w(1) + square(w(1)) + w(2)
    assert grade_component(x, 2) == square(w(1)) + w(2)
    assert grade_component(w(3), 2).is_zero()
    total = MPoly2.zero()
    for k in range(x.degree() + 1):
        part = grade_component(x, k)
        assert all(mono_degree(m, SW) == k for m in part.monomials)
        total = total + part
    assert total == x


def test_constant_term():
    assert constant_term(MPoly2.one() + w(1) * w(2)) == 1
    assert constant_term(w(1)) == 0
    assert constant_term(MPoly2.zero()) == 0


def test_substitute_examples():
    assert substitute(square(w(1)), {1: w(1) + w(2)}) == square(w(1)) + square(w(2))
    assert substitute(w(2), {2: MPoly2.zero()}).is_zero()
    assert substitute(w(1) * w(2), {1: w(1), 2: square(w(1))}) == power(w(1), 3)


def test_substitute_reduces_images_above_the_caps():
    rng = random.Random(15)
    for degree_cap, rank_cap in ((10, None), (None, 4), (9, 5)):
        ctx = RingContext(degree_cap, rank_cap)
        for _ in range(30):
            a = random_mod2(rng, 8)
            # images reach indices and degrees above both caps
            images = {i: random_mod2(rng, 14) for i in a.variables()}
            assert substitute(a, images, ctx) == reduce_poly(substitute(a, images), ctx)


def test_substitute_missing_image():
    with pytest.raises(MissingImageError):
        substitute(w(1) * w(2), {1: w(1)})


def test_namespace_mismatch():
    with pytest.raises(NamespaceMismatchError):
        add(w(1), r(1))
    with pytest.raises(NamespaceMismatchError):
        mul(w(1), r(1))


def test_root_namespace_degree():
    p = r(3) * r(5)
    assert p.degree() == 2
    assert str(p) == "r3*r5"


def test_ring_axioms_random():
    rng = random.Random(11)
    for _ in range(100):
        a = random_mod2(rng, 20)
        b = random_mod2(rng, 20)
        c = random_mod2(rng, 20)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert (a + a).is_zero()
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert square(a + b) == square(a) + square(b)


def test_truncation_coherence():
    rng = random.Random(12)
    for _ in range(60):
        a = random_mod2(rng, 16)
        b = random_mod2(rng, 16)
        ctx = RingContext(
            degree_cap=rng.choice([None, 4, 9, 15]),
            rank_cap=rng.choice([None, 2, 5]),
        )
        assert reduce_poly(a * b, ctx) == mul(reduce_poly(a, ctx), reduce_poly(b, ctx), ctx)


def test_rank_cap_drops_high_variables():
    ctx = RingContext(rank_cap=2)
    assert reduce_poly(w(3) + w(2), ctx) == w(2)
    assert mul(w(2), w(3), ctx).is_zero()


def test_degree_cap_zero_is_legal():
    ctx = RingContext(degree_cap=0)
    assert reduce_poly(MPoly2.one() + w(1), ctx) == MPoly2.one()


def test_power_binary_exponentiation():
    x = w(1) + w(2)
    expected = MPoly2.one()
    for _ in range(5):
        expected = expected * x
    assert power(x, 5) == expected
    assert power(x, 0) == MPoly2.one()


def test_packed_kernels_agree_with_dict():
    from charclass.wring import _mul_dict, _mul_packed

    rng = random.Random(13)
    for _ in range(40):
        a = random_mod2(rng, 14)
        b = random_mod2(rng, 14)
        for cap in (None, 9):
            assert frozenset(_mul_dict(a.monomials, b.monomials, SW, cap)) == frozenset(
                _mul_packed(a.monomials, b.monomials, SW, cap)
            )


def test_pyint_fallback_on_wide_exponents():
    # exponents too large for 64-bit packing force the big-int path; a
    # self-product must still collapse to the Frobenius square
    keys = frozenset({((i, 40000 + i),) for i in range(1, 80)} | {()})
    big = MPoly2(keys, SW)
    assert len(big.monomials) ** 2 > 4096
    assert mul(big, big) == square(big)


def test_canonical_printing_graded_lex():
    x = w(2) + square(w(1)) + MPoly2.one() + w(1)
    assert str(x) == "1 + w1 + w1^2 + w2"
    assert str(MPoly2.zero()) == "0"
    assert str(MPoly2.one()) == "1"


def test_from_keys_canonicalizes():
    p = MPoly2.from_keys([[(2, 1), (1, 2)], [(1, 2), (2, 1)]])
    assert p.is_zero()  # the same monomial twice cancels
    q = MPoly2.from_keys([[(3, 1), (3, 1)]])
    assert q == square(w(3))
