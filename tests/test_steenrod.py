"""Sq1: generator rule, derivation laws, and the independent root oracle."""

import random

import pytest

from charclass.bundlecalc import evaluate_class, roots_bundle
from charclass.errors import NamespaceMismatchError
from charclass.steenrod import sq1
from charclass.verify import random_mod2
from charclass.wring import (
    ROOT,
    SW,
    MPoly2,
    RingContext,
    add,
    grade_component,
    mono_degree,
    mono_mul,
    mul,
    r,
    square,
    w,
)


def root_derivation(p: MPoly2) -> MPoly2:
    """The derivation sending every root generator r_i to r_i^2, extended by
    the Leibniz rule.  Independent of the Wu-formula implementation: on a
    monomial it adds one r_i for every odd-exponent variable."""
    assert p.namespace == ROOT
    out: set = set()
    for key in p.monomials:
        for i, e in key:
            if e % 2:
                term = mono_mul(key, ((i, 1),))
                if term in out:
                    out.remove(term)
                else:
                    out.add(term)
    return MPoly2(frozenset(out), ROOT)


def test_generator_rule():
    assert sq1(w(1)) == square(w(1))
    assert sq1(w(2)) == w(1) * w(2) + w(3)
    assert sq1(w(3)) == w(1) * w(3)
    assert sq1(w(4)) == w(1) * w(4) + w(5)
    # odd powers on odd and even indices: Sq1(w_j^e) = w_j^(e-1) * Sq1(w_j)
    assert sq1(w(2) ** 3) == w(1) * w(2) ** 3 + w(2) ** 2 * w(3)
    assert sq1(w(3) ** 5) == w(1) * w(3) ** 5
    for j in range(1, 7):
        for e in (3, 5):
            assert sq1(w(j) ** e) == w(j) ** (e - 1) * sq1(w(j)), (j, e)
            assert sq1(w(j) ** (e - 1)).is_zero(), (j, e)


def test_leibniz_cancellation_example():
    # the two w1*w2*w4 cross terms cancel
    assert sq1(w(2) * w(4)) == w(3) * w(4) + w(2) * w(5)


def test_kills_squares():
    rng = random.Random(21)
    for _ in range(50):
        x = random_mod2(rng, 12)
        assert sq1(square(x)).is_zero()


def test_sq1_twice_is_zero():
    rng = random.Random(22)
    for _ in range(200):
        x = random_mod2(rng, 16)
        assert sq1(sq1(x)).is_zero()


# Products with two, three and four odd exponents, split into two factors;
# the sums make their terms toggle against each other's.
_ODD_PAIRS = [
    (w(2) ** 3, w(3)),
    (w(1) * w(2) ** 3, w(4) ** 5),
    (w(2) * w(3) ** 3, w(4) ** 5 * w(7)),
    (w(3) ** 5 * w(6) ** 2, w(1) ** 3 * w(6)),
    (w(2) * w(4) + w(2) ** 3, w(4) ** 3 + w(1) * w(3)),
]


def test_leibniz_rule_random():
    rng = random.Random(23)
    pairs = [(random_mod2(rng, 12), random_mod2(rng, 12)) for _ in range(100)]
    for x, y in _ODD_PAIRS + pairs:
        assert sq1(mul(x, y)) == add(mul(sq1(x), y), mul(x, sq1(y))), (x, y)


def test_degree_homogeneity():
    rng = random.Random(24)
    for _ in range(100):
        x = random_mod2(rng, 16)
        for d in {mono_degree(k, SW) for k in x.monomials}:
            image = sq1(grade_component(x, d))
            assert image == grade_component(image, d + 1)


def test_rank_cap_kills_shifted_generator():
    ctx = RingContext(rank_cap=2)
    assert sq1(w(2), ctx) == w(1) * w(2)


def test_degree_cap_applies():
    ctx = RingContext(degree_cap=2)
    assert sq1(w(2), ctx).is_zero()  # both output terms have degree 3


def test_root_namespace_rejected():
    with pytest.raises(NamespaceMismatchError):
        sq1(r(1))


def test_root_oracle_agrees():
    """Evaluating Sq1(c) on the splitting bundle must equal applying the
    root derivation to the evaluated class: this pins the Wu generator rule
    against a computation that never uses it."""
    rng = random.Random(25)
    m = 8
    roots = roots_bundle(m)
    for _ in range(40):
        c = random_mod2(rng, 6, max_terms=4)
        via_sq1 = evaluate_class(sq1(c), roots)
        via_derivation = root_derivation(evaluate_class(c, roots))
        assert via_sq1 == via_derivation
