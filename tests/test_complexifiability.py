"""Decision procedures: the squares criterion against the invariance
oracle, both decompositions, the squared-torsion expansion, and the Chern
expression round trip."""

import random
from dataclasses import FrozenInstanceError

import pytest

from charclass import complexifiability
from charclass.bundlecalc import (
    FormalBundle,
    evaluate_class,
    fiber_bundle,
    to_ext,
    trivial_bundle,
    universal_bundle,
    whitney_sum,
)
from charclass.complexifiability import (
    ChernExpr,
    SquaresPoly,
    _test_bundle,
    express_via_chern,
    ideal_decomposition,
    invariance_oracle,
    is_complexifiable_integral,
    is_complexifiable_mod2,
    lemma3_lhs,
    lemma3_rhs,
    subring_decomposition,
)
from charclass.errors import (
    CapsTooSmallError,
    InvalidIndexSetError,
    NotComplexifiableError,
    NotInIdealError,
)
from charclass.expr import parse, parse_integral, parse_mod2
from charclass.feshbach import IndexSet, IntClass, rho
from charclass.verify import (
    random_ideal_member,
    random_integral_complexifiable,
    random_mod2,
    random_squares_member,
    random_squarefree_containing,
)
from charclass.wring import (
    MPoly2,
    RingContext,
    add,
    mul,
    power,
    square,
    w,
)


def test_mod2_criterion_examples():
    assert is_complexifiable_mod2(power(w(1), 4) * square(w(3)))
    assert not is_complexifiable_mod2(w(1))
    assert not is_complexifiable_mod2(square(w(1)) + w(2))
    assert is_complexifiable_mod2(MPoly2.one())
    assert is_complexifiable_mod2(MPoly2.zero())


def test_subring_decomposition_examples():
    c = power(w(2), 4) + square(w(1)) * square(w(3))
    d = subring_decomposition(c)
    assert str(d) == "u1*u3 + u2^2"
    assert d.expand() == c
    assert str(subring_decomposition(MPoly2.one())) == "1"
    with pytest.raises(NotComplexifiableError):
        subring_decomposition(w(1))


def test_subring_round_trip_random():
    rng = random.Random(51)
    for _ in range(50):
        c = random_squares_member(rng, 20)
        assert subring_decomposition(c).expand() == c


def test_ideal_decomposition_examples():
    assert ideal_decomposition(square(w(1)) * w(2)) == [(1, w(2))]
    c = power(w(1), 3) * square(w(2)) + power(w(2), 4)
    assert ideal_decomposition(c) == [(1, w(1) * square(w(2))), (2, square(w(2)))]
    with pytest.raises(NotInIdealError) as err:
        ideal_decomposition(w(1) * w(2))
    assert err.value.witness == "w1*w2"


def test_ideal_decomposition_reconstruction_random():
    rng = random.Random(52)
    for _ in range(50):
        c = random_ideal_member(rng, 20)
        rebuilt = MPoly2.zero()
        for i, cofactor in ideal_decomposition(c):
            rebuilt = add(rebuilt, mul(square(w(i)), cofactor))
        assert rebuilt == c


def test_ideal_decomposition_reports_witness_random():
    rng = random.Random(53)
    for _ in range(50):
        c = random_squarefree_containing(rng, 16)
        with pytest.raises(NotInIdealError):
            ideal_decomposition(c)


def test_invariance_oracle_examples():
    ctx = RingContext(degree_cap=24)
    assert invariance_oracle(square(w(2)), ctx)
    assert not invariance_oracle(w(2), ctx)
    assert invariance_oracle(MPoly2.one(), ctx)


def test_invariance_oracle_refuses_small_caps():
    with pytest.raises(CapsTooSmallError):
        invariance_oracle(square(w(3)), RingContext(degree_cap=4))
    with pytest.raises(CapsTooSmallError):
        invariance_oracle(square(w(3)), RingContext(degree_cap=10, rank_cap=2))


def test_theorem1_biconditional_random():
    rng = random.Random(54)
    ctx = RingContext(degree_cap=16)
    for k in range(60):
        c = random_squares_member(rng, 16) if k % 2 else random_mod2(rng, 16)
        assert invariance_oracle(c, ctx) == is_complexifiable_mod2(c)


def _oracle_fresh(c):
    """The invariance oracle with its test pair built afresh for c."""
    work = RingContext(degree_cap=c.degree())
    fg = whitney_sum(fiber_bundle(work), universal_bundle(work), work)
    lhs = evaluate_class(c, fg, work)
    rhs = evaluate_class(c, universal_bundle(work), work)
    return lhs == to_ext(rhs)


def test_memoized_test_pair_matches_fresh_route():
    rng = random.Random(57)
    classes = []
    for k in range(24):
        top = (6, 11, 16)[k % 3]
        classes.append(random_squares_member(rng, top) if k % 2 else random_mod2(rng, top))
    ctx = RingContext(degree_cap=16, rank_cap=16)
    expected = [_oracle_fresh(c) for c in classes]
    assert True in expected and False in expected
    for _ in range(2):
        assert [invariance_oracle(c, ctx) for c in classes] == expected
    for d in {c.degree() for c in classes}:
        work = RingContext(degree_cap=d)
        fg = whitney_sum(fiber_bundle(work), universal_bundle(work), work)
        assert _test_bundle(d) == fg


def test_lemma3_spot_cases():
    ctx = RingContext(degree_cap=40)
    u = universal_bundle(ctx)
    half = IndexSet.of("1/2")
    assert lemma3_lhs(half, u, ctx) == power(w(1), 4)
    assert lemma3_rhs(half, u, ctx, "derived") == power(w(1), 4)
    assert lemma3_rhs(half, u, ctx, "verbatim").is_zero()
    one = IndexSet.of(1)
    expected = square(w(1)) * square(w(2)) + square(w(3))
    assert lemma3_lhs(one, u, ctx) == expected
    assert lemma3_rhs(one, u, ctx, "derived") == expected
    assert lemma3_rhs(one, u, ctx, "verbatim") == expected
    assert lemma3_lhs(half, trivial_bundle(), ctx).is_zero()
    with pytest.raises(ValueError):
        lemma3_rhs(half, u, ctx, "freestyle")
    # the left side is rho(V_I^2), so I must be valid at the rank cap, and
    # the right side refuses the same set
    small = RingContext(40, 4)
    for side in (lemma3_lhs, lemma3_rhs):
        with pytest.raises(InvalidIndexSetError, match=r"index set \{3\} is not valid at rank 4"):
            side(IndexSet.of(3), universal_bundle(small), small)


def test_lemma3_on_the_fiber_bundle():
    # the fiber bundle complexifies trivially, so both sides vanish
    from charclass.bundlecalc import fiber_bundle

    ctx = RingContext(degree_cap=20)
    f = fiber_bundle(ctx)
    for indices in (["1/2"], [1], ["1/2", 2]):
        iset = IndexSet.of(*indices)
        assert lemma3_lhs(iset, f, ctx).is_zero()
        assert lemma3_rhs(iset, f, ctx, "derived").is_zero()
        assert lemma3_rhs(iset, f, ctx, "verbatim").is_zero()


def test_integral_criterion_examples():
    ctx = RingContext(degree_cap=24)
    assert is_complexifiable_integral(IntClass.p(1), ctx)
    assert is_complexifiable_integral(IntClass.V(["1/2"]), ctx)
    assert not is_complexifiable_integral(IntClass.V([1]), ctx)
    v1sq = IntClass.V([1]) * IntClass.V([1])
    assert is_complexifiable_integral(v1sq, ctx)
    with pytest.raises(CapsTooSmallError):
        is_complexifiable_integral(IntClass.p(3), RingContext(degree_cap=8))


def test_express_via_chern_examples():
    ctx = RingContext(degree_cap=24)
    e = express_via_chern(IntClass.p(1), ctx)
    assert str(e) == "-c2"
    assert e.expand_free() == IntClass.p(1)
    assert not e.lift_marker

    vh2 = IntClass.V(["1/2"]) * IntClass.V(["1/2"])
    e2 = express_via_chern(vh2, ctx)
    assert str(e2) == "rho^-1(rc1^2)"
    assert e2.lift_marker
    assert e2.expand_torsion_rho() == power(w(1), 4)

    with pytest.raises(NotComplexifiableError):
        express_via_chern(IntClass.V([1]), ctx)


def test_express_via_chern_signs():
    ctx = RingContext(degree_cap=40)
    # p2 has even index, so no sign flip; p1*p1 flips twice
    e = express_via_chern(IntClass.p(2), ctx)
    assert str(e) == "c4"
    e2 = express_via_chern(IntClass.p(1) * IntClass.p(1), ctx)
    assert str(e2) == "c2^2"
    e3 = express_via_chern(IntClass.p(1) * IntClass.p(2), ctx)
    assert str(e3) == "-c2*c4"
    for expr, cls in [
        (e, IntClass.p(2)),
        (e2, IntClass.p(1) * IntClass.p(1)),
        (e3, IntClass.p(1) * IntClass.p(2)),
    ]:
        assert expr.expand_free() == cls


def test_express_via_chern_reduces_once(monkeypatch):
    calls = []

    def counting_rho(*args):
        calls.append(args)
        return rho(*args)

    monkeypatch.setattr(complexifiability, "rho", counting_rho)
    ctx = RingContext(degree_cap=24)
    vh2 = IntClass.V(["1/2"]) * IntClass.V(["1/2"])
    for cl in (IntClass.p(1), vh2, IntClass.p(1) + vh2):
        calls.clear()
        express_via_chern(cl, ctx)
        assert len(calls) == 1, cl
    calls.clear()
    with pytest.raises(NotComplexifiableError, match="cannot express through Chern"):
        express_via_chern(IntClass.V([1]), ctx)
    assert len(calls) == 1


def random_pontrjagin(rng: random.Random, cap: int) -> IntClass:
    """A sum of up to five integer multiples of p-monomials of degree <= cap."""
    total = IntClass.zero()
    for _ in range(rng.randint(1, 5)):
        term = IntClass.integer(rng.choice([-5, -3, -2, -1, 1, 2, 3, 7]))
        budget = cap
        for _ in range(rng.randint(0, 3)):
            i = rng.randint(1, cap // 4)
            if 4 * i > budget:
                break
            term = term * IntClass.p(i)
            budget -= 4 * i
        total = total + term
    return total


def test_chern_text_round_trip():
    rng = random.Random(81)
    ctx = RingContext(degree_cap=24)
    for _ in range(300):
        P = random_pontrjagin(rng, 24)
        text = str(express_via_chern(P, ctx))
        assert parse(text, "chern").free == P, text


def test_theorem_2_and_3_random():
    rng = random.Random(55)
    ctx = RingContext(degree_cap=24)
    for _ in range(40):
        cl = random_integral_complexifiable(rng, 24)
        assert is_complexifiable_integral(cl, ctx)
        assert invariance_oracle(rho(cl, ctx), ctx)
        expr = express_via_chern(cl, ctx)
        assert expr.expand_free() == cl.free_part()
        assert expr.expand_torsion_rho(ctx) == rho(cl.torsion_part(), ctx)


def test_chern_and_squares_forms_are_frozen():
    sq = subring_decomposition(square(w(1)))
    chern = express_via_chern(IntClass.p(1), RingContext(24))
    with pytest.raises(FrozenInstanceError):
        sq.poly_in_u = w(2)
    with pytest.raises(FrozenInstanceError):
        chern.torsion = w(2)
    assert str(sq) == "u1" and str(chern) == "-c2"


def test_value_reprs_and_integral_subtraction():
    a = IntClass.p(1) + IntClass.integer(2) * IntClass.p(2) + IntClass.V(["1/2"])
    b = IntClass.integer(3) + IntClass.p(1) * IntClass.V([1])
    assert a - b == a + (-b)
    assert repr(b - a) == "IntClass(3 - p1 - 2*p2 + V{1/2} + p1*V{1})"
    assert repr(IndexSet.of("1/2", 3)) == "IndexSet.of('1/2', 3)"
    assert repr(subring_decomposition(square(w(1) * w(3)) + MPoly2.one())) == (
        "SquaresPoly(1 + u1*u3)")
    v = IntClass.V(IndexSet.of("1/2", 1))
    assert repr(express_via_chern(IntClass.p(1) + v * v, RingContext(24))) == (
        "ChernExpr(-c2 + rho^-1(rc1*rc3))")


def test_value_types_compare_by_their_fields():
    ctx = RingContext(24)
    pairs = [
        (w(1) * w(2), MPoly2(frozenset({((1, 1), (2, 1))}))),
        (IndexSet.of("1/2", 2), IndexSet([4, 1, 4])),
        (IntClass.V(["1/2"]) * IntClass.p(1), parse_integral("p1*V{1/2}")),
        (FormalBundle(MPoly2.one() + w(1), 1), FormalBundle(parse_mod2("w1 + 1"), 1)),
        (subring_decomposition(square(w(1) * w(3))), SquaresPoly(w(1) * w(3))),
        (express_via_chern(IntClass.p(1), ctx), ChernExpr(IntClass.p(1), MPoly2.zero())),
    ]
    for a, b in pairs:
        assert a is not b and a == b and hash(a) == hash(b), a
    for i, (a, _) in enumerate(pairs):
        for c, _ in pairs[i + 1:]:
            assert a != c and c != a
    x = w(1) * w(3)
    assert SquaresPoly(x) != x and MPoly2(x.monomials, "root") != x
    assert ChernExpr(IntClass.p(1), x) != IntClass(IntClass.p(1).free, x)
