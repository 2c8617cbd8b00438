"""Bundle calculus: Whitney sums, doubled bundles, the oracle ring, and the
splitting-principle cross-checks."""

import random
from dataclasses import FrozenInstanceError
from itertools import combinations

import pytest

from charclass import wring
from charclass.bundlecalc import (
    FormalBundle,
    cartan_restrict,
    chern_mod2,
    evaluate_class,
    fiber_bundle,
    pontrjagin_mod2,
    roots_bundle,
    sw,
    to_ext,
    trivial_bundle,
    underlying_of_complexification,
    universal_bundle,
    whitney_sum,
)
from charclass.complexifiability import _test_bundle
from charclass.errors import CapsTooSmallError, NamespaceMismatchError
from charclass.serialize import dumps, to_json_obj
from charclass.verify import random_mod2
from charclass.wring import (
    EXT,
    ROOT,
    SW,
    UNBOUNDED,
    MPoly2,
    RingContext,
    constant_term,
    ext_terms,
    mono_degree,
    mul,
    reduce_poly,
    square,
    v,
    w,
)


def elementary_symmetric(k: int, m: int) -> MPoly2:
    """Brute-force e_k(r_1..r_m), the independent splitting-principle value."""
    if k == 0:
        return MPoly2.one(ROOT)
    keys = frozenset(
        tuple((i, 1) for i in combo) for combo in combinations(range(1, m + 1), k)
    )
    return MPoly2(keys, ROOT)


def test_universal_bundle_examples():
    assert str(universal_bundle(RingContext(rank_cap=2)).total) == "1 + w1 + w2"
    assert str(universal_bundle(RingContext(rank_cap=1)).total) == "1 + w1"
    assert str(universal_bundle(RingContext(degree_cap=0)).total) == "1"
    with pytest.raises(CapsTooSmallError):
        universal_bundle(RingContext())


def test_trivial_bundle():
    eps = trivial_bundle()
    assert str(eps.total) == "1"
    assert sw(eps, 1).is_zero()
    ctx = RingContext(degree_cap=6)
    b = universal_bundle(ctx)
    assert whitney_sum(eps, b, ctx) == FormalBundle(b.total, b.rank_bound)
    c = random_mod2(random.Random(3), 6)
    value = evaluate_class(c, eps)
    assert value == (MPoly2.one() if constant_term(c) else MPoly2.zero())


def test_fiber_bundle_examples():
    ctx = RingContext(degree_cap=2)
    f = fiber_bundle(ctx)
    assert str(f.total) == "1 + v1 + v2"
    big = RingContext(degree_cap=14)
    doubled = underlying_of_complexification(fiber_bundle(big), big)
    assert doubled.total == MPoly2.one(EXT)
    # setting every v_i to zero leaves the constant 1
    assert [wk for vs, wk in ext_terms(fiber_bundle(big).total) if not vs] == [()]
    with pytest.raises(CapsTooSmallError):
        fiber_bundle(RingContext())


def test_whitney_sum_commutative_associative_unit():
    ctx = RingContext(degree_cap=8)
    a = universal_bundle(ctx)
    b = roots_bundle(3, ctx)
    with pytest.raises(NamespaceMismatchError):
        whitney_sum(a, b, ctx)  # roots and sw generators are different worlds
    f = fiber_bundle(ctx)
    assert whitney_sum(a, f, ctx).total == whitney_sum(f, a, ctx).total
    aa = whitney_sum(a, a, ctx)
    assert sw(aa, 1).is_zero()  # 2 w1 = 0
    left = whitney_sum(whitney_sum(f, a, ctx), a, ctx)
    right = whitney_sum(f, whitney_sum(a, a, ctx), ctx)
    assert left.total == right.total


def test_doubled_bundle_squares():
    ctx = RingContext(degree_cap=24, rank_cap=12)
    u = universal_bundle(ctx)
    uu = underlying_of_complexification(u, ctx)
    for n in range(1, 13):
        assert sw(uu, 2 * n) == square(sw(u, n), ctx)
        assert sw(uu, 2 * n + 1).is_zero()
    assert uu.rank_bound == 24


def test_chern_and_pontrjagin_mod2():
    ctx = RingContext(degree_cap=20)
    u = universal_bundle(ctx)
    assert chern_mod2(u, 1, ctx) == square(w(1))
    assert chern_mod2(u, 2, ctx) == square(w(2))
    assert pontrjagin_mod2(u, 1, ctx) == square(w(2))
    assert pontrjagin_mod2(u, 2, ctx) == square(w(4))
    eps = trivial_bundle()
    for k in (1, 2, 3):
        assert chern_mod2(eps, k, ctx).is_zero()
        assert pontrjagin_mod2(eps, k, ctx).is_zero()


def test_evaluate_class_examples():
    ctx = RingContext(degree_cap=8)
    u = universal_bundle(ctx)
    assert evaluate_class(square(w(2)), u, ctx) == square(w(2))
    f = fiber_bundle(ctx)
    assert evaluate_class(w(1), f, ctx) == v(1)
    with pytest.raises(NamespaceMismatchError):
        evaluate_class(MPoly2.gen(1, ROOT), u, ctx)


def test_cartan_restrict_examples():
    assert cartan_restrict(square(w(1))).is_zero()
    assert cartan_restrict(w(1) * w(2)) == mul(v(1), v(2))
    assert cartan_restrict(square(w(1)) * w(3) + w(2)) == v(2)


def test_cartan_restrict_is_ring_hom():
    rng = random.Random(31)
    for _ in range(50):
        a = random_mod2(rng, 10)
        b = random_mod2(rng, 10)
        assert cartan_restrict(a + b) == cartan_restrict(a) + cartan_restrict(b)
        assert cartan_restrict(a * b) == mul(cartan_restrict(a), cartan_restrict(b))


def test_cartan_kernel_characterization():
    rng = random.Random(32)
    for _ in range(50):
        a = random_mod2(rng, 12)
        in_kernel = cartan_restrict(a).is_zero()
        every_monomial_squared = all(
            any(e >= 2 for _, e in key) for key in a.monomials if key
        ) and constant_term(a) == 0
        assert in_kernel == every_monomial_squared


def test_oracle_ring_values_are_plain_mpoly2():
    ctx = RingContext(degree_cap=6)
    fiber = fiber_bundle(ctx)
    universal = universal_bundle(ctx)
    for value in (
        fiber.total,
        cartan_restrict(w(1)),
        whitney_sum(fiber, universal, ctx).total,
        evaluate_class(w(1) * w(2) + square(w(2)), fiber, ctx),
    ):
        assert type(value) is MPoly2
        assert value.namespace == EXT
    with pytest.raises(ValueError, match="exterior generator index must be positive"):
        v(0)
    with pytest.raises(NamespaceMismatchError,
                       match="only sw polynomials embed into the oracle ring"):
        to_ext(MPoly2.gen(1, ROOT))
    v2 = v(2)
    assert to_ext(v2) is v2  # ext values pass through
    assert to_ext(w(2)) == MPoly2(w(2).monomials, EXT)


def test_exterior_generators_square_to_zero():
    v1 = v(1)
    assert mul(v1, v1).is_zero()
    prod = mul(v(2), v(3))
    assert not prod.is_zero()
    assert mul(prod, v(2)).is_zero()


def test_roots_bundle_examples():
    b = roots_bundle(2)
    e1 = elementary_symmetric(1, 2)
    e2 = elementary_symmetric(2, 2)
    assert b.total == MPoly2.one(ROOT) + e1 + e2
    doubled = underlying_of_complexification(b)
    assert sw(doubled, 2) == square(e1)
    assert sw(roots_bundle(1), 2).is_zero()


def test_roots_classes_are_elementary_symmetric():
    for m in (2, 3, 5):
        b = roots_bundle(m)
        for k in range(m + 2):
            assert sw(b, k) == elementary_symmetric(k, m) if k <= m else sw(b, k).is_zero()


def test_root_oracle_agreement():
    rng = random.Random(33)
    for m in (2, 3, 4, 6):
        b = roots_bundle(m)
        for _ in range(8):
            c = random_mod2(rng, 8)
            truncated = reduce_poly(c, RingContext(rank_cap=m))
            assert evaluate_class(c, b) == evaluate_class(truncated, b)


def test_whitney_square_on_roots_matches_universal():
    # the same identity w_{2k}(xi + xi) = w_k(xi)^2, checked through the
    # independent root expansion prod(1 + r_i^2)
    m = 5
    b = roots_bundle(m)
    doubled = underlying_of_complexification(b)
    expected_total = MPoly2.one(ROOT)
    for i in range(1, m + 1):
        expected_total = mul(
            expected_total,
            MPoly2.one(ROOT) + square(MPoly2.gen(i, ROOT)),
        )
    assert doubled.total == expected_total
    for k in range(1, m + 1):
        assert sw(doubled, 2 * k) == square(elementary_symmetric(k, m))
        assert sw(doubled, 2 * k - 1).is_zero()


def test_formal_bundle_validation():
    with pytest.raises(ValueError):
        FormalBundle(w(1))  # constant term 0
    with pytest.raises(TypeError):
        FormalBundle("1 + w1")


def test_rank_bound_validation():
    total = MPoly2.one() + w(1)
    for bad in (1.5, "3", -1):
        with pytest.raises(ValueError):
            FormalBundle(total, bad)
    assert FormalBundle(total, 0).rank_bound == 0
    assert FormalBundle(total).rank_bound is None


def test_rank_bound_reads_zero_above():
    b = FormalBundle(MPoly2.one() + w(1) + w(2), rank_bound=2)
    assert sw(b, 3).is_zero()
    assert whitney_sum(b, b).rank_bound == 4
    assert underlying_of_complexification(b).rank_bound == 4


def test_ext_poly_printing():
    ctx = RingContext(degree_cap=3)
    fg = whitney_sum(fiber_bundle(ctx), universal_bundle(ctx), ctx)
    assert str(sw(fg, 2)) == "w2 + v1*w1 + v2"


def test_oracle_ring_text_and_json_pinned():
    ctx = RingContext(degree_cap=4)
    fg = whitney_sum(fiber_bundle(ctx), universal_bundle(ctx), ctx)
    assert [str(sw(fg, k)) for k in (2, 3, 4)] == [
        "w2 + v1*w1 + v2",
        "w3 + v1*w2 + v2*w1 + v3",
        "w4 + v1*w3 + v2*w2 + v3*w1 + v4",
    ]
    assert dumps(sw(fg, 3)) == (
        '{"type":"ext","monomials":[{"nu":[],"w":[[3,1]]},'
        '{"nu":[1],"w":[[2,1]]},{"nu":[2],"w":[[1,1]]},{"nu":[3],"w":[]}]}'
    )
    # within a degree, v-sets order by bit mask: v1*v2 (6) before v3 (8),
    # and v2*v4 (20) before v1*v5 (34)
    c = w(1) * w(2) * w(3) + w(1) * w(5) + w(6) + w(2) * w(4)
    assert str(cartan_restrict(c)) == "v1*v2*v3 + v2*v4 + v1*v5 + v6"
    assert dumps(cartan_restrict(c)) == (
        '{"type":"ext","monomials":[{"nu":[1,2,3],"w":[]},{"nu":[2,4],"w":[]},'
        '{"nu":[1,5],"w":[]},{"nu":[6],"w":[]}]}'
    )
    assert str(cartan_restrict(square(w(1)) * w(2) + w(4))) == "v4"
    wide = RingContext(degree_cap=5)
    fg5 = whitney_sum(fiber_bundle(wide), universal_bundle(wide), wide)
    value = evaluate_class(w(2) * w(3), fg5, wide)
    assert str(value) == (
        "w2*w3 + v1*w1*w3 + v1*w2^2 + v2*w1*w2 + v2*w3 + v1*v2*w1^2"
        " + v1*v2*w2 + v3*w2 + v1*v3*w1 + v2*v3"
    )
    assert dumps(value) == (
        '{"type":"ext","monomials":[{"nu":[],"w":[[2,1],[3,1]]},'
        '{"nu":[1],"w":[[1,1],[3,1]]},{"nu":[1],"w":[[2,2]]},'
        '{"nu":[2],"w":[[1,1],[2,1]]},{"nu":[2],"w":[[3,1]]},'
        '{"nu":[1,2],"w":[[1,2]]},{"nu":[1,2],"w":[[2,1]]},'
        '{"nu":[3],"w":[[2,1]]},{"nu":[1,3],"w":[[1,1]]},{"nu":[2,3],"w":[]}]}'
    )
    assert dumps(fiber_bundle(RingContext(degree_cap=2))) == (
        '{"type":"bundle","total":{"type":"ext","monomials":[{"nu":[],"w":[]},'
        '{"nu":[1],"w":[]},{"nu":[2],"w":[]}]},"rank_bound":null}'
    )


def _random_ext_terms(rng, count):
    """Random oracle-ring terms as (v-set, {w index: exponent}) pairs."""
    terms = {}
    for _ in range(count):
        vs = frozenset(rng.sample(range(1, 7), rng.randint(0, 3)))
        ws = {i: rng.randint(1, 3) for i in rng.sample(range(1, 6), rng.randint(0, 2))}
        key = (vs, tuple(sorted(ws.items())))
        terms[key] = not terms.get(key, False)
    return [key for key, present in terms.items() if present]


def _ext_value(terms):
    out = MPoly2.zero(EXT)
    for vs, wk in terms:
        term = to_ext(MPoly2(frozenset({wk})))
        for i in vs:
            term = mul(term, v(i))
        out = out + term
    return out


def _ext_terms_of(value):
    return {
        (frozenset(m["nu"]), tuple((i, e) for i, e in m["w"]))
        for m in to_json_obj(value)["monomials"]
    }


def _brute_ext_product(ta, tb, degree_cap, rank_cap):
    out = set()
    for va, wa in ta:
        for vb, wb in tb:
            if va & vb:
                continue  # v_i * v_i = 0
            exps = dict(wa)
            for i, e in wb:
                exps[i] = exps.get(i, 0) + e
            degree = sum(va | vb) + sum(i * e for i, e in exps.items())
            if degree_cap is not None and degree > degree_cap:
                continue
            if rank_cap is not None and any(i > rank_cap for i in exps):
                continue
            out ^= {(va | vb, tuple(sorted(exps.items())))}
    return out


def test_ext_mul_matches_brute_force():
    rng = random.Random(34)
    for degree_cap, rank_cap in ((None, None), (9, None), (None, 3)):
        ctx = RingContext(degree_cap, rank_cap)
        for _ in range(40):
            ta = _random_ext_terms(rng, rng.randint(0, 8))
            tb = _random_ext_terms(rng, rng.randint(0, 8))
            got = mul(_ext_value(ta), _ext_value(tb), ctx)
            assert _ext_terms_of(got) == _brute_ext_product(ta, tb, degree_cap, rank_cap)


def _with_unit(total):
    return total if constant_term(total) else total + MPoly2.one(total.namespace)


def _seeded_totals(rng):
    """Total classes in each namespace: sw, root (the same keys read with
    degree-1 variables) and ext."""
    for _ in range(6):
        c = random_mod2(rng, 14, max_terms=10)
        yield _with_unit(c)
        yield _with_unit(MPoly2(c.monomials, ROOT))
        yield _with_unit(_ext_value(_random_ext_terms(rng, 10)))


def test_sw_reads_degree_buckets():
    rng = random.Random(35)
    seen = set()
    for total in _seeded_totals(rng):
        seen.add(total.namespace)
        top = total.degree()
        for bound in (None, rng.randint(0, top)):
            b = FormalBundle(total, bound)
            for k in range(top + 3):
                got = sw(b, k)
                assert got.namespace == total.namespace
                if bound is not None and k > bound:
                    assert got.is_zero()
                else:
                    assert got.monomials == {
                        m for m in total.monomials
                        if mono_degree(m, total.namespace) == k
                    }
            assert b.total is total
    assert seen == {SW, ROOT, EXT}


def test_graded_bundle_equals_fresh_one():
    rng = random.Random(36)
    for total in _seeded_totals(rng):
        graded = FormalBundle(total, 3)
        for k in range(total.degree() + 1):
            sw(graded, k)
        evaluate_class(w(1) ** 2 * w(3), graded, RingContext(6))
        assert graded._powers
        fresh = FormalBundle(total, 3)
        assert graded == fresh and fresh == graded
        assert hash(graded) == hash(fresh)
        assert repr(graded) == repr(fresh)
        assert dumps(graded) == dumps(fresh)


def test_bundle_is_built_whole():
    b = universal_bundle(RingContext(4))
    for name, value in [("total", MPoly2.one()), ("rank_bound", 2), ("_grades", {}),
                        ("_powers", {})]:
        with pytest.raises(FrozenInstanceError):
            setattr(b, name, value)
    assert sw(b, 2) == w(2) and str(b.total) == "1 + w1 + w2 + w3 + w4"


@pytest.mark.parametrize("cap", [None, 3, 5])
def test_roots_total_is_the_product_of_its_factors(cap):
    ctx = RingContext(degree_cap=cap)
    for m in range(1, 9):
        total = MPoly2.one(ROOT)
        for i in range(1, m + 1):
            total = mul(total, MPoly2.one(ROOT) + MPoly2.gen(i, ROOT), ctx)
        assert roots_bundle(m, ctx).total == total, m


# Degree caps 12 and 8, a rank cap and no cap, taken in turn on one bundle.
_MEMO_CONTEXTS = (RingContext(12), RingContext(8), RingContext(rank_cap=4), UNBOUNDED)
_MEMO_BUNDLES = {
    "universal": lambda: universal_bundle(RingContext(12)),
    "fiber": lambda: fiber_bundle(RingContext(12)),
    "roots": lambda: roots_bundle(6),
    "test": lambda: _test_bundle.__wrapped__(12),
}


@pytest.mark.parametrize("name", sorted(_MEMO_BUNDLES))
def test_power_memo_never_changes_an_answer(name):
    """Classes evaluated on one bundle under alternating contexts, so its
    powers are built and reused under each, equal the same classes
    evaluated on a freshly built bundle; some exponents pass the caps.
    Only a degree cap bounds the powers, so only capped contexts keep them."""
    build = _MEMO_BUNDLES[name]
    shared = _test_bundle(12) if name == "test" else build()
    rng = random.Random(37)
    classes = [random_mod2(rng, 16, max_terms=8) for _ in range(10)]
    classes.append(MPoly2(frozenset(
        {((1, 13),), ((2, 7),), ((1, 3), (3, 4)), ((2, 2), (5, 1)), ((4, 3),)}
    ), SW))
    for c in classes:
        for ctx in _MEMO_CONTEXTS:
            got, want = evaluate_class(c, shared, ctx), evaluate_class(c, build(), ctx)
            assert got == want and dumps(got) == dumps(want), (c, ctx)
    capped = {ctx for ctx in _MEMO_CONTEXTS if ctx.degree_cap is not None}
    assert capped <= set(shared._powers)
    assert all(ctx.degree_cap is not None for ctx in shared._powers)


def test_power_memo_builds_each_power_once_per_context(monkeypatch):
    calls = []
    real = wring.power

    def counting(a, e, ctx=UNBOUNDED):
        calls.append(e)
        return real(a, e, ctx)

    c = w(1) ** 3 * w(2) + w(3) ** 2 + w(1) * w(5)
    heads = w(1) * w(2) * w(3) * w(4) + w(5) ** 5 + w(2) ** 3 * w(7)
    monkeypatch.setattr(wring, "power", counting)
    b, ctx = _test_bundle.__wrapped__(12), RingContext(12)
    first = evaluate_class(c, b, ctx)
    assert len(calls) == 5  # one per distinct (i, e)
    calls.clear()
    assert evaluate_class(c, b, ctx) == first and calls == []
    evaluate_class(c, b, RingContext(8))
    assert len(calls) == 5 and set(b._powers) == {ctx, RingContext(8)}

    # every w_i^e under degree cap 24 fills the memo to its bound
    t, ctx = _test_bundle(24), RingContext(24)
    for i in range(1, 25):
        for e in range(1, 24 // i + 1):
            evaluate_class(MPoly2(frozenset({((i, e),)}), SW), t, ctx)
    bound = sum(24 // i for i in range(1, 25))
    assert bound == 84 and len(t._powers[ctx]) == bound
    # multi-factor heads and exponents past the cap add no entries
    calls.clear()
    rng = random.Random(38)
    for _ in range(20):
        evaluate_class(random_mod2(rng, 30, max_terms=8), t, ctx)
    evaluate_class(heads, t, ctx)
    assert calls == [] and len(t._powers[ctx]) == bound
