"""Feshbach presentation: index sets, the formal integral ring, rho, and the
six relation families."""

import json
import random
from itertools import combinations
from typing import Iterable

import pytest

from charclass import feshbach
from charclass.errors import CapsTooSmallError, InvalidIndexSetError
from charclass.expr import parse_integral
from charclass.feshbach import (
    HALF,
    IndexSet,
    IntClass,
    _convention,
    _min_rank,
    _relation_cases,
    _tor_term,
    _torsion_sum,
    _valid_index_sets,
    int_add,
    int_mul,
    relation,
    relation_report,
    rho,
    torsion_equal,
    verify_relations,
)
from charclass.report import Report
from charclass.serialize import dumps, loads
from charclass.steenrod import sq1
from charclass.verify import random_integral_complexifiable, suite_relations
from charclass.wring import (
    SW,
    Hom,
    MPoly2,
    RingContext,
    mask_doubled,
    mono_degree,
    mul,
    reduce_poly,
    square,
    v_mask,
    w,
)


def test_doubled_encoding():
    assert IndexSet.of("1/2").doubled == (1,)
    assert IndexSet.of(HALF).doubled == (1,)
    assert IndexSet.of(1).doubled == (2,)
    assert IndexSet.of(3, "1/2", 1).doubled == (1, 2, 6)
    with pytest.raises(InvalidIndexSetError):
        IndexSet.of()
    with pytest.raises(InvalidIndexSetError):
        IndexSet([3])  # doubled 3 encodes 3/2, not a legal index
    with pytest.raises(InvalidIndexSetError):
        IndexSet.of(0)
    # digit strings, other fractions, floats and bools are refused
    for index in ("12", "\u0663", " 2 ", " 1/2", True, 2.0, 0.5, HALF * 4):
        with pytest.raises(InvalidIndexSetError, match="cannot read index"):
            IndexSet.of(index)


def test_v_index_limit():
    from charclass.feshbach import MAX_V_INDEX

    assert IndexSet.of(MAX_V_INDEX).doubled == (2 * MAX_V_INDEX,)
    for index in (MAX_V_INDEX + 1, 10**11):  # refused before any V mask exists
        with pytest.raises(InvalidIndexSetError, match="above the limit"):
            IndexSet.of(index)
    blob = '{"type":"integral","free":[],"torsion":[{"p":[],"V":[[[%d],1]]}]}'
    assert loads(blob % (2 * MAX_V_INDEX)) == IntClass.V([MAX_V_INDEX])
    for doubled in (2 * MAX_V_INDEX + 2, 40000000):
        with pytest.raises(ValueError):
            loads(blob % doubled)


def test_index_set_degree():
    assert IndexSet.of("1/2").degree() == 2
    assert IndexSet.of(2).degree() == 5
    assert IndexSet.of("1/2", 1, 2).degree() == 8  # 1 + (1 + 2 + 4)


def test_validity_at_rank():
    assert IndexSet.of(1).valid_at(2)
    assert not IndexSet.of(2).valid_at(2)  # k=2 needs 0 < k < 3/2
    assert IndexSet.of(2).valid_at(4)
    assert not IndexSet.of("1/2", 2).valid_at(4)  # both 1/2 and n/2
    assert IndexSet.of("1/2", 2).valid_at(5)
    assert IndexSet.of("1/2", 2).valid_at(None)
    assert IndexSet.of("1/2").valid_at(1)


def _literally_valid(ds, n: int) -> bool:
    """Rank-n validity of the doubled indices ds as the feshbach module
    docstring states it: every integer index k has 0 < k < (n+1)/2, and
    for n > 1 the set does not hold both 1/2 and n/2 (doubled n)."""
    if not all(0 < d // 2 < (n + 1) / 2 for d in ds if d != 1):
        return False
    return not (n > 1 and 1 in ds and n in ds)


def test_min_rank_matches_the_literal_rule():
    # every subset of {1/2, 1, ..., 20} of size <= 4 at ranks 0..44: a set
    # is valid at exactly the ranks from its lowest one up
    pool = [1] + list(range(2, 41, 2))
    for size in range(1, 5):
        for ds in combinations(pool, size):
            low = _min_rank(v_mask(ds))
            for n in range(45):
                assert (n >= low) == _literally_valid(ds, n), (ds, n)


def test_every_set_is_invalid_at_a_negative_rank():
    half = IndexSet.of("1/2")
    for I in (half, IndexSet.of(1), IndexSet.of("1/2", 1)):
        assert not I.valid_at(-1)
    with pytest.raises(InvalidIndexSetError):
        relation(1, half, n=-1)
    with pytest.raises(InvalidIndexSetError):
        int_mul(IntClass.V(half), IntClass.V(half), n=-3)
    with pytest.raises(ValueError, match="rank_cap must be a nonnegative integer"):
        verify_relations(-1, 24)
    with pytest.raises(ValueError, match="rank_cap must be a nonnegative integer"):
        verify_relations(2.5, 24)  # refused before the sweep table is read


def test_relation_sweep_refuses_a_missing_cap():
    with pytest.raises(ValueError, match="needs a rank cap"):
        verify_relations(None, 24)
    with pytest.raises(ValueError, match="needs a degree cap"):
        verify_relations(4, None)


def test_two_torsion_built_in():
    v = IntClass.V(["1/2"])
    assert int_add(v, v).is_zero()
    p1 = IntClass.p(1)
    assert str(int_add(p1, p1)) == "2*p1"
    assert int_add(int_add(p1, v), v) == p1


def test_formal_products():
    p1v = int_mul(IntClass.p(1), IntClass.V([1]))
    assert str(p1v) == "p1*V{1}"
    doubled = int_mul(IntClass.integer(2), IntClass.V([1]))
    assert doubled.is_zero()
    sq = int_mul(IntClass.V([1]), IntClass.V([1]))
    assert str(sq) == "V{1}^2"


def test_int_mul_validates_rank():
    with pytest.raises(InvalidIndexSetError):
        int_mul(IntClass.V([2]), IntClass.p(1), n=2)
    with pytest.raises(InvalidIndexSetError):
        int_mul(IntClass.V(["1/2", 2]), IntClass.p(1), n=4)  # both 1/2 and n/2
    assert int_mul(IntClass.V(["1/2", 2]), IntClass.p(1), n=5)


def test_int_mul_refuses_exactly_the_index_sets_invalid_at_the_rank():
    pool = (1, 2, 4, 6, 8, 10, 12)  # doubled 1/2, 1, ..., 6
    for size in range(1, len(pool) + 1):
        for ds in combinations(pool, size):
            I = IndexSet(ds)
            for r in range(13):
                ctx = RingContext(None, r)
                calls = (lambda: int_mul(IntClass.V(I), IntClass.p(1), n=r),
                         lambda: rho(IntClass.V(I), ctx),
                         lambda: int_mul(IntClass.V(I), IntClass.p(1), ctx=ctx))
                if I.valid_at(r):
                    for call in calls:
                        call()
                    continue
                with pytest.raises(InvalidIndexSetError) as expected:
                    I.require_valid_at(r)
                for call in calls:
                    with pytest.raises(InvalidIndexSetError) as refused:
                        call()
                    assert str(refused.value) == str(expected.value)
    # two invalid sets: the refusal names the first in doubled order
    two = int_mul(IntClass.V([4]), IntClass.V(["1/2", 3]))
    for call in (lambda: int_mul(two, IntClass.p(1), n=6),
                 lambda: rho(two, RingContext(None, 6)),
                 lambda: int_mul(two, IntClass.p(1), ctx=RingContext(None, 6))):
        with pytest.raises(InvalidIndexSetError) as refused:
            call()
        assert str(refused.value) == "index set {1/2,3} is not valid at rank 6"


def test_rho_on_generators():
    assert rho(IntClass.V(["1/2"])) == square(w(1))
    assert rho(IntClass.V([1])) == w(1) * w(2) + w(3)
    assert rho(IntClass.p(1)) == square(w(2))
    assert rho(IntClass.p(2)) == square(w(4))
    assert rho(IntClass.integer(3)) == MPoly2.one()
    assert rho(IntClass.integer(2)).is_zero()


def test_rho_matches_sq1_of_even_class_product():
    for doubled in [(1,), (2,), (1, 4), (2, 4, 6)]:
        iset = IndexSet(doubled)
        base = MPoly2(frozenset({tuple((d, 1) for d in doubled)}))
        assert rho(IntClass.V(iset)) == sq1(base)


def test_rho_is_ring_hom():
    rng = random.Random(41)
    samples = [_random_intclass(rng) for _ in range(30)]
    ctx = RingContext(degree_cap=40)
    for a, b in zip(samples, samples[1:]):
        assert rho(int_add(a, b), ctx) == rho(a, ctx) + rho(b, ctx)
        assert rho(int_mul(a, b, ctx=ctx), ctx) == mul(rho(a, ctx), rho(b, ctx), ctx)


def _random_intclass(rng) -> IntClass:
    out = IntClass.zero()
    for _ in range(rng.randint(1, 3)):
        term = IntClass.integer(rng.randint(-2, 3))
        for _ in range(rng.randint(0, 2)):
            if rng.random() < 0.5:
                term = int_mul(term, IntClass.p(rng.randint(1, 3)))
            else:
                pool = [1, 2, 4]
                size = rng.randint(1, 2)
                term = int_mul(term, IntClass.V(IndexSet(rng.sample(pool, size))))
        out = int_add(out, term)
    return out


def test_intclass_power_is_the_repeated_product():
    rng = random.Random(43)
    samples = [x for x in (_random_intclass(rng) for _ in range(60))
               if x.free and x.torsion][:6]
    assert len(samples) == 6
    for x in samples:
        product = IntClass.integer(1)
        for e in range(10):
            assert x ** e == product
            product = int_mul(product, x)


def test_rho_homogeneity():
    for doubled in [(1,), (2,), (4,), (1, 2), (2, 6), (1, 4, 6)]:
        iset = IndexSet(doubled)
        image = rho(IntClass.V(iset))
        assert not image.is_zero()
        assert {mono_degree(k) for k in image.monomials} == {iset.degree()}


def test_rho_structure_without_half():
    # for I free of the half index, Leibniz gives one w_{2i} -> w_{2i+1}
    # shift per element, plus the monomial w1 * prod w_{2i} once per element
    # (so it survives exactly when |I| is odd)
    for doubled in [(2,), (2, 6), (2, 4, 8)]:
        image = rho(IntClass.V(IndexSet(doubled)))
        base = {d: 1 for d in doubled}
        expected = set()
        if len(doubled) % 2:
            expected.add(tuple(sorted({1: 1, **base}.items())))
        for d in doubled:
            shifted = dict(base)
            del shifted[d]
            shifted[d + 1] = shifted.get(d + 1, 0) + 1
            expected.add(tuple(sorted(shifted.items())))
        assert image.monomials == frozenset(expected)


def test_torsion_equal_relation6_instance():
    a = int_mul(IntClass.V(["1/2"]), IntClass.p(1))
    b = int_mul(IntClass.V([1]), IntClass.V([1]))
    assert torsion_equal(a, b, RingContext(degree_cap=12, rank_cap=2))
    assert not torsion_equal(a, b, RingContext(degree_cap=12))  # stably distinct


def test_torsion_equal_basics():
    assert not torsion_equal(IntClass.V([1]), IntClass.V([2]), RingContext(20))
    x = int_add(IntClass.p(2), IntClass.V([1]))
    assert torsion_equal(x, x, RingContext(20))
    assert not torsion_equal(IntClass.p(1), IntClass.p(2), RingContext(20))


def test_torsion_equal_refuses_small_caps():
    with pytest.raises(CapsTooSmallError):
        torsion_equal(IntClass.V([3]), IntClass.V([3]), RingContext(degree_cap=4))


def test_torsion_equal_validates_rank():
    with pytest.raises(InvalidIndexSetError):
        torsion_equal(
            IntClass.V([3]), IntClass.V([3]), RingContext(degree_cap=20, rank_cap=2)
        )


def test_torsion_equal_runs_rho_once(monkeypatch):
    """One rho of the sum of the torsion parts decides a comparison."""
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    real = feshbach._rho
    monkeypatch.setattr(feshbach, "_rho", counted)
    ctx = RingContext(degree_cap=40, rank_cap=8)
    rng = random.Random(44)
    outcomes = set()
    for _ in range(10):
        x = _random_intclass(rng)
        other = int_add(x.free_part(), _random_intclass(rng).torsion_part())
        for y in (x, other, int_add(x, relation(6, n=8))):
            expected = rho(x, ctx) == rho(y, ctx)  # free parts agree
            before = len(calls)
            assert torsion_equal(x, y, ctx) == expected
            assert len(calls) == before + 1
            outcomes.add(expected)
    assert outcomes == {True, False}


def test_torsion_equal_refusal_names_first_invalid_set():
    """Both classes pass the rank gate, the left one first, before rho."""
    ctx = RingContext(degree_cap=20, rank_cap=2)
    v1, v2, v3 = IntClass.V([1]), IntClass.V([2]), IntClass.V([3])
    for a, b, named in ((v3, v2, "{3}"), (v2, v3, "{2}"), (v1, v3, "{3}")):
        with pytest.raises(InvalidIndexSetError) as err:
            torsion_equal(a, b, ctx)
        assert str(err.value) == f"index set {named} is not valid at rank 2"


def test_torsion_equal_is_an_equivalence():
    rng = random.Random(43)
    ctx = RingContext(degree_cap=40, rank_cap=8)
    samples = [_random_intclass(rng) for _ in range(12)]
    for x in samples:
        assert torsion_equal(x, x, ctx)
    for x in samples:
        for y in samples:
            assert torsion_equal(x, y, ctx) == torsion_equal(y, x, ctx)
    for x in samples:
        for y in samples:
            for z in samples:
                if torsion_equal(x, y, ctx) and torsion_equal(y, z, ctx):
                    assert torsion_equal(x, z, ctx)


def test_torsion_equal_invariant_under_relations():
    rng = random.Random(42)
    ctx = RingContext(degree_cap=40, rank_cap=8)
    lhss = [
        relation(2, IndexSet.of("1/2", 1), IndexSet.of("1/2", 2), n=8),
        relation(5, IndexSet.of("1/2", 1, 2), n=8),
        relation(6, n=8),
    ]
    for _ in range(10):
        x = _random_intclass(rng)
        for lhs in lhss:
            assert torsion_equal(x, int_add(x, lhs), ctx)


def test_int_ring_axioms_random():
    rng = random.Random(44)
    samples = [_random_intclass(rng) for _ in range(12)]
    zero = IntClass.zero()
    one = IntClass.integer(1)
    for a in samples:
        assert int_add(a, zero) == a
        assert int_mul(a, one) == a
        assert not int_add(a, a.negate()).torsion_part()
        assert not int_add(a, a.negate()).free
    for a, b in zip(samples, samples[1:]):
        assert int_add(a, b) == int_add(b, a)
        assert int_mul(a, b) == int_mul(b, a)
    for a, b, c in zip(samples, samples[1:], samples[2:]):
        assert int_mul(int_mul(a, b), c) == int_mul(a, int_mul(b, c))
        assert int_mul(a, int_add(b, c)) == int_add(int_mul(a, b), int_mul(a, c))


def test_relation_side_conditions():
    with pytest.raises(ValueError):
        relation(2, IndexSet.of(1), IndexSet.of(1, 2), n=8)  # |I| must exceed 1
    with pytest.raises(ValueError):
        relation(3, IndexSet.of(1, 2), IndexSet.of(1, 2), n=8)  # not proper
    with pytest.raises(ValueError):
        relation(4, IndexSet.of(1, 2), IndexSet.of(2, 3), n=8)  # not disjoint
    with pytest.raises(ValueError):
        relation(4, IndexSet.of(2, 3), IndexSet.of("1/2", 1), n=8)  # tie rule
    with pytest.raises(ValueError):
        relation(6, n=5)  # odd rank
    with pytest.raises(ValueError):
        relation(7, IndexSet.of(1, 2))


def test_relation_trivial_cases():
    assert relation(1, IndexSet.of(2, 3)).is_zero()
    assert relation(5, IndexSet.of(1, 2), n=8).is_zero()  # V_a V_b + V_b V_a


def test_relation6_example():
    lhs = relation(6, n=2)
    assert str(lhs) == "V{1}^2 + p1*V{1/2}"
    assert rho(lhs, RingContext(12, 2)).is_zero()
    assert rho(lhs, RingContext(12)) == square(w(3))


def test_verify_relations_small_ranks():
    assert verify_relations(2, 12).ok()
    assert verify_relations(3, 16).ok()
    tiny = verify_relations(2, 4)  # cap below every relation degree
    assert not tiny.cases


def test_verify_relations_sweep():
    for n in range(2, 9):
        report = verify_relations(n, 24)
        assert report.ok(), str(report)


def test_sweep_cases_match_relation():
    # every left-hand side the sweep checks at ranks 2..16, odd ranks and
    # convention splits included, against the public relation(): the sweep
    # builds it at the case's split rank and reads the stable one elsewhere
    ranks = list(range(2, 17))
    checked = list(feshbach._sweep(ranks, 24))
    report = relation_report("sweep", ranks, 24)
    assert [(case_id, params) for case_id, params, *_ in checked] == [
        (case.id, case.params) for case in report.cases
    ]
    sets = {str(s): s for s in _valid_index_sets(16, 24)}
    for _, params, lhs, _ in checked:
        I, J = sets.get(params.get("I")), sets.get(params.get("J"))
        assert lhs == relation(params["relation"], I, J, params["n"]), params
    # both kinds occur: cases whose split rank is swept, and stable cases
    cases = list(_relation_cases(16, 24))
    assert any(low <= split for low, split, *_ in cases)
    assert any(split < low for low, split, *_ in cases)


def test_relation6_case_exactly_where_relation_accepts():
    for n in range(13):
        accepts = not isinstance(_outcome(relation, 6, None, None, n), tuple)
        ids = [case.id for case in verify_relations(n, 24).cases]
        assert (f"rel6[n={n}]" in ids) == (accepts and 2 + 2 * n <= 24), n
        assert sum(i.startswith("rel6") for i in ids) <= 1


@pytest.mark.parametrize("cap", [12, 16])
def test_sweep_case_ids_match_brute_force(cap):
    # the complete case list of each rank, in report order, from the literal
    # validity rule and the reference route's side conditions
    for n in range(2, 13):
        pool = [1] + list(range(2, n + 3, 2))  # one index past the valid ones
        sets = [IndexSet(c) for size in range(1, len(pool) + 1)
                for c in combinations(pool, size)
                if _literally_valid(c, n) and IndexSet(c).degree() <= cap]
        sets.sort(key=lambda s: (s.degree(), s.doubled))
        want = []
        for I in sets:
            if len(I.doubled) <= 1:
                continue
            for J in sets:
                if I.degree() + J.degree() > cap:
                    continue
                for k in (2, 3, 4):
                    if k == 2 and len(I.doubled) == len(J.doubled) and I.doubled > J.doubled:
                        continue  # family 2 is symmetric: one of I, J and J, I
                    if not isinstance(_outcome(_reference_relation, k, I, J, n), tuple):
                        want.append(f"rel{k}[n={n},I={I},J={J}]")
            if I.degree() + 1 <= cap:
                want.append(f"rel5[n={n},I={I}]")
        if not isinstance(_outcome(relation, 6, None, None, n), tuple) and 2 + 2 * n <= cap:
            want.append(f"rel6[n={n}]")
        assert [case.id for case in verify_relations(n, cap).cases] == want, n


@pytest.mark.parametrize("cap", [16, 24])
def test_suite_relations_matches_unshared_ranks(cap):
    # the suite sweeps every rank in one call; each rank alone is one call
    # of its own, reading the cases and images the earlier ones left
    got = suite_relations(20, cap)
    want = Report(got.suite)
    for n in range(2, 21):
        want.extend(verify_relations(n, cap))
    assert str(got) == str(want)
    assert dumps(got) == dumps(want)


def test_shared_table_never_changes_a_report(monkeypatch):
    # the sweep keeps its cases, stable left-hand sides and their rho per
    # degree cap across calls; no order of calls may change what a call
    # yields, odd ranks, split ranks and ranks above the cap included.  A
    # report cannot see a wrong left-hand side (each one passes), so the
    # sweep's own (id, params, lhs, rho) tuples are compared as well.
    def run(n, cap):
        return dumps(verify_relations(n, cap)), list(feshbach._sweep([n], cap))

    def cold_start():  # an empty table and a fresh rho map
        feshbach._stable_table.cache_clear()
        monkeypatch.setattr(feshbach, "_RHO", Hom(feshbach._rho_image, SW))

    calls = ([(n, 24) for n in range(32, 1, -1)] + [(n, 16) for n in range(32, 1, -1)]
             + [(n, 24) for n in range(2, 33)])
    cold = {}
    for n, cap in calls:
        if (n, cap) not in cold:
            cold_start()
            cold[n, cap] = run(n, cap)
    cold_start()
    for n, cap in calls:
        assert run(n, cap) == cold[n, cap], (n, cap)
    assert feshbach._stable_table.cache_info().currsize == 2


def test_relation_convention_splits_half_with_midrank():
    # relation 4 at rank 6 produces the set {1/2, 2, 3}, which must split as
    # V_{{3}} * V_{{2}}
    lhs = relation(4, IndexSet.of("1/2", 1), IndexSet.of(2, 3), n=6)
    assert rho(lhs, RingContext(degree_cap=40, rank_cap=6)).is_zero()
    for mask in lhs.torsion.variables():
        if mask > 0:
            assert IndexSet(mask_doubled(mask)).valid_at(6)


def test_torsion_text_and_json_pinned():
    # V{1,2} comes first by bit mask, V{1/2,3} by doubled indices (1,6) < (2,4)
    x = (
        IntClass.V(["1/2", 3]) * IntClass.p(2)
        + IntClass.V([1, 2])
        + IntClass.V([1, 2]) * IntClass.V(["1/2", 3])
    )
    assert str(x) == "V{1,2} + V{1/2,3}*V{1,2} + p2*V{1/2,3}"
    assert dumps(x) == (
        '{"type":"integral","free":[],"torsion":['
        '{"p":[],"V":[[[2,4],1]]},'
        '{"p":[],"V":[[[1,6],1],[[2,4],1]]},'
        '{"p":[[2,1]],"V":[[[1,6],1]]}]}'
    )



def test_raw_torsion_polynomial_prints_decoded():
    x = IntClass.V(["1/2", 3]) * IntClass.p(2)
    assert str(x.torsion) == "p2*V{1/2,3}"
    assert repr(x.torsion) == "MPoly2(p2*V{1/2,3})"
    y = (
        x
        + IntClass.V([1, 2])
        + IntClass.V([1, 2]) * IntClass.V(["1/2", 3])
        + IntClass.p(1) * IntClass.p(1) * IntClass.V([1]) * IntClass.V([1])
    )
    assert str(y.torsion) == (
        "V{1,2} + p1^2*V{1}^2 + V{1/2,3}*V{1,2} + p2*V{1/2,3}"
    )
    assert str(y) == str(y.torsion)


def test_raw_torsion_polynomial_refuses_json():
    x = IntClass.V(["1/2", 3]) * IntClass.p(2)
    with pytest.raises(TypeError, match="serialize the IntClass"):
        dumps(x.torsion)


def test_int_pow_matches_repeated_product():
    rng = random.Random(71)
    for _ in range(12):
        x = random_integral_complexifiable(rng, 8)
        expected = IntClass.integer(1)
        for e in range(13):
            assert x ** e == expected, (str(x), e)
            expected = int_mul(expected, x)
    assert parse_integral("p1^4096") == IntClass(((((1, 4096),), 1),))
    with pytest.raises(ValueError):
        IntClass.p(1) ** -1


# -- brute-force reference for int_mul and rho -------------------------------
# A class is (free, torsion): free maps a p-key (ascending (i, e) pairs) to a
# nonzero integer, torsion is a set of (p-key, v-key), a v-key being
# ascending (doubled indices, e) pairs.


def _ref_merge(k1, k2):
    merged = dict(k1)
    for i, e in k2:
        merged[i] = merged.get(i, 0) + e
    return tuple(sorted(merged.items()))


def _ref_p_degree(p_key):
    return sum(4 * i * e for i, e in p_key)


def _ref_degree(term):
    p_key, v_key = term
    return _ref_p_degree(p_key) + sum((1 + sum(ds)) * e for ds, e in v_key)


def _ref_mul(a, b, cap):
    free = {}
    for k1, c1 in a[0].items():
        for k2, c2 in b[0].items():
            if cap is None or _ref_p_degree(k1) + _ref_p_degree(k2) <= cap:
                k = _ref_merge(k1, k2)
                free[k] = free.get(k, 0) + c1 * c2
    a_terms = a[1] | {(k, ()) for k, c in a[0].items() if c % 2}
    b_terms = b[1] | {(k, ()) for k, c in b[0].items() if c % 2}
    torsion = set()
    for p1, v1 in a_terms:
        for p2, v2 in b_terms:
            term = (_ref_merge(p1, p2), _ref_merge(v1, v2))
            if term[1] and (cap is None or _ref_degree(term) <= cap):
                torsion ^= {term}
    return {k: c for k, c in free.items() if c}, torsion


def _ref_poly(keys):
    """The mod-2 sum of monomials given as lists of (index, exponent) pairs,
    each canonicalized here: repeated indices merged, indices ascending."""
    acc = set()
    for raw in keys:
        acc ^= {_ref_merge((), raw)}
    return MPoly2(frozenset(acc))


def _ref_sq1_of_product(ds):
    """Sq1(w_d1 * ... * w_dm) for distinct d's by the Leibniz rule, with
    Sq1(w_d) = w1*w_d + w_(d+1) for even d and w1*w_d for odd d."""
    keys = []
    for d in ds:
        rest = [(j, 1) for j in ds if j != d]
        keys.append(rest + [(1, 1), (d, 1)])
        if d % 2 == 0:
            keys.append(rest + [(d + 1, 1)])
    return _ref_poly(keys)


def _ref_rho(a, ctx):
    total = MPoly2.zero()
    terms = a[1] | {(k, ()) for k, c in a[0].items() if c % 2}
    for p_key, v_key in terms:
        term = _ref_poly([[(2 * i, 2 * e) for i, e in p_key]])
        for ds, e in v_key:
            term = term * _ref_sq1_of_product(ds) ** e
        total = total + term
    return reduce_poly(total, ctx)


def _ref_json(a):
    free = sorted(a[0].items(), key=lambda kc: (_ref_p_degree(kc[0]), kc[0]))
    torsion = sorted(a[1], key=lambda t: (_ref_degree(t), t))
    return json.dumps({
        "type": "integral",
        "free": [{"coeff": c, "p": [list(p) for p in k]} for k, c in free],
        "torsion": [
            {"p": [list(p) for p in pk], "V": [[list(ds), e] for ds, e in vk]}
            for pk, vk in torsion
        ],
    }, separators=(",", ":"))


def _ref_random(rng, n):
    pool = [1, 2, 4, 6, 8]
    free, torsion = {}, set()
    for _ in range(rng.randint(0, 3)):
        k = _ref_merge((), [(rng.randint(1, 3), 1) for _ in range(rng.randint(0, 2))])
        free[k] = free.get(k, 0) + rng.choice((-3, -2, -1, 1, 2, 3))
    for _ in range(rng.randint(0, 3)):
        p_key = _ref_merge((), [(rng.randint(1, 2), 1)] * rng.randint(0, 1))
        v_key = ()
        while len(v_key) < rng.randint(1, 2):
            iset = IndexSet(rng.sample(pool, rng.randint(1, 2)))
            if iset.valid_at(n):
                v_key = _ref_merge(v_key, [(iset.doubled, 1)])
        torsion ^= {(p_key, v_key)}
    return {k: c for k, c in free.items() if c}, torsion


def test_int_mul_and_rho_match_brute_force():
    rng = random.Random(2011)
    # (rank n for int_mul, ctx): no cap, a degree cap, a rank-capped ctx
    cases = [(None, RingContext()), (None, RingContext(22)), (6, RingContext(26, 6))]
    for n, ctx in cases:
        for _ in range(60):
            ra, rb = _ref_random(rng, n), _ref_random(rng, n)
            a, b = loads(_ref_json(ra)), loads(_ref_json(rb))
            product = int_mul(a, b, n, ctx)
            expected = _ref_mul(ra, rb, ctx.degree_cap)
            assert dumps(product) == _ref_json(expected)
            assert rho(product, ctx) == _ref_rho(expected, ctx)
            assert rho(a, ctx) == _ref_rho(ra, ctx)


def _ref_of(a):
    """The reference form of a class, read back from its JSON."""
    obj = json.loads(dumps(a))
    free = {tuple(map(tuple, t["p"])): t["coeff"] for t in obj["free"]}
    torsion = {(tuple(map(tuple, t["p"])), tuple((tuple(ds), e) for ds, e in t["V"]))
               for t in obj["torsion"]}
    return free, torsion


def test_shared_rho_memo_never_changes_an_answer(monkeypatch):
    # rho keeps one memo of image powers and prefix products per degree-capped
    # context; contexts differing only in their rank cap have different
    # images, so no order of calls may let one read another's products.  A
    # fresh rho map counts the images it asks for: a kept memo asks for none
    # again, and with no degree cap nothing bounds the products, so none is
    # kept.
    asked = []

    def fresh_rho():
        def image(i):
            asked.append(i)
            return feshbach._rho_image(i)
        monkeypatch.setattr(feshbach, "_RHO", Hom(image, SW))

    rng = random.Random(1983)
    refs = [_ref_random(rng, 6) for _ in range(16)]
    refs += [_ref_mul(ra, rb, None) for ra, rb in zip(refs[::2], refs[1::2])]
    classes = [(loads(_ref_json(ra)), ra) for ra in refs]
    lhss = [relation(6, n=6), relation(5, IndexSet.of("1/2", 1, 2), n=6)]
    pairs = [(a, b) for a in classes[:8] for b in classes[:8]]
    pairs += [(a, (b, _ref_of(b))) for a in classes[:8] for b in
              (int_add(a[0], lhs) for lhs in lhss)]
    pairs = [(a, b) for a, b in pairs if max(a[0].degree(), b[0].degree()) <= 24]
    contexts = [RingContext(24), RingContext(24, 6), RingContext(24, 8)]
    verdicts = set()

    def run(order, pairs):  # the number of images asked for
        asked.clear()
        for ctx in order:
            for a, ra in classes:
                assert rho(a, ctx) == _ref_rho(ra, ctx), (ctx, a)
            for (a, ra), (b, rb) in pairs:
                want = ra[0] == rb[0] and _ref_rho(({}, ra[1] ^ rb[1]), ctx).is_zero()
                assert torsion_equal(a, b, ctx) == want, (ctx, a, b)
                verdicts.add(want)
        return len(asked)

    for order in (contexts, contexts[::-1]):
        fresh_rho()
        assert run(order, pairs) > 0
        assert run(order, pairs) == 0  # each of the three kept its memo
    assert verdicts == {True, False}
    fresh_rho()
    same = [(classes[0], classes[0])]
    for ctx in (RingContext(), RingContext(None, 6)):
        assert run([ctx], same) == run([ctx], same) > 0


def test_valid_index_sets_matches_brute_force():
    for n in range(19):
        pool = [1] + list(range(2, n + 1, 2))
        for cap in (0, 1, 2, 5, 12, 24, 40):
            brute = [
                IndexSet(c)
                for size in range(1, len(pool) + 1)
                for c in combinations(pool, size)
                if IndexSet(c).degree() <= cap and IndexSet(c).valid_at(n)
            ]
            brute.sort(key=lambda s: (s.degree(), s.doubled))
            assert _valid_index_sets(n, cap) == brute
    # past rank 23 no new index fits under cap 24
    assert len(_valid_index_sets(64, 24)) == 109
    assert len(_valid_index_sets(128, 24)) == 109


def test_index_set_repr_round_trips():
    for s in _valid_index_sets(16, 24):
        assert eval(repr(s), {"IndexSet": IndexSet}) == s, repr(s)


# -- reference route for relation left-hand sides ----------------------------
# Families 2-6 built as products of IntClass values through int_mul, the
# construction relation() used before it built tor keys directly; kept as an
# independent route, side conditions and refusals included.


def _make_V(ds: frozenset, n: int | None) -> IntClass:
    """V for a computed index set, applying the rank-n convention: a set
    containing both the half index and n/2 splits off V_{{n/2}}."""
    if n is not None and n > 1 and 1 in ds and n in ds:
        rest = frozenset(ds) - {1, n}
        if not rest:
            raise InvalidIndexSetError(
                f"V{IndexSet(ds)} at rank {n} has no convention expansion"
            )
        return int_mul(IntClass.V(IndexSet({n})), _make_V(rest, n), n)
    iset = IndexSet(ds)
    iset.require_valid_at(n)
    return IntClass.V(iset)


def _p_factor(d: int) -> IntClass:
    """p for a doubled index: p_{1/2} means V_{{1/2}} by convention."""
    if d == 1:
        return IntClass.V(IndexSet({1}))
    return IntClass.p(d // 2)


def _p_product(ds: Iterable[int], n: int | None) -> IntClass:
    out = IntClass.integer(1)
    for d in sorted(ds):
        out = int_mul(out, _p_factor(d), n)
    return out


def _reference_relation(
    k: int,
    I: IndexSet | None = None,
    J: IndexSet | None = None,
    n: int | None = None,
) -> IntClass:
    if k not in (2, 3, 4, 5, 6):  # the sweep's families; relation 1 is not compared
        raise ValueError(f"unknown relation family {k!r}")
    if k == 6:
        if n is None or n % 2 != 0 or n < 2:
            raise ValueError("relation 6 needs an even rank of at least 2")
        half = IntClass.V(IndexSet({1}))
        vn = IntClass.V(IndexSet({n}))
        return int_add(int_mul(half, IntClass.p(n // 2), n), int_mul(vn, vn, n))

    if I is None:
        raise ValueError(f"relation {k} needs I")
    I.require_valid_at(n)
    si = set(I.doubled)
    if len(si) <= 1:
        raise ValueError("the cardinality of I must exceed one")

    if k == 5:
        lhs = IntClass.zero()
        for d in I.doubled:
            term = int_mul(IntClass.V(IndexSet({d})), _make_V(si - {d}, n), n)
            lhs = int_add(lhs, term)
        return lhs

    if J is None:
        raise ValueError(f"relation {k} needs J")
    J.require_valid_at(n)
    sj = set(J.doubled)
    if len(si) > len(sj):
        raise ValueError("the cardinality of I must not exceed that of J")
    vi, vj = IntClass.V(I), IntClass.V(J)

    if k == 2:
        if not (si & sj):
            raise ValueError("relation 2 needs intersecting I and J")
        if si <= sj:
            raise ValueError("relation 2 needs I not contained in J")
        lhs = int_mul(vi, vj, n)
        lhs = int_add(lhs, int_mul(_make_V(si | sj, n), _make_V(si & sj, n), n))
        cross = int_mul(_make_V(si - sj, n), _make_V(sj - si, n), n)
        return int_add(lhs, int_mul(cross, _p_product(si & sj, n), n))

    if k == 3:
        if not (si < sj):
            raise ValueError("relation 3 needs I a proper subset of J")
        lhs = int_mul(vi, vj, n)
        for d in I.doubled:
            term = int_mul(
                IntClass.V(IndexSet({d})), _make_V((sj - si) | {d}, n), n
            )
            term = int_mul(term, _p_product(si - {d}, n), n)
            lhs = int_add(lhs, term)
        return lhs

    # k == 4
    if si & sj:
        raise ValueError("relation 4 needs disjoint I and J")
    if len(si) == len(sj) and min(si) >= min(sj):
        raise ValueError(
            "relation 4 with equal cardinalities needs min(I) < min(J)"
        )
    lhs = int_mul(vi, vj, n)
    for d in I.doubled:
        term = int_mul(IntClass.V(IndexSet({d})), _make_V((si | sj) - {d}, n), n)
        lhs = int_add(lhs, term)
    return lhs


def _outcome(build, *args):
    """The value of build(*args), or the type and message it raised."""
    try:
        return build(*args)
    except Exception as exc:  # noqa: BLE001 - the refusal is compared
        return type(exc), str(exc)


# (rank, degree cap) of the differential sweep.  The index sets come from two
# ranks higher than the one checked, so some are invalid there, and each cap
# reaches a set holding n/2 beside another index, so that the rank-n
# convention splits some computed sets.
_DIFFERENTIAL_RANKS = (
    (None, 14), (2, 10), (3, 10), (4, 10), (6, 12), (8, 12), (12, 16), (16, 19),
)


def test_relation_matches_int_mul_reference():
    splits = refusals = 0
    for n, cap in _DIFFERENTIAL_RANKS:
        sets = _valid_index_sets((n or 12) + 2, cap)
        for k in (2, 3, 4, 5, 6, 7):
            for I in [None] + sets:
                for J in [None] + (sets if k in (2, 3, 4) else []):
                    got = _outcome(relation, k, I, J, n)
                    assert got == _outcome(_reference_relation, k, I, J, n), (k, I, J, n)
                    if isinstance(got, tuple):
                        refusals += 1
                    elif k in (2, 4) and {1, n} <= set(I.doubled + J.doubled):
                        splits += 1  # I | J holds both 1/2 and n/2
    assert splits and refusals


def test_convention_matches_make_v():
    # every subset of the pool at each rank, the unsplittable {1/2, n/2}
    # and sets invalid at the rank included
    for n in (None, 2, 3, 4, 6, 8, 12):
        pool = [1] + list(range(2, (n or 8) + 3, 2))
        for size in range(1, 4):
            for ds in map(frozenset, combinations(pool, size)):
                got = _outcome(lambda: _torsion_sum([_tor_term(_convention(v_mask(ds), n))]))
                assert got == _outcome(_make_V, ds, n), (ds, n)
        if n and n % 2 == 0:
            message = f"V{{1/2,{n // 2}}} at rank {n} has no convention expansion"
            for build, ds in ((_convention, v_mask((1, n))), (_make_V, frozenset({1, n}))):
                with pytest.raises(InvalidIndexSetError) as err:
                    build(ds, n)
                assert str(err.value) == message
