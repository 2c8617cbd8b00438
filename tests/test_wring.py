"""Ring axioms, truncation coherence, and kernel agreement for MPoly2."""

import hashlib
import random
import tracemalloc

import pytest

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
    underlying_of_complexification,
    universal_bundle,
    whitney_sum,
)
from charclass.complexifiability import (
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
    InvalidIndexSetError,
    MissingImageError,
    NamespaceMismatchError,
)
from charclass.feshbach import (
    IndexSet,
    IntClass,
    int_add,
    int_add_all,
    int_mul,
    relation,
    rho,
    torsion_equal,
)
from charclass.report import CaseRecord
from charclass.serialize import loads, to_json_obj
from charclass.steenrod import sq1
from charclass.wring import (
    EXT,
    ROOT,
    SW,
    TOR,
    UNBOUNDED,
    MPoly2,
    RingContext,
    add,
    add_all,
    constant_term,
    evaluate_monomials,
    grade_component,
    graded_parts,
    mono_degree,
    mul,
    poly_str,
    power,
    r,
    reduce_poly,
    require_degree_cap_at_least,
    require_rank_cap_at_least,
    square,
    substitute,
    tor_key,
    tor_terms,
    v,
    v_mask,
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


def _random_keys_in(rng, ns, count):
    """`count` draws of monomial keys in namespace ns, duplicates merged.
    A w key holds up to three of the indices 1..8 (as sw, root or ext w's);
    a tor key up to two p_i and one to three distinct V masks of subsets of
    {1/2, 1, 2, 3, 4}; exponents run up to 3."""
    def w_key():
        return tuple((i, rng.randint(1, 3))
                     for i in sorted(rng.sample(range(1, 9), rng.randint(0, 3))))

    def tor():
        p_key = [(i, rng.randint(1, 3)) for i in sorted(rng.sample(range(1, 5), rng.randint(0, 2)))]
        masks = rng.sample(range(1, 32), rng.randint(1, 3))
        return tor_key(p_key, [(m, rng.randint(1, 3)) for m in masks])

    make = {
        SW: w_key,
        ROOT: w_key,
        EXT: lambda: tuple((-i, 1) for i, _ in reversed(w_key())) + w_key(),
        TOR: tor,
    }[ns]
    return frozenset(make() for _ in range(count))


def test_graded_parts_match_a_degree_filter():
    rng = random.Random(61)
    for ns in (SW, ROOT, EXT, TOR):
        for count in (0, 1, 5, 20):
            a = MPoly2(_random_keys_in(rng, ns, count), ns)
            parts = graded_parts(a)
            for d in range(a.degree() + 2):
                kept = frozenset(k for k in a.monomials if mono_degree(k, ns) == d)
                assert parts.get(d, MPoly2.zero(ns)) == MPoly2(kept, ns)
                assert (d in parts) == bool(kept)
            assert set(parts) <= set(range(a.degree() + 1))


def test_tor_key_round_trips_with_tor_terms():
    """tor_terms decodes V masks to doubled tuples; v_mask encodes them back
    into the (mask, exponent) form tor_key takes."""
    rng = random.Random(62)
    a = MPoly2(_random_keys_in(rng, TOR, 60), TOR)
    rebuilt = {tor_key(p_key, [(v_mask(ds), e) for ds, e in v_key])
               for p_key, v_key in tor_terms(a)}
    assert rebuilt == a.monomials
    assert tor_terms(MPoly2(frozenset({tor_key(((1, 2),), [(0b101, 3), (0b10, 1)])}), TOR)) == [
        (((1, 2),), (((1, 4), 3), ((2,), 1)))]


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


def test_rank_cap_truncates_w_only():
    """Under a rank cap n, an sw or ext monomial goes exactly when it has a
    w_i with i > n; v_i, roots, p_i and V masks are not w's and stay."""
    rng = random.Random(13)
    for ns in (SW, ROOT, EXT, TOR):
        a = MPoly2(_random_keys_in(rng, ns, 40), ns)
        for n in range(9):
            kept = reduce_poly(a, RingContext(rank_cap=n))
            if ns in (SW, EXT):
                assert kept.monomials == {
                    k for k in a.monomials if all(i <= n for i, _ in k)
                }, (ns, n)
            else:
                assert kept == a, (ns, n)


def test_public_constructors_refuse_non_integers():
    # floats and bools compare like integers, so only a type check refuses them
    for bad in (2.0, 1.5, True):
        for make, message in [
            (MPoly2.gen, "generator index must be positive"),
            (w, "generator index must be positive"),
            (r, "generator index must be positive"),
            (v, "exterior generator index must be positive"),
            (IntClass.p, "Pontrjagin index must be positive"),
            (IntClass.integer, f"not an integer: {bad!r}"),
            (RingContext, "degree_cap must be a nonnegative integer or None"),
            (lambda x: RingContext(rank_cap=x), "rank_cap must be a nonnegative integer"),
        ]:
            with pytest.raises(ValueError) as excinfo:
                make(bad)
            assert str(excinfo.value).startswith(message), (make, bad)


_ROOTS = "roots bundle needs a positive integer number of roots"
_CLASS_INDEX = "class index must be a nonnegative integer"
_EXPONENT = "exponent must be a nonnegative integer"
_DOUBLED = "does not encode 1/2 or a positive integer"
_CHERN = "Chern index must be a positive integer"
_PONTRJAGIN = "Pontrjagin index must be a positive integer"
_EMPTY_SUM = "a sum needs at least one polynomial"
B2, I12, I13 = roots_bundle(2), IndexSet([2, 4]), IndexSet([2, 6])


@pytest.mark.parametrize("call, error, message", [
    (lambda: roots_bundle(0), ValueError, _ROOTS),
    (lambda: roots_bundle(True), ValueError, _ROOTS),
    (lambda: sw(B2, -1), ValueError, _CLASS_INDEX),
    (lambda: sw(B2, 2.0), ValueError, _CLASS_INDEX),
    *((lambda k=k: chern_mod2(B2, k), ValueError, _CHERN) for k in (0, True, 1.5, "2")),
    *((lambda k=k: pontrjagin_mod2(B2, k), ValueError, _PONTRJAGIN)
      for k in (0, True, 1.5, "2")),
    (lambda: add_all([]), ValueError, _EMPTY_SUM),
    (lambda: int_add_all([]), ValueError, _EMPTY_SUM),
    (lambda: FormalBundle(B2.total, True), ValueError,
     "rank bound must be a nonnegative integer or None"),
    (lambda: cartan_restrict(v(1)), NamespaceMismatchError,
     "cartan_restrict expects an sw polynomial"),
    (lambda: is_complexifiable_mod2(v(1)), NamespaceMismatchError,
     "complexifiability is a question about sw classes"),
    (lambda: ideal_decomposition(v(1)), NamespaceMismatchError,
     "ideal decomposition expects an sw class"),
    (lambda: invariance_oracle(v(1), RingContext(8, 8)), NamespaceMismatchError,
     "the oracle expects an sw class"),
    (lambda: MPoly2(frozenset(), "bogus"), ValueError, "unknown namespace 'bogus'"),
    (lambda: power(w(1), -1), ValueError, _EXPONENT),
    (lambda: power(w(1), True), ValueError, _EXPONENT),
    (lambda: power(w(1), 2.0), ValueError, _EXPONENT),
    (lambda: w(1) ** True, ValueError, _EXPONENT),
    (lambda: IntClass.p(1) ** True, ValueError, _EXPONENT),
    (lambda: IntClass.p(1) ** 2.0, ValueError, _EXPONENT),
    (lambda: substitute(w(1) * w(2), {1: w(1), 2: r(1)}), NamespaceMismatchError,
     "substitution images mix namespaces"),
    (lambda: IndexSet([True]), InvalidIndexSetError, f"doubled index True {_DOUBLED}"),
    (lambda: IndexSet([2.0]), InvalidIndexSetError, f"doubled index 2.0 {_DOUBLED}"),
    (lambda: IndexSet(["2"]), InvalidIndexSetError, f"doubled index '2' {_DOUBLED}"),
    (lambda: IndexSet([4, "2"]), InvalidIndexSetError, f"doubled index '2' {_DOUBLED}"),
    # an unknown relation family is named before any missing index set
    (lambda: relation(7, I12), ValueError, "unknown relation family 7"),
    (lambda: relation(0), ValueError, "unknown relation family 0"),
    (lambda: relation("2", I12, I13), ValueError, "unknown relation family '2'"),
    (lambda: relation(True, I12), ValueError, "unknown relation family True"),
    (lambda: relation(1), ValueError, "relation 1 needs I"),
    # a rank that is not an int is named before any index set is checked
    (lambda: relation(1, IndexSet.of(1), n=2.0), ValueError,
     "rank must be an integer or None, got 2.0"),
    (lambda: relation(2, I12, I13, n=True), ValueError,
     "rank must be an integer or None, got True"),
    (lambda: relation(6, n=4.0), ValueError, "rank must be an integer or None, got 4.0"),
    (lambda: relation(6, n="4"), ValueError, "rank must be an integer or None, got '4'"),
    # int_mul's rank takes the same gate, before any index set is checked
    (lambda: int_mul(IntClass.p(1), IntClass.p(1), "2"), ValueError,
     "rank must be an integer or None, got '2'"),
    (lambda: int_mul(IntClass.V([1]), IntClass.p(1), 2.5), ValueError,
     "rank must be an integer or None, got 2.5"),
    (lambda: int_mul(IntClass.V([1]), IntClass.p(1), "2"), ValueError,
     "rank must be an integer or None, got '2'"),
    (lambda: int_mul(IntClass.V([1]), IntClass.V([1]), True), ValueError,
     "rank must be an integer or None, got True"),
    # arithmetic with a plain number is a TypeError, in operator and function form
    (lambda: w(1) + 1, TypeError, "unsupported operand type(s) for +: 'MPoly2' and 'int'"),
    (lambda: 1 + w(1), TypeError, "unsupported operand type(s) for +: 'int' and 'MPoly2'"),
    (lambda: w(1) * 3, TypeError, "unsupported operand type(s) for *: 'MPoly2' and 'int'"),
    (lambda: mul(w(1), 3), TypeError, "cannot combine a polynomial with 'int'"),
    (lambda: mul(3, w(1)), TypeError, "cannot combine a polynomial with 'int'"),
    (lambda: add(w(1), 1), TypeError, "cannot combine a polynomial with 'int'"),
    (lambda: IntClass.integer(2) + 1, TypeError,
     "unsupported operand type(s) for +: 'IntClass' and 'int'"),
    (lambda: IntClass.integer(2) - 1, TypeError,
     "unsupported operand type(s) for -: 'IntClass' and 'int'"),
    (lambda: IntClass.integer(2) * w(1), TypeError,
     "unsupported operand type(s) for *: 'IntClass' and 'MPoly2'"),
    (lambda: CaseRecord("a", {}, "bogus"), ValueError, "unknown status 'bogus'"),
    (lambda: to_json_obj(object()), TypeError, "cannot serialize object"),
    (lambda: loads('{"type":"integral","free":[],"torsion":[{"p":[],"V":[[2,1]]}]}'),
     ValueError, "malformed or out-of-order V entry: [2, 1]"),
    (lambda: loads('{"type":"mod2","monomials":[[[1,1,1]]]}'),
     ValueError, "malformed monomial entry: [1, 1, 1]"),
])
def test_entry_points_refuse_bad_arguments(call, error, message):
    with pytest.raises(error) as excinfo:
        call()
    assert type(excinfo.value) is error and str(excinfo.value) == message


_BUNDLE = FormalBundle(MPoly2.one(SW) + w(1) + w(2))
_POLY, _INT, _SET, _ITER = "MPoly2", "IntClass", "IndexSet", "Iterable"
_BUN, _CTX = "FormalBundle", "RingContext"


@pytest.mark.parametrize("call, name, expected", [
    (lambda: add(1, w(1)), "int", _POLY),
    (lambda: add_all([1, w(1)]), "int", _POLY),
    (lambda: add_all([1]), "int", _POLY),
    (lambda: mul(3, w(1), RingContext(8)), "int", _POLY),
    (lambda: power(3, 2), "int", _POLY),
    (lambda: power("w1", 2, RingContext(8)), "str", _POLY),
    (lambda: square(3), "int", _POLY),
    (lambda: reduce_poly(3, RingContext(8)), "int", _POLY),
    (lambda: reduce_poly(None, UNBOUNDED), "NoneType", _POLY),
    (lambda: substitute(3, {}), "int", _POLY),
    (lambda: substitute(w(1) * w(2), {1: w(1), 2: 3}), "int", _POLY),
    (lambda: evaluate_monomials([((1, 1),)], {1: 3}.get, SW), "int", _POLY),
    (lambda: evaluate_class(3, _BUNDLE, RingContext(8)), "int", _POLY),
    (lambda: evaluate_class(w(1), 3, RingContext(8)), "int", _BUN),
    (lambda: evaluate_class(w(1), w(2)), "MPoly2", _BUN),
    (lambda: sq1(3), "int", _POLY),
    (lambda: rho(3), "int", _INT),
    (lambda: int_mul(IntClass.p(1), 3), "int", _INT),
    (lambda: int_mul(w(1), IntClass.p(1), 2), "MPoly2", _INT),
    (lambda: int_add(IntClass.p(1), 3), "int", _INT),
    (lambda: int_add_all([3]), "int", _INT),
    (lambda: torsion_equal(IntClass.p(1), w(1)), "MPoly2", _INT),
    (lambda: torsion_equal(3, IntClass.p(1), RingContext(8)), "int", _INT),
    (lambda: relation(2, [1, 2], [1, 4]), "list", _SET),
    (lambda: relation(1, (1,)), "tuple", _SET),
    (lambda: relation(2, IndexSet.of(1, 2), [1, 4]), "list", _SET),
    (lambda: lemma3_rhs([1], _BUNDLE), "list", _SET),
    (lambda: IntClass.V(3), "int", _ITER),
    (lambda: lemma3_lhs(3, _BUNDLE), "int", _ITER),
    # the grading and printing helpers
    (lambda: graded_parts(3), "int", _POLY),
    (lambda: grade_component(3, 1), "int", _POLY),
    (lambda: constant_term(None), "NoneType", _POLY),
    (lambda: poly_str(IntClass.p(1)), "IntClass", _POLY),
    # the sw-only entry points, through wring.check_sw
    (lambda: to_ext(3), "int", _POLY),
    (lambda: cartan_restrict(3), "int", _POLY),
    (lambda: is_complexifiable_mod2(3), "int", _POLY),
    (lambda: subring_decomposition(3), "int", _POLY),
    (lambda: ideal_decomposition(3), "int", _POLY),
    (lambda: invariance_oracle(3, RingContext(8, 8)), "int", _POLY),
    # bundles and integral classes
    (lambda: sw(3, 1), "int", _BUN),
    (lambda: chern_mod2(3, 1), "int", _BUN),
    (lambda: underlying_of_complexification(3), "int", _BUN),
    (lambda: whitney_sum(_BUNDLE, 3), "int", _BUN),
    (lambda: whitney_sum(w(1), _BUNDLE), "MPoly2", _BUN),
    (lambda: express_via_chern(w(1), RingContext(8)), "MPoly2", _INT),
    (lambda: is_complexifiable_integral(w(1), RingContext(8)), "MPoly2", _INT),
    # contexts
    (lambda: mul(w(1), w(2), 8), "int", _CTX),
    (lambda: reduce_poly(w(1), None), "NoneType", _CTX),
    (lambda: square(w(1), 8), "int", _CTX),
    (lambda: power(w(1), 3, 8), "int", _CTX),
    (lambda: sq1(w(1), 8), "int", _CTX),
    (lambda: evaluate_monomials([((1, 1),)], {1: w(1)}.get, SW, 8), "int", _CTX),
    (lambda: evaluate_class(w(1), _BUNDLE, 8), "int", _CTX),
    (lambda: require_degree_cap_at_least(8, 1, "x"), "int", _CTX),
    (lambda: require_rank_cap_at_least(8, 1, "x"), "int", _CTX),
    (lambda: invariance_oracle(w(1), 8), "int", _CTX),
    (lambda: universal_bundle(8), "int", _CTX),
    (lambda: fiber_bundle(8), "int", _CTX),
    (lambda: roots_bundle(2, 8), "int", _CTX),
    (lambda: rho(IntClass.p(1), 8), "int", _CTX),
    (lambda: int_mul(IntClass.p(1), IntClass.p(1), ctx=8), "int", _CTX),
    (lambda: int_mul(IntClass.p(1), IntClass.p(1), 2, 8), "int", _CTX),
    (lambda: torsion_equal(IntClass.p(1), IntClass.p(1), 8), "int", _CTX),
    (lambda: lemma3_rhs(IndexSet.of(1), _BUNDLE, 8), "int", _CTX),
    (lambda: is_complexifiable_integral(IntClass.p(1), 8), "int", _CTX),
])
def test_function_forms_refuse_a_non_value_operand(call, name, expected):
    """A plain number or other non-value in any operand position is a
    TypeError naming the type expected, in _check_namespaces's wording for
    a polynomial, never an AttributeError."""
    with pytest.raises(TypeError) as excinfo:
        call()
    assert type(excinfo.value) is TypeError
    if expected == _POLY:
        assert str(excinfo.value) == f"cannot combine a polynomial with {name!r}"
    else:
        assert str(excinfo.value) == f"expected {expected}, got {name!r}"


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


def _decode_cases():
    """(matrix, bits, columns) cases for _decode: every row length from 0 to
    the number of columns, each at least once, in shuffled order; columns
    past len(columns) are zero, as the padding fields of a packed word are."""
    import numpy as np

    rng = random.Random(25)
    cases = []
    # (bits, len(columns), m): one word, two words with padding, and
    # exponents so wide that (exponent, column) codes need the exponents'
    # own ranks (bits + (m - 1).bit_length() > 64)
    for bits, fields, m in ((3, 7, 7), (5, 13, 24), (62, 5, 8), (64, 2, 2)):
        columns = sorted(rng.sample(range(1, 60), fields))
        lengths = [r for r in range(fields + 1) for _ in range(rng.randint(1, 4))]
        rng.shuffle(lengths)
        matrix = np.zeros((len(lengths), m), dtype=np.uint64)
        for row, r in zip(matrix, lengths):
            for j in rng.sample(range(fields), r):
                row[j] = rng.randint(1, 2**bits - 1)
        cases.append((matrix, bits, columns))
    return cases


def test_decode_matches_a_per_row_decode():
    import numpy as np

    from charclass.wring import _decode

    assert _decode(np.zeros((0, 3), dtype=np.uint64), 2, [1, 2, 3]) == []
    for matrix, bits, columns in _decode_cases():
        naive = [tuple((columns[j], e) for j, e in enumerate(row) if e)
                 for row in matrix.tolist()]
        keys = _decode(matrix, bits, columns)
        assert sorted(keys) == sorted(naive)
        assert () in keys and max(map(len, keys)) == len(columns)
        shared: dict = {}  # one tuple per distinct (index, exponent) pair
        for pair in (p for key in keys for p in key):
            assert shared.setdefault(pair, pair) is pair


def _factors(pairs, ns, cap):
    """The pairs of key sets as pairs of kernel factors ((key, degree)
    pairs), one factor object per distinct key set."""
    from charclass.wring import _factor

    made = {}
    for keys in (f for pair in pairs for f in pair):
        made.setdefault(id(keys), _factor(keys, ns, cap))
    return [(made[id(a)], made[id(b)]) for a, b in pairs]


def test_packed_kernels_agree_with_dict():
    from charclass.wring import _mul_dict, _mul_packed

    rng = random.Random(13)
    for _ in range(40):
        a = random_mod2(rng, 14)
        b = random_mod2(rng, 14)
        for cap in (None, 9):
            pair = _factors([(a.monomials, b.monomials)], SW, cap)
            assert frozenset(_mul_dict(pair, SW, cap)) == frozenset(
                _mul_packed(pair, SW, cap)
            )


def test_pyint_fallback_on_wide_exponents():
    # 79 fields of 17 bits pack 3 to a word, so each row spans 27 words; a
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


# -- packed kernels above the dict/packed switch ------------------------------


def _random_keys(rng, terms, max_index, max_exp, top=None, width=3):
    """`terms` distinct monomials, each in 1..width variables of index at
    most max_index with exponents in 1..max_exp, of degree at most top if
    given (so that a degree cap >= top leaves the factor whole)."""
    keys = set()
    while len(keys) < terms:
        merged = {i: rng.randint(1, max_exp)
                  for i in rng.sample(range(1, max_index + 1), rng.randint(1, width))}
        key = tuple(sorted(merged.items()))
        if top is None or mono_degree(key) <= top:
            keys.add(key)
    return keys


def _poly(keys):
    return MPoly2(frozenset(keys), SW)


# sha256 of the serialized results of _pinned_products, taken with the
# per-term unpack that preceded the bulk decode
PACKED_PRODUCTS_SHA256 = "76eb4e0d4fda732e4a274c8ba0c4026493d0b9f7bd0cca83489423444fca8065"


def _pinned_products():
    """Seeded products above the 4,096-pair switch: factors packed in one
    word (indices up to 8) and in two words (indices up to 40), with and
    without a degree cap, plus one power and one substitute."""
    rng = random.Random(21)
    out = []
    for max_index, cap in ((8, None), (8, 14), (40, None), (40, 50)):
        a = _poly(_random_keys(rng, 80, max_index, 3, cap) | {()})
        b = _poly(_random_keys(rng, 80, max_index, 3, cap))
        out.append(mul(a, b, RingContext(cap)))
    base = _poly(_random_keys(rng, 70, 10, 2, 12))
    out.append(power(base, 3, RingContext(24)))
    images = {i: _poly(_random_keys(rng, 70, 12, 2, 40) | {()}) for i in (1, 2, 3)}
    source = w(1) * w(2) + w(3) * square(w(1)) + w(2) * w(3)
    out.append(substitute(source, images, RingContext(40)))
    return out


def test_packed_products_pinned():
    from charclass.serialize import dumps

    blob = "\n".join(dumps(p) for p in _pinned_products()).encode()
    assert hashlib.sha256(blob).hexdigest() == PACKED_PRODUCTS_SHA256


# sha256 of the serialized results of _pinned_sums, taken when every term of
# a sum was its own product
PRODUCT_SUMS_SHA256 = "c62d94a78ff19cecf3f50a52b0ef7400163683be59c2e8d27b2d39e1549a3bcf"


def _pinned_sums():
    """Seeded sums of products: a substitute whose products each have at
    most 4,096 pairs but whose sum has more, and evaluate_class on 10 roots,
    whose products pass the switch on their own; with and without a cap."""
    rng = random.Random(24)
    images = {i: _poly(_random_keys(rng, 60, 12, 2, 30) | {()}) for i in (1, 2, 3)}
    source = (w(1) * w(2) + w(1) * w(3) + w(2) * w(3) + square(w(1)) * w(2)
              + w(3) * square(w(2)) + w(1) + w(3) + square(w(3)))
    # 61 terms an image: at most 3,721 pairs a product, six such products
    assert max(len(p.monomials) for p in images.values()) ** 2 <= 4096
    out = [substitute(source, images, RingContext(cap)) for cap in (None, 30)]
    c = w(2) * w(3) + w(1) * w(4) * w(5) + square(w(2)) * w(3) + w(6) + w(1)
    roots = roots_bundle(10)
    out += [evaluate_class(c, roots, RingContext(cap)) for cap in (None, 9)]
    return out


def test_product_sums_pinned():
    from charclass.serialize import dumps

    blob = "\n".join(dumps(p) for p in _pinned_sums()).encode()
    assert hashlib.sha256(blob).hexdigest() == PRODUCT_SUMS_SHA256


def _kernel_cases():
    """name -> (left keys, right keys, degree cap, packed bits); the packed
    bits, the number of distinct indices times the bits of the exponent
    sums, are given where they are the point of the case."""
    rng = random.Random(22)
    cases = {
        # at the 64-bit edge: 16 fields of 4 bits pack, 13 of 5 do not
        "fits_64": (_random_keys(rng, 80, 16, 7), _random_keys(rng, 80, 16, 7), None, 64),
        "needs_65": (_random_keys(rng, 80, 13, 15), _random_keys(rng, 80, 13, 15), 60, 65),
        # w1 alone: one field, which packs up to 64 bits wide
        "one_field_64": ({((1, e),) for e in range(2**62, 2**62 + 70)},
                         {((1, e),) for e in range(2**62, 2**62 + 70)}, None, 64),
        "one_field_65": ({((1, e),) for e in range(2**63, 2**63 + 70)},
                         {((1, e),) for e in range(2**63, 2**63 + 70)}, None, 65),
        # degrees above 2**63 under a cap, which int64 degree arrays overflow
        "one_field_64_capped": ({((1, e),) for e in range(2**63, 2**63 + 70)},
                                {((1, e),) for e in range(1, 71)}, 2**63 + 100, 64),
        "constant": (_random_keys(rng, 70, 10, 2) | {()},
                     _random_keys(rng, 70, 10, 2) | {()}, 9, None),
    }
    # exponent sums of exactly `bits` bits, on both sides of 16, 32 and 64:
    # w1^(2^(bits-2)) in both factors sets the field width
    for bits in (16, 17, 32, 33, 64, 65):
        big = {((1, 1 << (bits - 2)),)}
        cases[f"sum_{bits}_bits"] = (_random_keys(rng, 70, 20, 3) | big,
                                     _random_keys(rng, 70, 20, 3) | big, None, 20 * bits)
    # the kernels get these pairs twice, so every product occurs twice and
    # the sum cancels to zero
    a, b = _random_keys(rng, 70, 9, 3), _random_keys(rng, 70, 9, 3)
    cases["cancels"] = (a, b, None, None)
    a, b = _random_keys(rng, 70, 30, 3), _random_keys(rng, 70, 30, 3)
    cases["cancels_wide"] = (a, b, None, None)
    # 42 fields of 3 bits fill two words exactly; under the cap, kept
    # products still pair an index of the first word with one of the second
    span = {((1, 3), (42, 3)), ((21, 1), (22, 1))}
    cases["two_words_full"] = (_random_keys(rng, 80, 42, 3) | span,
                               _random_keys(rng, 80, 42, 3) | span, None, 126)
    # fields go to occurring indices only, so w1..w42 keep the capped case's
    # 42 fields: field j holds w(j+1), and the words split between w21 and w22
    cover = {((i, 1),) for i in range(1, 43)}
    cases["capped_two_words"] = (_random_keys(rng, 80, 42, 3, 50) | span | cover,
                                 _random_keys(rng, 80, 42, 3, 50), 50, 126)
    # no monomial has degree 0, so cap 1 drops every pair
    for name, max_index in (("cap_drops_all", 9), ("cap_drops_all_wide", 30)):
        cases[name] = (_random_keys(rng, 70, max_index, 3),
                       _random_keys(rng, 70, max_index, 3), 1, None)
    # few distinct indices spread far apart: only the indices that occur
    # take a field, 12 of 3 bits here and 30 of 3 bits (two words) below
    low, high = _random_keys(rng, 70, 6, 3), _random_keys(rng, 70, 6, 3)
    cases["sparse_high"] = (low, _spread(high, [3000 + 7 * i for i in range(6)]),
                            None, 36)
    spread = sorted(rng.sample(range(1, 10**6), 30))
    a, b = _random_keys(rng, 80, 30, 3), _random_keys(rng, 80, 30, 3)
    cases["sparse_high_two_words"] = (_spread(a, spread), _spread(b, spread),
                                      None, 90)
    a, b = _spread(a, spread), _spread(b, spread)
    mid = sorted(mono_degree(x) + mono_degree(y) for x in a for y in b)[3200]
    cases["sparse_high_capped"] = (a, b, mid, 90)
    return cases


def _spread(keys, indices):
    """The keys with variable i renamed to indices[i - 1] (ascending)."""
    return {tuple((indices[i - 1], e) for i, e in k) for k in keys}


def test_packed_kernels_agree_above_the_switch():
    from charclass.wring import _mul_dict, _mul_packed, _pack_stats

    empty = {"cancels", "cancels_wide", "cap_drops_all", "cap_drops_all_wide"}
    two_words = {"two_words_full", "capped_two_words"}
    for name, (ka, kb, cap, packed_bits) in _kernel_cases().items():
        assert len(ka) * len(kb) > 4096, name
        (ix_a, me_a), (ix_b, me_b) = _pack_stats(ka), _pack_stats(kb)
        fields, bits = len(ix_a | ix_b), (me_a + me_b).bit_length()
        assert packed_bits in (None, fields * bits), name
        pair = _factors([(ka, kb)] * (1 + (name in ("cancels", "cancels_wide"))), SW, cap)
        expected = frozenset(_mul_dict(pair, SW, cap))
        assert (not expected) == (name in empty), name
        assert (() in expected) == (name == "constant"), name
        # keys with an index in each word: 1..21 fill the first, 22..42 the second
        spans = any(k and k[0][0] <= 21 < k[-1][0] for k in expected)
        assert spans or name not in two_words, name
        got = _mul_packed(pair, SW, cap)
        assert frozenset(got) == expected, name
        assert all(type(i) is int and type(e) is int for k in got for i, e in k)


def test_sparse_high_indices_pack_by_occurring_index():
    # 70 x 70 pairs over 140 distinct indices near 3,000: rows sized by the
    # largest index would need about 120 MB for the decode matrix alone
    a = sum((w(i) for i in range(1, 71)), MPoly2.zero())
    b = sum((w(i) for i in range(3001, 3071)), MPoly2.zero())
    tracemalloc.start()
    try:
        product = mul(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert product.monomials == {((i, 1), (j, 1)) for i in range(1, 71)
                                 for j in range(3001, 3071)}
    assert peak < 20 * 2**20, peak


def test_sum_keeps_its_pending_rows_near_the_budget(monkeypatch):
    # 190 products of 61 x 61 pairs, 706,990 one-word rows (5.7 MB) in all,
    # whose odd rows are few: the pending rows are counted down whenever
    # they pass the chunk budget, lowered here to 50,000 words; kept whole,
    # they would take the peak to about 18 MB
    import charclass.wring as wring

    rng = random.Random(26)
    images = {i: _poly(_random_keys(rng, 60, 4, 3) | {()}) for i in range(1, 21)}
    source = sum((w(i) * w(j) for i in range(1, 21) for j in range(i + 1, 21)),
                 MPoly2.zero())
    expected = substitute(source, images)
    monkeypatch.setattr(wring, "_CHUNK_WORDS", 50_000)
    tracemalloc.start()
    try:
        got = substitute(source, images)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == expected
    assert peak < 4 * 2**20, peak


def _namespace_keys(rng, ns, terms, cap):
    """`terms` distinct monomials of the namespace, of degree at most cap if
    given, as _sum_products needs its factors reduced: sw keys in w1..w8,
    ext keys v_i * w_j^e (products may repeat a v), tor keys p_i^e * V_I."""
    keys = set()
    while len(keys) < terms:
        if ns == SW:
            key = next(iter(_random_keys(rng, 1, 8, 3)))
        elif ns == EXT:  # v_i is variable -i
            key = ((-rng.randint(1, 5), 1), (rng.randint(1, 6), rng.randint(1, 3)))
        else:  # p_i is variable -i, V_I the bit mask of I
            key = ((-rng.randint(1, 3), rng.randint(1, 2)), (rng.randint(1, 15), 1))
        if cap is None or mono_degree(key, ns) <= cap:
            keys.add(key)
    return frozenset(keys)


def _sum_cases():
    """name -> (namespace, pairs, cap)."""
    rng = random.Random(25)
    one = frozenset({()})
    cases = {}
    for cap in (None, 24):
        def keys(terms, ns=SW):
            return _namespace_keys(rng, ns, terms, cap)

        # four products of 3,000 pairs, 12,000 in all
        small = [(keys(50), keys(60)) for _ in range(4)]
        cases[f"each_below_total_above_{cap}"] = (SW, small, cap)
        # indices up to 40 take more fields than one word holds, for all pairs
        wide = (frozenset(_random_keys(rng, 50, 40, 3, cap)),
                frozenset(_random_keys(rng, 60, 40, 3, cap)))
        cases[f"one_pair_widens_{cap}"] = (SW, small + [wide], cap)
        a, b = keys(70), keys(70)
        cases[f"repeat_cancels_{cap}"] = (SW, [(a, b), (a, b)], cap)
        cases[f"repeat_leaves_rest_{cap}"] = (SW, small + [(a, b), (a, b)], cap)
        cases[f"constants_{cap}"] = (
            SW, small + [(one, small[0][1]), (small[1][0], one), (one, one)], cap)
        for ns in (EXT, TOR):
            pairs = [(keys(40, ns), keys(40, ns)) for _ in range(4)]
            cases[f"{ns}_{cap}"] = (ns, pairs + [(one, pairs[0][0])], cap)
    # exponent sums of 65 bits send the whole sum to the dict loop
    huge = frozenset({((1, 2**63),), ((2, 1),)})
    small = cases["each_below_total_above_None"][1]
    cases["wide_exponents"] = (SW, small + [(huge, huge)], None)
    return cases


def test_sum_of_products_is_the_xor_of_its_products():
    from charclass.wring import _mul_dict, _mul_packed, _pack_stats, _sum_products

    def packed_bits(pairs):  # fields times the bits of the widest exponent sum
        stats = [(_pack_stats(a), _pack_stats(b)) for a, b in pairs]
        fields = len(set().union(*(ia | ib for (ia, _), (ib, _) in stats)))
        return fields * max(ma + mb for (_, ma), (_, mb) in stats).bit_length()

    for name, (ns, pairs, cap) in _sum_cases().items():
        if name.startswith(("each_below", "one_pair", "constants")):
            assert all(len(a) * len(b) <= 4096 for a, b in pairs), name
            assert sum(len(a) * len(b) for a, b in pairs) > 4096, name
        if name.startswith("one_pair"):
            assert packed_bits(pairs[:-1]) <= 64 < packed_bits(pairs), name
        ctx = RingContext(cap)
        pairs = _factors(pairs, ns, cap)
        raw = set()
        for pair in pairs:
            raw ^= set(_mul_dict([pair], ns, cap))
        expected = {k for k in raw if ctx.admits(k, ns)}  # no repeated v
        assert (len(raw) > len(expected)) == (ns == EXT), name
        assert (not expected) == name.startswith("repeat_cancels"), name
        assert _sum_products(pairs, ns, cap) == expected, name
        if ns == SW:
            assert frozenset(_mul_packed(pairs, ns, cap)) == expected, name


def _memo_images(rng, ns, cap):
    """Images of the variables 1..7 in ns: ones of degree at most cap / 2
    with a constant term, and for 6 one of degree above cap / 2 (at most
    cap), whose square the cap zeroes."""
    images = {i: MPoly2(_namespace_keys(rng, ns, 4, cap // 2) | {()}, ns)
              for i in range(1, 8)}
    high = set()
    while len(high) < 4:
        key = next(iter(_namespace_keys(rng, ns, 1, cap)))
        if mono_degree(key, ns) > cap // 2:
            high.add(key)
    images[6] = MPoly2(frozenset(high), ns)
    return images


def test_prefix_memo_shared_across_calls_matches_fresh():
    # the constant key, one-factor keys, keys that share prefixes, and heads
    # that the cap zeroes through w6^2; each batch is one call.  A tor key
    # has degree 6 or more, so tor takes a higher cap.
    rng = random.Random(27)
    batches = [
        [(), ((1, 1),), ((2, 2),), ((6, 1),), ((6, 2),)],
        [((1, 1), (2, 1)), ((1, 1), (2, 1), (3, 2)), ((1, 1), (2, 1), (4, 1)),
         ((1, 1), (2, 1), (3, 2), (5, 1))],
        [((6, 2), (7, 1)), ((1, 1), (6, 2), (7, 1)), ((1, 1), (6, 1), (7, 1)), ()],
        sorted(_random_keys(rng, 20, 7, 2)),
    ]
    for ns, top in ((SW, 10), (EXT, 10), (TOR, 20)):
        images = _memo_images(rng, ns, top)
        for cap in (None, top):
            ctx = RingContext(cap)

            def naive(keys):  # the sum of products of powers, by mul and add
                total = MPoly2.zero(ns)
                for key in keys:
                    term = MPoly2.one(ns)
                    for i, e in key:
                        term = mul(term, power(images[i], e, ctx), ctx)
                    total = add(total, term, ctx)
                return total

            memo: dict = {}
            for keys in batches:
                got = evaluate_monomials(keys, images.__getitem__, ns, ctx, memo)
                assert got == evaluate_monomials(keys, images.__getitem__, ns, ctx)
                assert got == naive(keys), (ns, cap, keys)
            # every memoized prefix holds its product, keys with degrees
            nodes = [((pair,), node) for pair, node in memo.items()]
            for prefix, (factor, children) in nodes:
                want = naive([prefix]).monomials
                assert {k for k, _ in factor} == want and len(factor) == len(want), prefix
                assert all(d == (0 if cap is None else mono_degree(k, ns))
                           for k, d in factor)
                nodes += [(prefix + (pair,), child) for pair, child in children.items()]
            # the cap zeroes these heads; in ext every key of w6's image has
            # a v, whose square vanishes with no cap too
            assert (memo[(6, 2)][0] == []) == (cap is not None or ns == EXT)
            assert (memo[(1, 1)][1][(6, 2)][0] == []) == (cap is not None or ns == EXT)
            assert len(nodes) > len(memo)  # longer prefixes were memoized


def test_prefix_memo_refuses_an_image_in_another_namespace():
    with pytest.raises(NamespaceMismatchError):
        evaluate_monomials([((1, 1),)], lambda i: w(1), EXT)
    memo: dict = {}
    images = {1: w(1), 2: MPoly2.gen(2, EXT)}
    got = evaluate_monomials([((1, 2),)], images.__getitem__, SW, UNBOUNDED, memo)
    assert got == w(1) ** 2
    with pytest.raises(NamespaceMismatchError):
        evaluate_monomials([((1, 2), (2, 1))], images.__getitem__, SW, UNBOUNDED, memo)


def test_truncation_coherence_above_the_switch():
    rng = random.Random(23)
    for max_index, contexts in ((8, ((16, None), (20, 7))), (40, ((45, None), (70, 36)))):
        for degree_cap, rank_cap in contexts:
            ctx = RingContext(degree_cap, rank_cap)
            a = _poly(_random_keys(rng, 110, max_index, 3, degree_cap))
            b = _poly(_random_keys(rng, 110, max_index, 3, degree_cap))
            ra, rb = reduce_poly(a, ctx), reduce_poly(b, ctx)
            assert len(ra.monomials) * len(rb.monomials) > 4096
            assert reduce_poly(mul(a, b), ctx) == mul(ra, rb, ctx)
            base = _poly(_random_keys(rng, 70, max_index, 3, degree_cap // 2 + 2))
            assert reduce_poly(power(base, 3), ctx) == power(reduce_poly(base, ctx), 3, ctx)
            images = {i: _poly(_random_keys(rng, 70, max_index, 2, degree_cap) | {()})
                      for i in (1, 2, 3)}
            source = w(1) * w(2) + w(3) * square(w(1)) + w(2) * w(3)
            assert reduce_poly(substitute(source, images), ctx) == substitute(
                source, {i: reduce_poly(p, ctx) for i, p in images.items()}, ctx)
