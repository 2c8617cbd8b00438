"""The integral cohomology ring of the real classifying space, presented by
Pontrjagin generators p_i (degree 4i, free part) and 2-torsion generators
V_I indexed by finite nonempty sets of half-integers, with the reduction

    rho(p_i) = w_{2i}^2        rho(V_I) = Sq1(prod_{i in I} w_{2i})

into the mod-2 ring (w_{2*1/2} = w_1).  Index sets are encoded by doubled
indices: 1 stands for the half index, 2k for the integer k, so deg V_I =
1 + sum(doubled).

Equality of torsion classes is decided through rho, which is injective on
the torsion: torsion monomials are kept formal (no rewriting), and the six
relation families of the presentation become a verification suite checked
by rho instead of a rewrite system.

Rank-n validity: every integer index k needs 0 < k < (n+1)/2, and for
finite n > 1 a set may not contain both the half index and n/2.  So a set
has a lowest rank, _min_rank, and is valid at exactly the ranks from there
up: 0 for {1/2}, else 2k for its largest index k, plus one when it holds
the half index.  The rank-n conventions (p_{1/2} means V_{{1/2}}; a
produced V-set containing both the half index and n/2 splits as V_{{n/2}}
times the remainder) are applied when relation left-hand sides are
constructed.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .errors import InvalidIndexSetError
from .report import Report
from .steenrod import sq1
from .wring import (
    SW,
    TOR,
    UNBOUNDED,
    MonomialKey,
    MPoly2,
    RingContext,
    add_all,
    check_value,
    evaluate_monomials,
    index_str,
    mask_doubled,
    mono_factors,
    mono_mul,
    mul,
    reduce_poly,
    require_degree_cap_at_least,
    square,
    tor_factors,
    tor_key,
    tor_terms,
    v_mask,
    w,
)

HALF = Fraction(1, 2)

# Largest V index.  The tor namespace stores V_I as a bit mask with bit k set
# for index k (wring.tor_key), so a V factor costs memory linear in its
# index; without a bound, V{99999999999} would ask for gigabytes.  The
# degree of V{2**15}, 1 + 2**16, lies far above the degree caps in use (tens
# to a few thousand).
MAX_V_INDEX = 1 << 15


def _min_rank(mask: int) -> int:
    """The lowest rank at which the index set with V mask `mask` is valid;
    it stays valid at every higher rank."""
    return 2 * (mask.bit_length() - 1) + (mask & 1) if mask > 1 else 0


def _to_doubled(index) -> int:
    """The doubled index of a positive int, or of the half index given as
    "1/2" or HALF."""
    if type(index) is int:
        if index < 1:
            raise InvalidIndexSetError("integer indices must be positive")
        return 2 * index
    if index == "1/2" or (type(index) is Fraction and index == HALF):
        return 1
    raise InvalidIndexSetError(f"cannot read index {index!r}")


@dataclass(init=False, slots=True, unsafe_hash=True, repr=False)
class IndexSet:
    """Finite nonempty set of V-indices, stored as ascending doubled ints
    and as its V mask, the tor variable of V_I (wring.v_mask)."""

    doubled: tuple
    mask: int = field(compare=False)

    def __init__(self, doubled: Iterable[int]):
        ds = tuple(doubled)
        # sorted only when all are ints: the loop below refuses any other
        ds = tuple(sorted(set(ds))) if all(type(d) is int for d in ds) else ds
        if not ds:
            raise InvalidIndexSetError("index sets must be nonempty")
        for d in ds:
            if type(d) is not int or d < 1 or (d != 1 and d % 2 == 1):
                raise InvalidIndexSetError(
                    f"doubled index {d!r} does not encode 1/2 or a positive integer"
                )
            if d > 2 * MAX_V_INDEX:
                raise InvalidIndexSetError(
                    f"V index {d // 2} is above the limit {MAX_V_INDEX}"
                )
        self.doubled = ds
        self.mask = v_mask(ds)

    @classmethod
    def of(cls, *indices) -> "IndexSet":
        """Build from human-readable indices: ints, Fraction(1,2), or '1/2'."""
        return cls(_to_doubled(i) for i in indices)

    def degree(self) -> int:
        return 1 + sum(self.doubled)

    def valid_at(self, n: int | None) -> bool:
        return n is None or n >= _min_rank(self.mask)

    def require_valid_at(self, n: int | None) -> None:
        if not self.valid_at(n):
            raise InvalidIndexSetError(f"index set {self} is not valid at rank {n}")

    def __str__(self):
        return "{" + ",".join(index_str(d) for d in self.doubled) + "}"

    def __repr__(self):
        args = ("'1/2'" if d == 1 else str(d // 2) for d in self.doubled)
        return f"IndexSet.of({', '.join(args)})"


# free part: (p_key, nonzero int) pairs in the order collect_free sorts
# torsion part: an MPoly2 in the wring namespace tor (p_i is variable -i,
#   V_I the bit mask of I: bit 0 for 1/2, bit k for k), each monomial with a
#   V factor; wring.tor_key / tor_terms encode and decode it.  A rank cap
#   truncates only w_i, so tor values keep every mask; _validate_rank is the
#   one gate that refuses index sets invalid at a rank.
PKey = tuple


def _p_degree(p_key: PKey) -> int:
    return sum(4 * i * e for i, e in p_key)


def collect_free(terms: Iterable[tuple]) -> tuple:
    """The free part of a sum of (p key, integer coefficient) terms: equal
    keys added, zero sums dropped, sorted by degree, then key.  Single terms
    and negate skip it: one nonzero term, or a sign flip of a free part, is
    canonical already, and routing them here slowed parsing by about 2%."""
    acc: dict = {}
    for k, c in terms:
        acc[k] = acc.get(k, 0) + c
    items = [(k, c) for k, c in acc.items() if c]
    items.sort(key=lambda kc: (_p_degree(kc[0]), kc[0]))
    return tuple(items)


def signed_sum_str(terms: Iterable) -> str:
    """Join (integer coefficient, factor strings) terms as canonical text:
    a leading '-' only on a negative first term, magnitudes other than 1
    as a first factor, and "0" for no terms."""
    text = ""
    for coeff, factors in terms:
        mag = abs(coeff)
        if mag != 1 or not factors:
            factors = [str(mag)] + factors
        chunk = "*".join(factors)
        if text:
            text += f" {'-' if coeff < 0 else '+'} {chunk}"
        else:
            text = "-" + chunk if coeff < 0 else chunk
    return text or "0"


@dataclass(slots=True, unsafe_hash=True, repr=False)
class IntClass:
    """Element of the integral class ring: an integer polynomial in the p_i
    plus a formal 2-torsion polynomial in p_i and V_I over the field with
    two elements (2*V_I = 0 is built into the representation)."""

    free: tuple = ()
    torsion: MPoly2 = MPoly2.zero(TOR)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "IntClass":
        return cls()

    @classmethod
    def integer(cls, n: int) -> "IntClass":
        if type(n) is not int:
            raise ValueError(f"not an integer: {n!r}")
        return cls(((() , n),) if n else ())

    @classmethod
    def p(cls, i: int) -> "IntClass":
        if type(i) is not int or i < 1:
            raise ValueError("Pontrjagin index must be positive")
        return cls(((((i, 1),), 1),))

    @classmethod
    def V(cls, indices) -> "IntClass":
        iset = (indices if isinstance(indices, IndexSet)
                else IndexSet.of(*check_value(indices, Iterable)))
        return cls((), MPoly2(frozenset({tor_key((), ((iset.mask, 1),))}), TOR))

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.free and not self.torsion

    def __bool__(self):
        return not self.is_zero()

    def free_part(self) -> "IntClass":
        return IntClass(self.free)

    def torsion_part(self) -> "IntClass":
        return IntClass((), self.torsion)

    def degree(self) -> int:
        return max([self.torsion.degree()] + [_p_degree(k) for k, _ in self.free])

    def __add__(self, other):
        if not isinstance(other, IntClass):
            return NotImplemented
        return int_add(self, other)

    def __sub__(self, other):
        if not isinstance(other, IntClass):
            return NotImplemented
        return int_add(self, other.negate())

    def __mul__(self, other):
        if not isinstance(other, IntClass):
            return NotImplemented
        return int_mul(self, other)

    def __pow__(self, e: int):
        """self**e by binary exponentiation."""
        if type(e) is not int or e < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out, base = IntClass.integer(1), self
        while e:
            if e & 1:
                out = out * base
            e >>= 1
            if e:
                base = base * base
        return out

    def negate(self) -> "IntClass":
        """Negation: flips free coefficients, fixes torsion (2-torsion)."""
        return IntClass(tuple((k, -c) for k, c in self.free), self.torsion)

    __neg__ = negate

    def __str__(self):
        terms = [(c, mono_factors(k, "p")) for k, c in self.free]
        terms += [(1, tor_factors(*t)) for t in tor_terms(self.torsion)]
        return signed_sum_str(terms)

    def __repr__(self):
        return f"IntClass({self})"


def int_add(a: IntClass, b: IntClass) -> IntClass:
    return int_add_all((a, b))


def int_add_all(classes: Iterable[IntClass]) -> IntClass:
    """The sum of one or more classes in one pass: one collect_free of the
    free parts and one sum of the torsion parts."""
    classes = [check_value(a, IntClass) for a in classes]
    free = collect_free(t for a in classes for t in a.free)
    return IntClass(free, add_all(a.torsion for a in classes))


def _check_rank(n) -> int | None:
    """n, refused with a ValueError unless it is an int or None."""
    if n is not None and type(n) is not int:
        raise ValueError(f"rank must be an integer or None, got {n!r}")
    return n


def _validate_rank(a: IntClass, n: int | None) -> None:
    """Refuse a class with an index set invalid at rank n, naming the first
    such set in doubled order.  Refuses a value that is no IntClass first."""
    check_value(a, IntClass)
    if n is None:
        return
    invalid = [i for key in a.torsion.monomials for i, _ in key
               if i > 0 and n < _min_rank(i)]
    if invalid:
        IndexSet(min(map(mask_doubled, invalid))).require_valid_at(n)


def _with_odd_free(a: IntClass) -> MPoly2:
    """The torsion part plus the mod-2 image of the free part, in tor."""
    odd = [tor_key(k, ()) for k, c in a.free if c % 2]
    return MPoly2(a.torsion.monomials.union(odd), TOR) if odd else a.torsion


def int_mul(
    a: IntClass, b: IntClass, n: int | None = None, ctx: RingContext = UNBOUNDED
) -> IntClass:
    """Formal product.  V-index sets must be valid at rank n, or at the ctx
    rank cap when n is None; products of V symbols stay formal monomials
    (equality is decided through rho).  A finite ctx degree cap drops
    monomials above it (a graded quotient)."""
    cap = check_value(ctx, RingContext).degree_cap
    rank = ctx.rank_cap if _check_rank(n) is None else n
    _validate_rank(a, rank)
    _validate_rank(b, rank)
    free = collect_free((mono_mul(k1, k2), c1 * c2)
                        for k1, c1 in a.free for k2, c2 in b.free
                        if cap is None or _p_degree(k1) + _p_degree(k2) <= cap)

    # (a mod 2) * (b mod 2) without the pure-p products, which belong to the
    # free part; every other product keeps a V factor.
    if not (a.torsion or b.torsion):
        return IntClass(free)
    prod = mul(_with_odd_free(a), _with_odd_free(b), ctx)
    torsion = frozenset(k for k in prod.monomials if k and k[-1][0] > 0)
    return IntClass(free, MPoly2(torsion, TOR))


def doubled_w_monomial(ds) -> MPoly2:
    """The single monomial prod w_d over ascending doubled indices d: the
    product of the w_{2i} over an index set, the half index giving w_1."""
    return MPoly2(frozenset({tuple((d, 1) for d in ds)}), SW)


@lru_cache(maxsize=4096)
def _rho_image(i: int, ctx: RingContext) -> MPoly2:
    """rho of the tor variable i: w_{2k}^2 for p_k, Sq1 of the product of
    the w_d over the doubled indices d of I for V_I."""
    if i < 0:
        return square(w(-2 * i), ctx)
    return sq1(doubled_w_monomial(mask_doubled(i)), ctx)


def rho(a: IntClass, ctx: RingContext = UNBOUNDED) -> MPoly2:
    """Mod-2 reduction: coefficients mod 2, p_i to w_{2i}^2, V_I to
    Sq1 of the product of the w_{2i}, context-reduced.  Index sets must be
    valid at the ctx rank cap."""
    _validate_rank(a, check_value(ctx, RingContext).rank_cap)
    return _rho(a, ctx)


@lru_cache(maxsize=8)
def _rho_memo(ctx: RingContext) -> tuple:
    """The (prefix memo, powers) pair of evaluate_monomials that every rho
    under the degree-capped ctx shares: products of powers of _rho_image
    and of their prefixes, each kept under the cap, so made once per
    process however many classes share a head."""
    return {}, {}


def _rho(a: IntClass, ctx: RingContext) -> MPoly2:
    """rho without the rank gate.  Under a degree cap it shares the ctx's
    _rho_memo; with none, nothing bounds the products, so the memo is the
    call's own."""
    memo, powers = (None, None) if ctx.degree_cap is None else _rho_memo(ctx)
    return evaluate_monomials(
        _with_odd_free(a).monomials, lambda i: _rho_image(i, ctx), SW, ctx, memo, powers
    )


def torsion_equal(a: IntClass, b: IntClass, ctx: RingContext = UNBOUNDED) -> bool:
    """Equality in the integral ring: exact free parts, rho-equal torsion.

    Refuses (rather than risk a wrong answer) when the degree cap truncates
    below the classes compared; a finite rank cap is the rank of the ring
    in which the comparison happens, and index sets must be valid there.
    """
    _validate_rank(a, check_value(ctx, RingContext).rank_cap)
    _validate_rank(b, ctx.rank_cap)
    needed = max(a.degree(), b.degree())
    require_degree_cap_at_least(ctx, needed, "torsion_equal")
    # rho and truncation are linear: the torsion parts are rho-equal exactly
    # when their sum has rho 0
    difference = IntClass((), a.torsion + b.torsion)
    return a.free == b.free and _rho(difference, ctx).is_zero()


# -- relation construction -------------------------------------------------
#
# Left-hand sides are built on V masks, the tor variable indices of the V_I
# (wring.tor_key): bit 0 for the half index, bit k for the integer k.  Set
# algebra is |, & and & ~, and a set of one index is one bit.


def _midrank_bit(n: int | None) -> int:
    """The bit of the index n/2, which the rank-n convention splits from the
    half index, or 0 when no convention applies (n odd, below 2 or None)."""
    return 1 << (n >> 1) if n is not None and n > 1 and n % 2 == 0 else 0


def _bits(mask: int) -> list:
    """The one-bit masks of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low)
        mask ^= low
    return out


def _convention(mask: int, n: int | None) -> list:
    """The V masks of the factors for a computed index set, applying the
    rank-n convention: a set holding both the half index and n/2 splits off
    V_{{n/2}}.  Any other set must be valid at rank n."""
    top = _midrank_bit(n)
    if top and mask & (1 | top) == 1 | top:
        rest = mask & ~(1 | top)
        if not rest:
            raise InvalidIndexSetError(
                f"V{IndexSet(mask_doubled(mask))} at rank {n} has no convention expansion"
            )
        return [top, *_convention(rest, n)]
    if n is not None and n < _min_rank(mask):
        IndexSet(mask_doubled(mask)).require_valid_at(n)
    return [mask]


def _tor_term(masks: list, ps: int = 0) -> MonomialKey:
    """The tor monomial, built by wring.tor_key, of V factors given
    as masks, times p_k for each integer index k of the mask ps: its half
    index stands for V_{{1/2}}, by the convention p_{1/2} = V_{{1/2}}.
    Repeated V factors merge into exponents."""
    if ps & 1:
        masks = [*masks, 1]
    counts: dict = {}
    for m in masks:
        counts[m] = counts.get(m, 0) + 1
    return tor_key([(low.bit_length() - 1, 1) for low in _bits(ps & ~1)], counts.items())


def _torsion_sum(keys: Iterable[MonomialKey]) -> IntClass:
    """The torsion class of the mod-2 sum of tor monomials."""
    acc: set = set()
    for key in keys:
        acc.symmetric_difference_update({key})
    return IntClass((), MPoly2(frozenset(acc), TOR))


def _pair_refusal(k: int, i: int, j: int) -> str | None:
    """The message refusing relation family k (2, 3 or 4) on index sets I
    and J, given as V masks, or None when it applies."""
    if i.bit_count() > j.bit_count():
        return "the cardinality of I must not exceed that of J"
    if k == 2:
        if not i & j:
            return "relation 2 needs intersecting I and J"
        if not i & ~j:
            return "relation 2 needs I not contained in J"
    elif k == 3:
        if i & ~j or i == j:
            return "relation 3 needs I a proper subset of J"
    elif k == 4:
        if i & j:
            return "relation 4 needs disjoint I and J"
        if i.bit_count() == j.bit_count() and i & -i >= j & -j:
            return "relation 4 with equal cardinalities needs min(I) < min(J)"
    return None


def _relation_lhs(k: int, i: int, j: int, n: int | None) -> IntClass:
    """Left-hand side of relation family k (2..6) on the V masks i of I and
    j of J at rank n, whose side conditions hold (relation checks them)."""
    if k == 6:
        top = _midrank_bit(n)
        return _torsion_sum([_tor_term([1], top), _tor_term([top, top])])
    if k == 5:
        return _torsion_sum(_tor_term([d, *_convention(i & ~d, n)]) for d in _bits(i))
    vij = _tor_term([i, j])
    if k == 2:
        return _torsion_sum([
            vij,
            _tor_term(_convention(i | j, n) + _convention(i & j, n)),
            _tor_term(_convention(i & ~j, n) + _convention(j & ~i, n), i & j),
        ])
    if k == 3:
        return _torsion_sum([vij] + [
            _tor_term([d, *_convention((j & ~i) | d, n)], i & ~d) for d in _bits(i)
        ])
    return _torsion_sum([vij] + [  # k == 4
        _tor_term([d, *_convention((i | j) & ~d, n)]) for d in _bits(i)
    ])


def relation(
    k: int,
    I: IndexSet | None = None,
    J: IndexSet | None = None,
    n: int | None = None,
) -> IntClass:
    """Left-hand side of relation family k (1..6) of the presentation.

    Side conditions (violations raise ValueError, as do any k other than
    the ints 1..6 and any n that is neither None nor an int, before any
    other check):
      1: any I.         2-4: |I|>1 and the pair conditions of _pair_refusal.
      5: |I|>1.         6: even n >= 2; no index sets.
    """
    if type(k) is not int or not 1 <= k <= 6:
        raise ValueError(f"unknown relation family {k!r}")
    _check_rank(n)
    if k == 1:
        if I is None:
            raise ValueError("relation 1 needs I")
        check_value(I, IndexSet).require_valid_at(n)
        return int_add(IntClass.V(I), IntClass.V(I))  # 2*V_I = 0

    if k == 6:
        if not _midrank_bit(n):
            raise ValueError("relation 6 needs an even rank of at least 2")
        return _relation_lhs(6, 0, 0, n)

    if I is None:
        raise ValueError(f"relation {k} needs I")
    check_value(I, IndexSet).require_valid_at(n)
    if len(I.doubled) <= 1:
        raise ValueError("the cardinality of I must exceed one")
    i = I.mask
    if k == 5:
        return _relation_lhs(5, i, 0, n)

    if J is None:
        raise ValueError(f"relation {k} needs J")
    check_value(J, IndexSet).require_valid_at(n)
    j = J.mask
    if refusal := _pair_refusal(k, i, j):
        raise ValueError(refusal)
    return _relation_lhs(k, i, j, n)


def _valid_index_sets(n: int, degree_cap: int) -> list:
    """All rank-n valid index sets of degree <= degree_cap, canonically
    ordered by (degree, doubled tuple)."""
    chosen = [()]  # ascending doubled tuples of degree <= degree_cap
    for d in [1, *range(2, min(n, degree_cap) + 1, 2)]:
        chosen += [ds + (d,) for ds in chosen if 1 + sum(ds) + d <= degree_cap]
    out = [s for s in map(IndexSet, chosen[1:]) if s.valid_at(n)]
    out.sort(key=lambda s: (s.degree(), s.doubled))
    return out


def _relation_cases(top: int, degree_cap: int) -> Iterator[tuple]:
    """The cases of families 2..5 up to rank `top` in report order, as
    (lowest rank, split rank, family, I mask, J mask, case id tail, params
    tail).  A case belongs to every rank from its lowest one up, so the
    cases of one rank, in order, make its report.  Its left-hand side is
    the stable one (rank None) except at the split rank _min_rank(I | J) - 1,
    the only rank where I | J can hold both the half index and n/2; it lies
    below the lowest rank unless I | J holds the half index and neither I
    nor J holds both.  The enumeration meets every side condition, so
    _relation_lhs needs no checks of relation's."""
    rows = [(s.mask, len(s.doubled), s.degree(), s.doubled, str(s))
            for s in _valid_index_sets(top, degree_cap)]
    degrees = [row[2] for row in rows]  # ascending, as sets are ordered
    for i, size_i, deg_i, ds_i, text_i in rows:
        if size_i <= 1:
            continue
        # the J with deg I + deg J <= degree_cap, in order
        for j, size_j, _, ds_j, text_j in rows[:bisect_right(degrees, degree_cap - deg_i)]:
            low, split = max(_min_rank(i), _min_rank(j)), _min_rank(i | j) - 1
            for k in (2, 3, 4):
                # family 2 is symmetric in I and J: dedup equal sizes
                if _pair_refusal(k, i, j) is None and not (
                    k == 2 and size_i == size_j and ds_i > ds_j
                ):
                    yield (low, split, k, i, j, f",I={text_i},J={text_j}]",
                           {"I": text_i, "J": text_j})
        if deg_i + 1 <= degree_cap:
            yield _min_rank(i), _min_rank(i) - 1, 5, i, 0, f",I={text_i}]", {"I": text_i}


@lru_cache(maxsize=4)
def _stable_table(degree_cap: int) -> tuple:
    """The relation sweep's rank-independent work at one degree cap, kept
    across calls and filled as they need it: the case lists by
    min(top rank, degree_cap), and each stable case's left-hand side and
    its rho at the cap by (family, I mask, J mask).  An index set of degree
    <= degree_cap is valid from a rank <= degree_cap on, so every higher
    top rank has the cases of degree_cap."""
    return {}, {}


def _sweep(ranks: Sequence[int], degree_cap: int) -> Iterator[tuple]:
    """Every case of the relation sweep, rank by rank in report order: each
    valid instantiation of families 2..6 at a rank n of `ranks` with degree
    <= degree_cap, as (case id, params, left-hand side, its rho at rank n).

    The cases up to the top rank, each stable left-hand side and its rho at
    the degree cap come from the cap's _stable_table, so they are made once
    per process; every rho is taken at the degree cap alone, sharing its
    _rho_memo.  A rank cap drops the monomials with a w_i above it, a
    monomial ideal, and rho is a ring homomorphism, so rho at rank n is
    reduce_poly of rho at the degree cap, and a zero image, as in every
    passing case, is zero at every rank without it.  Split-rank and
    family-6 left-hand sides depend on n and are built at their rank."""
    stable = RingContext(degree_cap)
    contexts = [RingContext(degree_cap, n) for n in ranks]  # refuses bad ranks first
    by_top, images = _stable_table(degree_cap)
    top = min(max(ranks, default=0), degree_cap)
    if top not in by_top:
        by_top[top] = list(_relation_cases(top, degree_cap))
    for ctx in contexts:
        n = ctx.rank_cap
        fits6 = _midrank_bit(n) and 2 + 2 * n <= degree_cap
        rel6 = [(n, n, 6, 0, 0, "]", {})] if fits6 else []  # built at rank n
        for low, split, k, i, j, id_tail, params in by_top[top] + rel6:
            if low > n:
                continue
            if n == split:
                lhs = _relation_lhs(k, i, j, n)
                image = _rho(lhs, stable)
            else:
                key = k, i, j
                if key not in images:
                    lhs = _relation_lhs(k, i, j, None)
                    images[key] = lhs, _rho(lhs, stable)
                lhs, image = images[key]
            yield (f"rel{k}[n={n}{id_tail}", {"relation": k, "n": n, **params},
                   lhs, reduce_poly(image, ctx) if image else image)


def relation_report(name: str, ranks: Sequence[int], degree_cap: int) -> Report:
    """The report `name` of the cases of _sweep: a case passes when its
    left-hand side has no free part and rho 0 at its rank."""
    if degree_cap is None:
        raise ValueError("the relation sweep needs a degree cap, not None")
    if None in ranks:
        raise ValueError("the relation sweep needs a rank cap, not None")
    report = Report(name)
    for case_id, params, lhs, image in _sweep(ranks, degree_cap):
        report.check(case_id, params, not lhs.free and image.is_zero(),
                     "free part is nonzero" if lhs.free else "rho = {}", image)
    return report


def verify_relations(n: int, degree_cap: int) -> Report:
    """The relation sweep at the one rank n (relation_report)."""
    return relation_report(f"relations[n={n},degree<={degree_cap}]", [n], degree_cap)
