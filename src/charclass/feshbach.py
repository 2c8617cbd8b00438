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
finite n > 1 a set may not contain both the half index and n/2.  The rank-n
conventions (p_{1/2} means V_{{1/2}}; a produced V-set containing both the
half index and n/2 splits as V_{{n/2}} times the remainder) are applied
when relation left-hand sides are constructed.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

from .errors import InvalidIndexSetError
from .report import FAIL, PASS, Report
from .steenrod import sq1
from .wring import (
    SW,
    TOR,
    UNBOUNDED,
    MonomialKey,
    MPoly2,
    RingContext,
    _mask_doubled,
    add_all,
    evaluate_monomials,
    index_str,
    mono_factors,
    mono_mul,
    mul,
    require_degree_cap_at_least,
    square,
    tor_factors,
    tor_key,
    tor_terms,
    w,
)

HALF = Fraction(1, 2)

# Largest V index.  The tor namespace stores V_I as a bit mask with bit k set
# for index k (wring.tor_key), so a V factor costs memory linear in its
# index; without a bound, V{99999999999} would ask for gigabytes.  The
# degree of V{2**15}, 1 + 2**16, lies far above the degree caps in use (tens
# to a few thousand).
MAX_V_INDEX = 1 << 15


def _to_doubled(index) -> int:
    if isinstance(index, str):
        if index.strip() == "1/2":
            return 1
        index = int(index)
    if isinstance(index, Fraction):
        d = 2 * index
        if d.denominator != 1 or d < 1:
            raise InvalidIndexSetError(f"index {index} is not 1/2 or a positive integer")
        d = int(d)
        if d != 1 and d % 2 == 1:
            raise InvalidIndexSetError(f"index {index} is not 1/2 or a positive integer")
        return d
    if isinstance(index, int):
        if index < 1:
            raise InvalidIndexSetError("integer indices must be positive")
        return 2 * index
    raise InvalidIndexSetError(f"cannot read index {index!r}")


class IndexSet:
    """Finite nonempty set of V-indices, stored as ascending doubled ints."""

    __slots__ = ("doubled",)

    def __init__(self, doubled: Iterable[int]):
        ds = tuple(sorted(set(doubled)))
        if not ds:
            raise InvalidIndexSetError("index sets must be nonempty")
        for d in ds:
            if d < 1 or (d != 1 and d % 2 == 1):
                raise InvalidIndexSetError(
                    f"doubled index {d} does not encode 1/2 or a positive integer"
                )
            if d > 2 * MAX_V_INDEX:
                raise InvalidIndexSetError(
                    f"V index {d // 2} is above the limit {MAX_V_INDEX}"
                )
        self.doubled = ds

    @classmethod
    def of(cls, *indices) -> "IndexSet":
        """Build from human-readable indices: ints, Fraction(1,2), or '1/2'."""
        return cls(_to_doubled(i) for i in indices)

    def degree(self) -> int:
        return 1 + sum(self.doubled)

    def valid_at(self, n: int | None) -> bool:
        if n is None:
            return True
        if any(d != 1 and d > n for d in self.doubled):
            return False
        if n > 1 and 1 in self.doubled and n in self.doubled:
            return False  # may not contain both 1/2 and n/2
        return True

    def require_valid_at(self, n: int | None) -> None:
        if not self.valid_at(n):
            raise InvalidIndexSetError(f"index set {self} is not valid at rank {n}")

    def __eq__(self, other):
        return isinstance(other, IndexSet) and self.doubled == other.doubled

    def __hash__(self):
        return hash(self.doubled)

    def __str__(self):
        return "{" + ",".join(index_str(d) for d in self.doubled) + "}"

    def __repr__(self):
        return f"IndexSet.of({', '.join(index_str(d) for d in self.doubled)})"


# free part: dict p_key -> nonzero int, frozen to a sorted tuple
# torsion part: an MPoly2 in the wring namespace tor (p_i is variable -i,
#   V_I the bit mask of I: bit 0 for 1/2, bit k for k), each monomial with a
#   V factor; wring.tor_key / tor_terms encode and decode it.  A rank cap
#   truncates only w_i, so tor values keep every mask; _validate_rank is the
#   one gate that refuses index sets invalid at a rank.
PKey = tuple


def _p_degree(p_key: PKey) -> int:
    return sum(4 * i * e for i, e in p_key)


def _freeze_free(d: dict) -> tuple:
    items = [(k, c) for k, c in d.items() if c]
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


class IntClass:
    """Element of the integral class ring: an integer polynomial in the p_i
    plus a formal 2-torsion polynomial in p_i and V_I over the field with
    two elements (2*V_I = 0 is built into the representation)."""

    __slots__ = ("free", "torsion")

    def __init__(self, free: tuple = (), torsion: MPoly2 = MPoly2.zero(TOR)):
        self.free = free
        self.torsion = torsion

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "IntClass":
        return cls()

    @classmethod
    def integer(cls, n: int) -> "IntClass":
        return cls(((() , n),) if n else ())

    @classmethod
    def p(cls, i: int) -> "IntClass":
        if i < 1:
            raise ValueError("Pontrjagin index must be positive")
        return cls(((((i, 1),), 1),))

    @classmethod
    def V(cls, indices) -> "IntClass":
        iset = indices if isinstance(indices, IndexSet) else IndexSet.of(*indices)
        return cls((), MPoly2(frozenset({tor_key((), ((iset.doubled, 1),))}), TOR))

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

    def index_sets(self) -> set:
        return {_mask_doubled(i) for i in self.torsion.variables() if i > 0}

    def __eq__(self, other):
        return (
            isinstance(other, IntClass)
            and self.free == other.free
            and self.torsion == other.torsion
        )

    def __hash__(self):
        return hash((self.free, self.torsion))

    def __add__(self, other):
        return int_add(self, other)

    def __sub__(self, other):
        return int_add(self, other.negate())

    def __mul__(self, other):
        return int_mul(self, other)

    def __pow__(self, e: int):
        """self**e as the e-fold product."""
        if e < 0:
            raise ValueError("exponent must be nonnegative")
        out = IntClass.integer(1)
        for _ in range(e):
            out = out * self
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
    """The sum of one or more classes in one pass: one coefficient dict for
    the free parts and one sum of the torsion parts."""
    free: dict = {}
    torsions = []
    for a in classes:
        for k, c in a.free:
            free[k] = free.get(k, 0) + c
        torsions.append(a.torsion)
    return IntClass(_freeze_free(free), add_all(torsions))


@lru_cache(maxsize=4096)
def _mask_valid_at(mask: int, n: int) -> bool:
    return IndexSet(_mask_doubled(mask)).valid_at(n)


def _validate_rank(a: IntClass, n: int | None) -> None:
    """Refuse a class with an index set invalid at rank n, naming the first
    such set in doubled order."""
    if n is None:
        return
    for key in a.torsion.monomials:
        for i, _ in key:
            if i > 0 and not _mask_valid_at(i, n):
                first = min(_mask_doubled(m) for m in a.torsion.variables()
                            if m > 0 and not _mask_valid_at(m, n))
                IndexSet(first).require_valid_at(n)


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
    rank = ctx.rank_cap if n is None else n
    _validate_rank(a, rank)
    _validate_rank(b, rank)
    cap = ctx.degree_cap

    free: dict = {}
    for k1, c1 in a.free:
        for k2, c2 in b.free:
            if cap is not None and _p_degree(k1) + _p_degree(k2) > cap:
                continue
            k = mono_mul(k1, k2)
            free[k] = free.get(k, 0) + c1 * c2

    # (a mod 2) * (b mod 2) without the pure-p products, which belong to the
    # free part; every other product keeps a V factor.
    if not (a.torsion or b.torsion):
        return IntClass(_freeze_free(free))
    prod = mul(_with_odd_free(a), _with_odd_free(b), ctx)
    torsion = frozenset(k for k in prod.monomials if k and k[-1][0] > 0)
    return IntClass(_freeze_free(free), MPoly2(torsion, TOR))


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
    return sq1(doubled_w_monomial(_mask_doubled(i)), ctx)


def rho(
    a: IntClass, ctx: RingContext = UNBOUNDED, powers: dict | None = None
) -> MPoly2:
    """Mod-2 reduction: coefficients mod 2, p_i to w_{2i}^2, V_I to
    Sq1 of the product of the w_{2i}, context-reduced.  Index sets must be
    valid at the ctx rank cap.  Calls with the same ctx may share one
    `powers` dict, the memo of evaluate_monomials."""
    _validate_rank(a, ctx.rank_cap)
    return evaluate_monomials(
        _with_odd_free(a).monomials, lambda i: _rho_image(i, ctx), SW, ctx, powers
    )


def torsion_equal(a: IntClass, b: IntClass, ctx: RingContext = UNBOUNDED) -> bool:
    """Equality in the integral ring: exact free parts, rho-equal torsion.

    Refuses (rather than risk a wrong answer) when the degree cap truncates
    below the classes compared; a finite rank cap is the rank of the ring
    in which the comparison happens, and index sets must be valid there.
    """
    needed = max(a.degree(), b.degree())
    require_degree_cap_at_least(ctx, needed, "torsion_equal")
    image_a, image_b = rho(a.torsion_part(), ctx), rho(b.torsion_part(), ctx)
    return a.free == b.free and image_a == image_b


# -- relation construction -------------------------------------------------


def _convention(ds, n: int | None) -> list:
    """The doubled index sets of the V factors for a computed index set,
    applying the rank-n convention: a set containing both the half index
    and n/2 splits off V_{{n/2}}."""
    if n is not None and n > 1 and 1 in ds and n in ds:
        rest = ds - {1, n}
        if not rest:
            raise InvalidIndexSetError(
                f"V{IndexSet(ds)} at rank {n} has no convention expansion"
            )
        return [(n,), *_convention(rest, n)]
    iset = IndexSet(ds)
    iset.require_valid_at(n)
    return [iset.doubled]


def _tor_term(sets: list, ps: frozenset = frozenset()) -> MonomialKey:
    """The tor monomial of V factors, given as doubled index sets, times p
    for each doubled index in the set ps: p_{1/2} means V_{{1/2}} by
    convention.  Repeated V factors merge into exponents."""
    if 1 in ps:
        sets = sets + [(1,)]
    p_key = [(d // 2, 1) for d in sorted(ps) if d != 1]
    return tor_key(p_key, Counter(sets).items())


def _torsion_sum(keys: Iterable[MonomialKey]) -> IntClass:
    """The torsion class of the mod-2 sum of tor monomials."""
    acc: set = set()
    for key in keys:
        acc.symmetric_difference_update({key})
    return IntClass((), MPoly2(frozenset(acc), TOR))


def _pair_refusal(k: int, si: frozenset, sj: frozenset) -> str | None:
    """The message refusing relation family k (2, 3 or 4) on index sets I
    and J, given as sets of doubled indices, or None when it applies."""
    if len(si) > len(sj):
        return "the cardinality of I must not exceed that of J"
    if k == 2:
        if not (si & sj):
            return "relation 2 needs intersecting I and J"
        if si <= sj:
            return "relation 2 needs I not contained in J"
    elif k == 3:
        if not (si < sj):
            return "relation 3 needs I a proper subset of J"
    elif k == 4:
        if si & sj:
            return "relation 4 needs disjoint I and J"
        if len(si) == len(sj) and min(si) >= min(sj):
            return "relation 4 with equal cardinalities needs min(I) < min(J)"
    return None


def relation(
    k: int,
    I: IndexSet | None = None,
    J: IndexSet | None = None,
    n: int | None = None,
) -> IntClass:
    """Left-hand side of relation family k (1..6) of the presentation.

    Side conditions (violations raise ValueError):
      1: any I.         2-4: |I|>1 and the pair conditions of _pair_refusal.
      5: |I|>1.         6: even finite n; no index sets.
    """
    if k == 1:
        if I is None:
            raise ValueError("relation 1 needs I")
        I.require_valid_at(n)
        return int_add(IntClass.V(I), IntClass.V(I))  # 2*V_I = 0

    if k == 6:
        if n is None or n % 2 != 0 or n < 2:
            raise ValueError("relation 6 needs a finite even rank")
        vn = IndexSet({n}).doubled
        return _torsion_sum([_tor_term([(1,)], frozenset({n})), _tor_term([vn, vn])])

    if I is None:
        raise ValueError(f"relation {k} needs I")
    I.require_valid_at(n)
    si = frozenset(I.doubled)
    if len(si) <= 1:
        raise ValueError("the cardinality of I must exceed one")

    if k == 5:
        return _torsion_sum(
            _tor_term([(d,), *_convention(si - {d}, n)]) for d in I.doubled
        )

    if J is None:
        raise ValueError(f"relation {k} needs J")
    J.require_valid_at(n)
    sj = frozenset(J.doubled)
    if refusal := _pair_refusal(k, si, sj):
        raise ValueError(refusal)
    vij = _tor_term([I.doubled, J.doubled])

    if k == 2:
        return _torsion_sum([
            vij,
            _tor_term(_convention(si | sj, n) + _convention(si & sj, n)),
            _tor_term(_convention(si - sj, n) + _convention(sj - si, n), si & sj),
        ])

    if k == 3:
        return _torsion_sum([vij] + [
            _tor_term([(d,), *_convention((sj - si) | {d}, n)], si - {d})
            for d in I.doubled
        ])

    if k == 4:
        return _torsion_sum([vij] + [
            _tor_term([(d,), *_convention((si | sj) - {d}, n)]) for d in I.doubled
        ])

    raise ValueError(f"unknown relation family {k}")


def _valid_index_sets(n: int, degree_cap: int) -> list:
    """All rank-n valid index sets of degree <= degree_cap, canonically
    ordered by (degree, doubled tuple)."""
    pool = [1] + [d for d in range(2, n + 1, 2)]
    out = []

    def extend(chosen: tuple, degree: int, start: int) -> None:
        # the pool ascends, so the first index over the cap ends the branch
        for j in range(start, len(pool)):
            if degree + pool[j] > degree_cap:
                break
            iset = IndexSet(chosen + (pool[j],))
            if iset.valid_at(n):
                out.append(iset)
            extend(iset.doubled, degree + pool[j], j + 1)

    extend((), 1, 0)
    out.sort(key=lambda s: (s.degree(), s.doubled))
    return out


def verify_relations(n: int, degree_cap: int) -> Report:
    """Check rho(LHS) = 0 in the rank-n ring for every valid instantiation
    of relation families 2..6 with degree <= degree_cap."""
    ctx = RingContext(degree_cap, n)
    report = Report(f"relations[n={n},degree<={degree_cap}]")
    sets = _valid_index_sets(n, degree_cap)
    frozen = [frozenset(s.doubled) for s in sets]
    degrees = [s.degree() for s in sets]  # ascending, as sets are ordered
    powers: dict = {}  # rho's factor powers, shared by the cases of this call

    def check(case_id: str, params: dict, lhs: IntClass):
        image = rho(lhs, ctx, powers)
        if lhs.free:
            report.add(case_id, params, FAIL, "free part is nonzero")
        elif image.is_zero():
            report.add(case_id, params, PASS)
        else:
            report.add(case_id, params, FAIL, f"rho = {image}")

    for I, si, deg_i in zip(sets, frozen, degrees):
        if len(si) <= 1:
            continue
        # the J with deg I + deg J <= degree_cap, in order
        for j in range(bisect_right(degrees, degree_cap - deg_i)):
            J, sj = sets[j], frozen[j]
            for k in (2, 3, 4):
                # family 2 is symmetric in I and J: dedup equal sizes
                if _pair_refusal(k, si, sj) is None and not (
                    k == 2 and len(si) == len(sj) and I.doubled > J.doubled
                ):
                    check(f"rel{k}[n={n},I={I},J={J}]",
                          {"relation": k, "n": n, "I": str(I), "J": str(J)},
                          relation(k, I, J, n=n))
        if deg_i + 1 <= degree_cap:
            check(f"rel5[n={n},I={I}]", {"relation": 5, "n": n, "I": str(I)},
                  relation(5, I, n=n))
    if n % 2 == 0 and 2 + 2 * n <= degree_cap:
        check(f"rel6[n={n}]", {"relation": 6, "n": n}, relation(6, n=n))
    return report
