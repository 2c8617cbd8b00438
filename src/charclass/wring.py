"""Sparse graded polynomial arithmetic over the two-element field.

This is the workhorse ring of the package: Z2[w1, w2, ...] with deg(w_i) = i,
the universal target of all mod-2 characteristic class computations.  A
second namespace of degree-1 "root" variables r_i backs the splitting
principle oracle, a third, "ext", holds the oracle ring
Lambda(v1, v2, ...) (x) Z2[w1, w2, ...] of the invariance oracle, and a
fourth, "tor", holds the 2-torsion part of Feshbach's integral ring.

Representation.  A monomial is a tuple of (index, exponent) pairs held in
strictly increasing index order with every exponent >= 1; the empty tuple is
the constant monomial.  In the ext namespace w_i keeps index i and the
exterior generator v_i takes index -i (degree i), so the v's lead the key.
In the tor namespace the Pontrjagin class p_i takes index -i (degree 4i)
and V_I takes the bit mask of I as its index: bit 0 is the half index and
bit k the integer k, so deg V_I = 1 + sum of the doubled indices.
A polynomial is a frozenset of such monomials (the coefficient field has two
elements, so presence is the coefficient and addition is symmetric
difference).  Values are immutable and hashable.

Truncation.  A RingContext carries an optional degree cap and an optional
rank cap (w_i = 0 for i above the rank cap).  Both drops, like the ext
namespace's v_i^2 = 0, are quotients by monomial ideals, so reducing before
or after an operation gives the same result; operations here reduce their
inputs first and prune during multiplication.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Iterable, Mapping

from .errors import CapsTooSmallError, MissingImageError, NamespaceMismatchError

SW = "sw"
ROOT = "root"
EXT = "ext"
TOR = "tor"

_LETTER = {SW: "w", ROOT: "r", EXT: "w", TOR: "p"}

MonomialKey = tuple  # tuple[tuple[int, int], ...]


def mono_degree(key: MonomialKey, namespace: str = SW) -> int:
    """Weighted degree of a monomial: sum(i*e) for sw, sum(e) for root,
    sum(|i|*e) for ext; for tor, 4i per p_i and 1 + sum(doubled) per V_I."""
    if namespace == SW:
        return sum(i * e for i, e in key)
    if namespace == ROOT:
        return sum(e for _, e in key)
    if namespace == EXT:
        return sum(abs(i) * e for i, e in key)
    return sum((-4 * i if i < 0 else 1 + sum(mask_doubled(i))) * e for i, e in key)


def mask_doubled(mask: int) -> tuple:
    """The ascending doubled indices of a tor V mask."""
    out = []
    while mask:
        low = mask & -mask
        out.append(2 * (low.bit_length() - 1) or 1)
        mask ^= low
    return tuple(out)


def mono_mul(k1: MonomialKey, k2: MonomialKey) -> MonomialKey:
    """Merge two sorted exponent tuples, adding exponents."""
    if not k1:
        return k2
    if not k2:
        return k1
    out = []
    a, b = 0, 0
    n1, n2 = len(k1), len(k2)
    while a < n1 and b < n2:
        p1 = k1[a]
        p2 = k2[b]
        i1 = p1[0]
        i2 = p2[0]
        if i1 == i2:
            out.append((i1, p1[1] + p2[1]))
            a += 1
            b += 1
        elif i1 < i2:
            out.append(p1)  # share the pair rather than rebuild it
            a += 1
        else:
            out.append(p2)
            b += 1
    out.extend(k1[a:])
    out.extend(k2[b:])
    return tuple(out)


def mono_factors(key: MonomialKey, letter: str) -> list:
    """The factors of a monomial as text, such as ["w1^2", "w3"]."""
    return [f"{letter}{i}^{e}" if e > 1 else f"{letter}{i}" for i, e in key]


def index_str(d: int) -> str:
    """A doubled V index as text: "1/2" for 1, the integer d/2 otherwise."""
    return "1/2" if d == 1 else str(d // 2)


def _repeats_v(key: MonomialKey) -> bool:
    """Whether an ext monomial has a squared exterior generator; the v
    entries lead the key, so the scan stops at the first w."""
    for i, e in key:
        if i > 0:
            return False
        if e > 1:
            return True
    return False


def ext_terms(a: MPoly2) -> list:
    """The monomials of an ext polynomial as (ascending v indices, sw part),
    ordered by degree, then the v set as a bit mask, then the sw part."""
    rows = []
    for key in a.monomials:
        n = 0
        while n < len(key) and key[n][0] < 0:
            n += 1
        vs = [-i for i, _ in reversed(key[:n])]
        rows.append((mono_degree(key, EXT), sum(1 << v for v in vs), key[n:], vs))
    rows.sort()
    return [(vs, w_key) for _, _, w_key, vs in rows]


def v_mask(ds: Iterable[int]) -> int:
    """The tor variable of V_I, I given by its doubled indices: the bit mask
    of I, bit 0 for 1/2 and bit k for k."""
    return sum(1 << (d >> 1) for d in ds)


def tor_key(p_key: MonomialKey, v_key: Iterable) -> MonomialKey:
    """The tor monomial of a p part, ascending (i, e) pairs, times V
    factors given as (V mask, exponent) pairs with distinct masks: p_i is
    variable -i and V_I the bit mask of I (v_mask)."""
    return tuple((-i, e) for i, e in reversed(p_key)) + tuple(sorted(v_key))


def tor_terms(a: MPoly2) -> list:
    """The monomials of a tor polynomial as (p part, V factors), ordered by
    degree, then p part, then V factors.  The p part is ascending (i, e)
    pairs, as tor_key takes it; the V factors are (doubled indices,
    exponent) pairs ordered by their doubled indices, where tor_key takes
    (V mask, exponent) pairs."""
    rows = []
    for key in a.monomials:
        p_key = tuple((-i, e) for i, e in reversed(key) if i < 0)
        v_key = tuple(sorted((mask_doubled(i), e) for i, e in key if i > 0))
        rows.append((mono_degree(key, TOR), p_key, v_key))
    rows.sort()
    return [row[1:] for row in rows]


def tor_factors(p_key: MonomialKey, v_key: Iterable) -> list:
    """The factors of a tor monomial, given as tor_terms yields it, as text
    in the p_i and V{...} symbols."""
    out = mono_factors(p_key, "p")
    for ds, e in v_key:
        v = "V{" + ",".join(index_str(d) for d in ds) + "}"
        out.append(f"{v}^{e}" if e > 1 else v)
    return out


@dataclass(frozen=True, slots=True)
class RingContext:
    """Optional degree cap and rank cap; None means unbounded.

    The rank cap models working over BO_n: any sw or ext monomial with a
    w_i for i above the cap is dropped; v_i, roots and tor values take no
    rank cap.  In the ext namespace a monomial with a repeated v is dropped
    under any context.
    """

    degree_cap: int | None = None
    rank_cap: int | None = None

    def __post_init__(self):
        for name in ("degree_cap", "rank_cap"):
            cap = getattr(self, name)
            if cap is not None and (type(cap) is not int or cap < 0):
                raise ValueError(f"{name} must be a nonnegative integer or None")

    def admits(self, key: MonomialKey, namespace: str) -> bool:
        if namespace == EXT and _repeats_v(key):
            return False
        if (self.rank_cap is not None and namespace in (SW, EXT) and key
                and key[-1][0] > self.rank_cap):  # w's trail the v's in ext
            return False
        if self.degree_cap is not None and mono_degree(key, namespace) > self.degree_cap:
            return False
        return True

    def is_unbounded(self) -> bool:
        return self.degree_cap is None and self.rank_cap is None


UNBOUNDED = RingContext()


@dataclass(init=False, slots=True, unsafe_hash=True, repr=False)
class MPoly2:
    """Polynomial over the two-element field in graded generators.

    Do not mutate; all operations return fresh values.  Equality and
    hashing are structural (namespace + monomial set).
    """

    namespace: str
    monomials: frozenset

    def __init__(self, monomials: frozenset = frozenset(), namespace: str = SW):
        if namespace not in _LETTER:
            raise ValueError(f"unknown namespace {namespace!r}")
        self.namespace = namespace
        self.monomials = monomials

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, namespace: str = SW) -> "MPoly2":
        return cls(frozenset(), namespace)

    @classmethod
    def one(cls, namespace: str = SW) -> "MPoly2":
        return cls(frozenset({()}), namespace)

    @classmethod
    def gen(cls, index: int, namespace: str = SW) -> "MPoly2":
        if type(index) is not int or index < 1:
            raise ValueError("generator index must be positive")
        return cls(frozenset({((index, 1),)}), namespace)

    # -- queries -----------------------------------------------------------

    def degree(self) -> int:
        """Largest monomial degree; 0 for the zero polynomial."""
        if not self.monomials:
            return 0
        return max(mono_degree(k, self.namespace) for k in self.monomials)

    def variables(self) -> set:
        return {i for key in self.monomials for i, _ in key}

    def is_zero(self) -> bool:
        return not self.monomials

    def __bool__(self):
        return bool(self.monomials)

    # -- operator sugar (unbounded context) --------------------------------

    def __add__(self, other):
        if not isinstance(other, MPoly2):
            return NotImplemented
        return add(self, other, UNBOUNDED)

    def __mul__(self, other):
        if not isinstance(other, MPoly2):
            return NotImplemented
        return mul(self, other, UNBOUNDED)

    def __pow__(self, e: int):
        return power(self, e, UNBOUNDED)

    def __neg__(self):
        return self  # characteristic 2

    def __str__(self):
        return poly_str(self)

    def __repr__(self):
        return f"MPoly2({self})"


def graded_lex(a: MPoly2) -> list:
    """The monomial keys of a in graded-lex order: by degree, then by key."""
    return sorted(a.monomials, key=lambda k: (mono_degree(k, a.namespace), k))


def poly_str(a: MPoly2, letter: str | None = None) -> str:
    """Canonical text: monomials in graded-lex order, `letter` overriding
    the namespace letter (used for the u / rc symbol families); ext and tor
    monomials print decoded, in the order of ext_terms and tor_terms."""
    if not check_value(a).monomials:
        return "0"
    if a.namespace == EXT:
        monos = [[f"v{i}" for i in vs] + mono_factors(w_key, "w")
                 for vs, w_key in ext_terms(a)]
    elif a.namespace == TOR:
        monos = [tor_factors(p_key, v_key) for p_key, v_key in tor_terms(a)]
    else:
        letter = letter or _LETTER[a.namespace]
        monos = [mono_factors(k, letter) for k in graded_lex(a)]
    return " + ".join("*".join(m) or "1" for m in monos)


def w(index: int) -> MPoly2:
    """The Stiefel-Whitney generator w_index (degree = index)."""
    return MPoly2.gen(index, SW)


def r(index: int) -> MPoly2:
    """The splitting-principle root generator r_index (degree 1)."""
    return MPoly2.gen(index, ROOT)


def v(index: int) -> MPoly2:
    """The exterior generator v_index of the oracle ring (degree = index)."""
    if type(index) is not int or index < 1:
        raise ValueError("exterior generator index must be positive")
    return MPoly2(frozenset({((-index, 1),)}), EXT)


def check_value(x, kind: type = MPoly2):
    """x, refused with a TypeError naming the type expected unless it is
    an instance of kind."""
    if not isinstance(x, kind):
        got = type(x).__name__
        raise TypeError(f"cannot combine a polynomial with {got!r}" if kind is MPoly2
                        else f"expected {kind.__name__}, got {got!r}")
    return x


def check_sw(x, message: str) -> MPoly2:
    """x, refused unless it is an sw polynomial: a non-value by check_value,
    a value of another namespace by NamespaceMismatchError(message)."""
    if check_value(x).namespace != SW:
        raise NamespaceMismatchError(message)
    return x


def _check_namespaces(a: MPoly2, b: MPoly2) -> str:
    if not (isinstance(a, MPoly2) and isinstance(b, MPoly2)):
        check_value(b if isinstance(a, MPoly2) else a)
    if a.namespace != b.namespace:
        raise NamespaceMismatchError(
            f"cannot combine {a.namespace!r} and {b.namespace!r} polynomials"
        )
    return a.namespace


def reduce_poly(a: MPoly2, ctx: RingContext) -> MPoly2:
    """Drop monomials the context does not admit."""
    check_value(a)
    if check_value(ctx, RingContext).is_unbounded():
        return a
    kept = frozenset(k for k in a.monomials if ctx.admits(k, a.namespace))
    if len(kept) == len(a.monomials):
        return a
    return MPoly2(kept, a.namespace)


def add(a: MPoly2, b: MPoly2, ctx: RingContext = UNBOUNDED) -> MPoly2:
    """Sum = symmetric difference of monomial sets, context-reduced."""
    return add_all((a, b), ctx)


def add_all(polys: Iterable[MPoly2], ctx: RingContext = UNBOUNDED) -> MPoly2:
    """The sum of one or more polynomials of one namespace in one pass: the
    monomials occurring an odd number of times, context-reduced."""
    polys = iter(polys)
    first = next(polys, None)
    if first is None:
        raise ValueError("a sum needs at least one polynomial")
    check_value(first)
    acc = set(first.monomials)
    for b in polys:
        _check_namespaces(first, b)
        acc ^= b.monomials
    return reduce_poly(MPoly2(frozenset(acc), first.namespace), ctx)


# A sum of products of up to this many term pairs in all takes the dict loop,
# a larger one the packed kernel.  Ext and tor sums always take the dict loop:
# the kernel gives the same result for them, but packing gains nothing
# measured.  The oracle bench workload runs one ext sum of 8,375 term pairs
# per pass at seed 3 (8,460 at seed 4); sent to the kernel, its ops_per_s
# stayed flat (2,539 -> 2,487 at seed 3, 2,592 -> 2,681 at seed 4) and its
# peak RSS rose by 5 to 10 MB (42.8 -> 52.5, 44.5 -> 49.1), numpy being
# imported for it.
_PACK_THRESHOLD = 4096
# Words of packed pair sums held at once: a product's broadcast chunk, and the
# pending rows of a sum, counted down to their odd rows when they pass it.
_CHUNK_WORDS = 4_000_000
_ONE = [((), 0)]  # the constant 1 as a factor of _sum_products


def mul(a: MPoly2, b: MPoly2, ctx: RingContext = UNBOUNDED) -> MPoly2:
    """Product, distributing and cancelling mod 2, context-reduced."""
    return _mul_reduced(reduce_poly(a, ctx), reduce_poly(b, ctx), ctx)


def _mul_reduced(a: MPoly2, b: MPoly2, ctx: RingContext) -> MPoly2:
    """mul on operands the context already admits: no factor lies above the
    rank cap, so only the degree cap and a repeated v can drop a product."""
    ns = _check_namespaces(a, b)
    ka, kb = a.monomials, b.monomials
    if not ka or () in kb and len(kb) == 1:
        return a
    if not kb or () in ka and len(ka) == 1:
        return b
    cap = ctx.degree_cap
    pair = (_factor(ka, ns, cap), _factor(kb, ns, cap))
    return MPoly2(_sum_products([pair], ns, cap), ns)


def _factor(keys, ns, cap) -> list:
    """Distinct monomial keys as a factor of _sum_products: (key, degree)
    pairs, the degree 0 when there is no degree cap to compare it with."""
    if cap is None:
        return [(k, 0) for k in keys]
    return [(k, mono_degree(k, ns)) for k in keys]


def _sum_products(pairs, ns, cap) -> frozenset:
    """The odd monomials of the sum of left * right over the (left, right)
    pairs of factors, without products above the degree cap or, in ext,
    with a repeated v.  A factor lists context-reduced monomial keys with
    their degrees, as _factor makes it.  A constant side adds the other
    side's keys as they are.  A factor that recurs should be the same
    object, whose packed rows are then made once."""
    const, rest, total = set(), [], 0
    for a, b in pairs:
        if a == _ONE or b == _ONE:
            const.symmetric_difference_update(k for k, _ in (b if a == _ONE else a))
        else:
            rest.append((a, b))
            total += len(a) * len(b)
    small = total <= _PACK_THRESHOLD or ns in (EXT, TOR)
    out = (_mul_dict if small else _mul_packed)(rest, ns, cap)
    if ns == EXT:
        out = [k for k in out if not _repeats_v(k)]
    return frozenset(const).symmetric_difference(out) if const else frozenset(out)


def _mul_dict(pairs, ns, cap):
    """The dict path of _sum_products: every product toggled into one dict."""
    out: dict = {}
    for a, b in pairs:
        for k1, d1 in a:
            for k2, d2 in b:
                if cap is not None and d1 + d2 > cap:
                    continue
                k = mono_mul(k1, k2)
                if k in out:
                    del out[k]
                else:
                    out[k] = None
    return out


def _pack_stats(keys):
    """The variable indices occurring in keys, and the largest exponent."""
    indices = {i for key in keys for i, _ in key}
    max_exp = max((e for key in keys for _, e in key), default=0)
    return indices, max_exp


def _mul_packed(pairs, ns, cap):
    """The packed path of _sum_products.  Each exponent vector becomes a row
    of uint64 words holding whole fields of `bits` bits, one field per
    variable that occurs in any factor, so a product's exponent additions
    are one broadcast add over its pairs, and the rows of all products are
    counted mod 2 by np.unique.  Exponent sums wider than 64 bits fit no
    uint64 field and send the whole sum to the dict loop."""
    import numpy as np  # only here and in its helpers: most calls never pack

    pairs = [(a, b) for a, b in pairs if a and b]
    factors = {id(f): f for pair in pairs for f in pair}
    keys = {i: [k for k, _ in f] for i, f in factors.items()}
    stats = {i: _pack_stats(ks) for i, ks in keys.items()}
    columns = sorted(set().union(*(ix for ix, _ in stats.values())))
    bits = max([stats[id(a)][1] + stats[id(b)][1] for a, b in pairs] or [0])
    bits = bits.bit_length()
    if bits > 64 or not columns:
        return _mul_dict(pairs, ns, cap)
    fields, per = len(columns), 64 // bits
    words = -(-fields // per)
    field = {i: j for j, i in enumerate(columns)}  # field j holds columns[j]
    if cap is not None:  # factors by degree, so each left row keeps a prefix
        factors = {i: sorted(f, key=itemgetter(1)) for i, f in factors.items()}
        keys = {i: [k for k, _ in f] for i, f in factors.items()}
        degrees = {i: [d for _, d in f] for i, f in factors.items()}
    packed = {i: _pack(ks, field, bits, per, words) for i, ks in keys.items()}
    # a row of one word sorts fastest as a plain uint64, wider rows as bytes
    row = np.uint64 if words == 1 else np.dtype((np.void, 8 * words))
    parts, pending, budget = [], 0, _CHUNK_WORDS
    for a, b in pairs:
        pa, pb = packed[id(a)], packed[id(b)]
        if cap is not None:  # rows of pa by degree: their prefixes shrink
            deg_b = degrees[id(b)]
            hi = np.array([bisect_right(deg_b, cap - d) for d in degrees[id(a)]])
        chunk = max(1, _CHUNK_WORDS // (len(pb) * words))
        for lo in range(0, len(pa), chunk):
            top = len(pb) if cap is None else hi[lo]
            sums = pa[lo : lo + chunk, None] + pb[None, :top]
            if cap is not None:
                sums = sums[np.arange(top) < hi[lo : lo + chunk, None]]
            parts.append(sums.reshape(-1, words))
            pending += parts[-1].size
            if pending > budget:  # count the pending rows down to the odd ones
                parts = [_odd_rows(parts, row, words)]
                pending = parts[0].size
                budget = max(_CHUNK_WORDS, 2 * pending)
    odd = _odd_rows(parts, row, words)
    per = min(per, fields)  # fields in use per word
    exps = odd[:, :, None] >> (np.arange(per, dtype=np.uint64) * np.uint64(bits))
    exps &= np.uint64((1 << bits) - 1)
    return _decode(exps.reshape(-1, words * per), bits, columns)


def _odd_rows(parts, row, words) -> np.ndarray:
    """The rows of `words` words occurring an odd number of times in parts."""
    import numpy as np

    rows = np.concatenate(parts) if len(parts) > 1 else parts[0]
    vals, counts = np.unique(rows.view(row).ravel(), return_counts=True)
    return vals[counts & 1 == 1].view(np.uint64).reshape(-1, words)


def _pack(keys, field, bits, per, words) -> np.ndarray:
    """The keys as rows of `words` uint64 words, `per` fields to a word,
    variable i in field field[i]."""
    import numpy as np

    exps = np.zeros((len(keys), words * per), dtype=np.uint64)
    rows = np.repeat(np.arange(len(keys)), [len(k) for k in keys])
    exps[rows, [field[i] for k in keys for i, _ in k]] = [e for k in keys for _, e in k]
    shifts = np.arange(per, dtype=np.uint64) * np.uint64(bits)
    return (exps.reshape(len(keys), words, per) << shifts).sum(axis=2, dtype=np.uint64)


def _decode(matrix: np.ndarray, bits: int, columns: list) -> list:
    """The monomial keys of the rows of an (n, m) matrix of exponents below
    2**bits, column j holding the exponent of variable columns[j] (the
    columns ascending; a column past them must be zero).

    Like mono_mul, the keys share their (index, exponent) pairs: one tuple
    per distinct pair.  The rows are grouped by their number r of nonzero
    fields, and each group's keys are built at once, by one zip over the r
    columns of the group's pairs."""
    import numpy as np

    n, m = matrix.shape
    flat = np.flatnonzero(matrix)  # row by row, ascending index within a row
    exps = matrix.ravel()[flat]
    counts = np.bincount(flat // m, minlength=n)
    values = None
    if bits + (m - 1).bit_length() > 64:  # exps * m + cols would overflow
        values, exps = np.unique(exps, return_inverse=True)
        values = values.tolist()
    codes = exps.astype(np.uint64) * np.uint64(m) + (flat % m).astype(np.uint64)
    del flat, exps  # free the field arrays before the sort
    uniq, inverse = np.unique(codes, return_inverse=True)
    del codes
    pairs = np.fromiter(
        ((columns[c % m], c // m if values is None else values[c // m])
         for c in uniq.tolist()),
        dtype=object, count=len(uniq),
    )
    starts = np.cumsum(counts) - counts  # each row's first entry in inverse
    order = np.argsort(counts)  # the rows by nonzero count
    sizes = np.bincount(counts, minlength=1).tolist()  # rows per count
    keys, lo = [()] * sizes[0], sizes[0]
    for r, size in enumerate(sizes[1:], 1):  # the (r, size) pair ids of a group
        ids = inverse[starts[order[lo : lo + size]] + np.arange(r)[:, None]]
        keys += zip(*pairs[ids].tolist())
        lo += size
    return keys


def square(a: MPoly2, ctx: RingContext = UNBOUNDED) -> MPoly2:
    """Frobenius: squaring doubles every exponent, cross terms cancel."""
    check_value(a)
    check_value(ctx, RingContext)
    keys = set()
    for key in a.monomials:
        doubled = tuple((i, 2 * e) for i, e in key)
        if ctx.admits(doubled, a.namespace):
            keys.add(doubled)
    return MPoly2(frozenset(keys), a.namespace)


def power(a: MPoly2, e: int, ctx: RingContext = UNBOUNDED) -> MPoly2:
    """a**e by binary exponentiation (squaring is cheap here)."""
    if type(e) is not int or e < 0:
        raise ValueError("exponent must be a nonnegative integer")
    base = reduce_poly(a, ctx)
    result = MPoly2.one(a.namespace)
    while e:
        if e & 1:
            result = _mul_reduced(result, base, ctx)
        e >>= 1
        if e:
            base = square(base, ctx)
    return result


def graded_parts(a: MPoly2) -> dict:
    """The homogeneous pieces of a in one pass: degree -> nonzero piece,
    with no entry for a degree that has no monomial."""
    ns, buckets = check_value(a).namespace, {}
    for key in a.monomials:
        buckets.setdefault(mono_degree(key, ns), []).append(key)
    return {d: MPoly2(frozenset(keys), ns) for d, keys in buckets.items()}


def grade_component(a: MPoly2, k: int) -> MPoly2:
    """The homogeneous piece of degree exactly k."""
    return graded_parts(a).get(k) or MPoly2.zero(a.namespace)


def constant_term(a: MPoly2) -> int:
    """Coefficient of the empty monomial: 1 or 0."""
    return 1 if () in check_value(a).monomials else 0


@dataclass(frozen=True, slots=True)
class Hom:
    """The ring homomorphism sending variable i to images(i), a value in
    `namespace`; hom(monomials, ctx) is the sum over the monomials of the
    products of their images, context-reduced.

    The walk memoizes products of leading factors in a trie keyed by
    monomial prefix: trie[(i, e)] is the node of the one-factor prefix, and
    a node is (the product of its prefix, its children by next factor).  A
    one-factor node's product is image i to the power e, and a longer
    prefix's product is made once from its parent's and its last factor's,
    however many monomials share it.  The products are factors of
    _sum_products, which keep their keys' degrees, and every monomial's
    last factor is multiplied into its head by one _sum_products call.

    Memo rule: a Hom keeps one trie per RingContext with a degree cap, for
    at most 8 contexts, the least recently used dropped.  A context with
    no degree cap gets a fresh trie per call, since nothing bounds its
    products.  Nothing is keyed by an input class or a result, and the
    tries are not compared.
    """

    images: Callable[[int], MPoly2]
    namespace: str
    _tries: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __call__(self, monomials: Iterable[MonomialKey],
                 ctx: RingContext = UNBOUNDED) -> MPoly2:
        ns, cap = self.namespace, check_value(ctx, RingContext).degree_cap
        trie, one = {} if cap is None else self._trie(ctx), MPoly2.one(ns)

        def power_of(pair: tuple) -> tuple:
            node = trie.get(pair)
            if node is None:
                image = power(self.images(pair[0]), pair[1], ctx)
                _check_namespaces(one, image)
                node = trie[pair] = (_factor(image.monomials, ns, cap), {})
            return node

        pairs = []
        for key in monomials:
            head = _ONE
            if len(key) > 1:  # walk the trie down the head, key[:-1]
                node = power_of(key[0])
                for pair in key[1:-1]:
                    child = node[1].get(pair)
                    if child is None:
                        got = _sum_products([(node[0], power_of(pair)[0])], ns, cap)
                        child = node[1][pair] = (_factor(got, ns, cap), {})
                    node = child
                head = node[0]
            pairs.append((head, power_of(key[-1])[0] if key else _ONE))
        return MPoly2(_sum_products(pairs, ns, cap), ns)

    def _trie(self, ctx: RingContext) -> dict:
        """The trie of the degree-capped ctx, now the most recently used."""
        tries = self._tries
        trie = tries[ctx] = tries.pop(ctx, None) or {}
        if len(tries) > 8:
            del tries[next(iter(tries))]
        return trie


def substitute(
    a: MPoly2, images: Mapping[int, MPoly2], ctx: RingContext = UNBOUNDED
) -> MPoly2:
    """Ring-homomorphism extension of a variable assignment.

    Every variable occurring in `a` needs an image; images must share a
    namespace (which becomes the result namespace).
    """
    check_value(a)
    occurring = a.variables()
    missing = occurring - set(images)
    if missing:
        raise MissingImageError(f"no image for variable index {min(missing)}")
    namespaces = {check_value(images[i]).namespace for i in occurring}
    if len(namespaces) > 1:
        raise NamespaceMismatchError("substitution images mix namespaces")
    ns = namespaces.pop() if namespaces else a.namespace
    return Hom(images.__getitem__, ns)(a.monomials, ctx)


def require_degree_cap_at_least(ctx: RingContext, needed: int, what: str) -> None:
    """Refuse to answer when the context truncates below `needed`."""
    if check_value(ctx, RingContext).degree_cap is not None and ctx.degree_cap < needed:
        raise CapsTooSmallError(
            f"{what} needs degree_cap >= {needed}, got {ctx.degree_cap}"
        )


def require_rank_cap_at_least(ctx: RingContext, needed: int, what: str) -> None:
    if check_value(ctx, RingContext).rank_cap is not None and ctx.rank_cap < needed:
        raise CapsTooSmallError(
            f"{what} needs rank_cap >= {needed}, got {ctx.rank_cap}"
        )
