"""Formal bundle calculus over total Stiefel-Whitney classes.

A bundle is its total class (constant term 1) plus a rank bound; no base
space is modeled, since every identity this package verifies is an identity
of characteristic-class polynomials and those are determined on the
universal bundle by naturality.

Alongside the plain class ring this module provides the oracle ring
Lambda(v1, v2, ...) (x) Z2[w1, w2, ...]: the mod-2 cohomology of the product
of the infinite Cartan fiber with the real classifying space.  Its exterior
generators v_i square to zero.  The canonical test pair for complexifiable
classes lives here: the fiber bundle (total class 1 + v1 + v2 + ..., whose
complexification is trivial) against the universal bundle.
"""

from __future__ import annotations

from .errors import CapsTooSmallError, NamespaceMismatchError
from .wring import (
    EXT,
    ROOT,
    SW,
    UNBOUNDED,
    MPoly2,
    RingContext,
    add,
    constant_term,
    evaluate_monomials,
    graded_parts,
    mul,
    reduce_poly,
    square,
)


def to_ext(a: MPoly2) -> MPoly2:
    """An sw polynomial as an oracle-ring value; ext values pass through."""
    if a.namespace == EXT:
        return a
    if a.namespace != SW:
        raise NamespaceMismatchError(
            "only sw polynomials embed into the oracle ring"
        )
    return MPoly2(a.monomials, EXT)


# Aliases of wring.mul and reduce_poly for ext values.  Only bench/tracing.py
# needs them: it binds both by name at install.
def ext_mul(a: MPoly2, b: MPoly2, ctx: RingContext = UNBOUNDED) -> MPoly2:
    """Product in the oracle ring: wring.mul on ext values."""
    return mul(a, b, ctx)


ext_reduce = reduce_poly


class FormalBundle:
    """A bundle given by its total class (constant term 1) and a rank bound.

    rank_bound None means unbounded (a stable bundle).  Do not mutate: the
    first sw() call files the total's monomials by degree, once, and every
    later call reads those buckets.  They take no part in equality, hashing,
    repr or serialization.
    """

    __slots__ = ("total", "rank_bound", "_grades")

    def __init__(self, total, rank_bound: int | None = None):
        if not isinstance(total, MPoly2):
            raise TypeError("total class must be an MPoly2")
        if constant_term(total) != 1:
            raise ValueError("a total class must have constant term 1")
        if rank_bound is not None and (
            not isinstance(rank_bound, int) or rank_bound < 0
        ):
            raise ValueError("rank bound must be a nonnegative integer or None")
        self.total = total
        self.rank_bound = rank_bound
        self._grades = None

    def __eq__(self, other):
        return (
            isinstance(other, FormalBundle)
            and self.total == other.total
            and self.rank_bound == other.rank_bound
        )

    def __hash__(self):
        return hash((self.total, self.rank_bound))

    def __repr__(self):
        return f"FormalBundle({self.total}, rank_bound={self.rank_bound})"


def universal_bundle(ctx: RingContext) -> FormalBundle:
    """Total class 1 + w1 + w2 + ... up to the context caps."""
    bound = ctx.rank_cap
    if ctx.degree_cap is not None:
        bound = ctx.degree_cap if bound is None else min(bound, ctx.degree_cap)
    if bound is None:
        raise CapsTooSmallError(
            "the universal bundle needs a finite degree or rank cap"
        )
    keys = {()} | {((i, 1),) for i in range(1, bound + 1)}
    return FormalBundle(MPoly2(frozenset(keys), SW), ctx.rank_cap)


def trivial_bundle() -> FormalBundle:
    return FormalBundle(MPoly2.one(SW), 0)


def fiber_bundle(ctx: RingContext) -> FormalBundle:
    """Total class 1 + v1 + v2 + ... : the pullback of the universal bundle
    to the Cartan fiber, which complexifies trivially."""
    if ctx.degree_cap is None:
        raise CapsTooSmallError("the fiber bundle needs a finite degree cap")
    keys = {()} | {((-i, 1),) for i in range(1, ctx.degree_cap + 1)}
    return FormalBundle(MPoly2(frozenset(keys), EXT), None)


def roots_bundle(m: int, ctx: RingContext = UNBOUNDED) -> FormalBundle:
    """Splitting-principle bundle with total class prod_{i<=m} (1 + r_i)."""
    if m < 1:
        raise ValueError("roots bundle needs at least one root")
    total = MPoly2.one(ROOT)
    for i in range(1, m + 1):
        factor = add(MPoly2.one(ROOT), MPoly2.gen(i, ROOT))
        total = mul(total, factor, ctx)
    return FormalBundle(total, m)


def whitney_sum(
    a: FormalBundle, b: FormalBundle, ctx: RingContext = UNBOUNDED
) -> FormalBundle:
    """Total class of a sum is the product of total classes; ranks add.
    A plain sw bundle summed with an oracle-ring one embeds first."""
    ta, tb = a.total, b.total
    if EXT in (ta.namespace, tb.namespace):
        ta, tb = to_ext(ta), to_ext(tb)
    elif ta.namespace != tb.namespace:
        raise NamespaceMismatchError(
            "cannot combine bundles over different variable namespaces"
        )
    total = mul(ta, tb, ctx)
    if a.rank_bound is None or b.rank_bound is None:
        bound = None
    else:
        bound = a.rank_bound + b.rank_bound
    return FormalBundle(total, bound)


def underlying_of_complexification(
    a: FormalBundle, ctx: RingContext = UNBOUNDED
) -> FormalBundle:
    """The real bundle underlying the complexification: total class squared,
    rank doubled."""
    total = square(a.total, ctx)
    bound = None if a.rank_bound is None else 2 * a.rank_bound
    return FormalBundle(total, bound)


def sw(a: FormalBundle, k: int):
    """The degree-k class of the bundle; zero above the rank bound."""
    if k < 0:
        raise ValueError("class index must be nonnegative")
    ns = a.total.namespace
    if a.rank_bound is not None and k > a.rank_bound:
        return MPoly2.zero(ns)
    if a._grades is None:
        a._grades = graded_parts(a.total)
    return a._grades.get(k) or MPoly2.zero(ns)


def chern_mod2(a: FormalBundle, k: int, ctx: RingContext = UNBOUNDED):
    """Mod-2 reduction of the k-th Chern class of the complexification:
    the degree-2k class of the underlying doubled bundle."""
    if k < 1:
        raise ValueError("Chern index must be positive")
    return sw(underlying_of_complexification(a, ctx), 2 * k)


def pontrjagin_mod2(a: FormalBundle, i: int, ctx: RingContext = UNBOUNDED):
    """Mod-2 reduction of the i-th Pontrjagin class: chern_mod2 at 2i."""
    if i < 1:
        raise ValueError("Pontrjagin index must be positive")
    return chern_mod2(a, 2 * i, ctx)


def evaluate_class(c: MPoly2, a: FormalBundle, ctx: RingContext = UNBOUNDED):
    """Evaluate a universal class (an sw polynomial in the w_i) on a bundle
    by substituting the bundle's classes.  Result lives in the bundle's
    ambient ring."""
    if c.namespace != SW:
        raise NamespaceMismatchError("classes are polynomials in sw variables")
    return evaluate_monomials(
        reduce_poly(c, ctx).monomials, lambda i: sw(a, i), a.total.namespace, ctx
    )


def cartan_restrict(c: MPoly2) -> MPoly2:
    """Restriction along the Cartan fiber inclusion: w_i maps to v_i, so any
    monomial containing a squared variable dies."""
    if c.namespace != SW:
        raise NamespaceMismatchError("cartan_restrict expects an sw polynomial")
    # distinct keys map to distinct keys, so nothing cancels
    out = frozenset(
        tuple((-i, 1) for i, _ in reversed(key))
        for key in c.monomials
        if all(e == 1 for _, e in key)
    )
    return MPoly2(out, EXT)
