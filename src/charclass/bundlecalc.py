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

from dataclasses import dataclass, field
from itertools import combinations

from .errors import CapsTooSmallError
from .wring import (
    EXT,
    ROOT,
    SW,
    UNBOUNDED,
    MPoly2,
    RingContext,
    check_sw,
    check_value,
    constant_term,
    evaluate_monomials,
    graded_parts,
    mul,
    reduce_poly,
    square,
    v,
)


def to_ext(a: MPoly2) -> MPoly2:
    """An sw polynomial as an oracle-ring value; ext values pass through."""
    if check_value(a).namespace == EXT:
        return a
    check_sw(a, "only sw polynomials embed into the oracle ring")
    return MPoly2(a.monomials, EXT)


# Aliases of wring.mul and reduce_poly for ext values.  Only bench/tracing.py
# needs them: it binds both by name at install.
def ext_mul(a: MPoly2, b: MPoly2, ctx: RingContext = UNBOUNDED) -> MPoly2:
    """Product in the oracle ring: wring.mul on ext values."""
    return mul(a, b, ctx)


ext_reduce = reduce_poly


@dataclass(frozen=True, slots=True, repr=False)
class FormalBundle:
    """A bundle given by its total class (constant term 1) and a rank bound.

    rank_bound None means unbounded (a stable bundle).  Construction files
    the total's monomials by degree, once, in `_grades`, which sw() reads.
    `_powers` maps a RingContext with a degree cap d to the powers
    evaluate_class has built under it, {(i, e): sw(bundle, i)^e as a factor
    of _sum_products}: at most sum_{i<=d} d // i of them, valid for the
    bundle's life.
    """

    total: MPoly2
    rank_bound: int | None = None
    _grades: dict = field(init=False, compare=False)
    _powers: dict = field(init=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.total, MPoly2):
            raise TypeError("total class must be an MPoly2")
        if constant_term(self.total) != 1:
            raise ValueError("a total class must have constant term 1")
        if self.rank_bound is not None and (
            type(self.rank_bound) is not int or self.rank_bound < 0
        ):
            raise ValueError("rank bound must be a nonnegative integer or None")
        object.__setattr__(self, "_grades", graded_parts(self.total))
        object.__setattr__(self, "_powers", {})

    def __repr__(self):
        return f"FormalBundle({self.total}, rank_bound={self.rank_bound})"


def universal_bundle(ctx: RingContext) -> FormalBundle:
    """Total class 1 + w1 + w2 + ... up to the context caps."""
    bound = check_value(ctx, RingContext).rank_cap
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
    if check_value(ctx, RingContext).degree_cap is None:
        raise CapsTooSmallError("the fiber bundle needs a finite degree cap")
    keys = {()} | {((-i, 1),) for i in range(1, ctx.degree_cap + 1)}
    return FormalBundle(MPoly2(frozenset(keys), EXT), None)


def roots_bundle(m: int, ctx: RingContext = UNBOUNDED) -> FormalBundle:
    """Splitting-principle bundle with total class prod_{i<=m} (1 + r_i): the
    square-free monomials in r_1..r_m, of degree at most the ctx degree cap."""
    if type(m) is not int or m < 1:
        raise ValueError("roots bundle needs a positive integer number of roots")
    cap = check_value(ctx, RingContext).degree_cap
    top = m if cap is None else min(m, cap)
    keys = (tuple((i, 1) for i in roots)
            for d in range(top + 1) for roots in combinations(range(1, m + 1), d))
    return FormalBundle(MPoly2(frozenset(keys), ROOT), m)


def whitney_sum(
    a: FormalBundle, b: FormalBundle, ctx: RingContext = UNBOUNDED
) -> FormalBundle:
    """Total class of a sum is the product of total classes; ranks add.
    A plain sw bundle summed with an oracle-ring one embeds first."""
    ta, tb = check_value(a, FormalBundle).total, check_value(b, FormalBundle).total
    if EXT in (ta.namespace, tb.namespace):
        ta, tb = to_ext(ta), to_ext(tb)
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
    total = square(check_value(a, FormalBundle).total, ctx)
    bound = None if a.rank_bound is None else 2 * a.rank_bound
    return FormalBundle(total, bound)


def sw(a: FormalBundle, k: int):
    """The degree-k class of the bundle; zero above the rank bound."""
    if type(k) is not int or k < 0:
        raise ValueError("class index must be a nonnegative integer")
    ns = check_value(a, FormalBundle).total.namespace
    if a.rank_bound is not None and k > a.rank_bound:
        return MPoly2.zero(ns)
    return a._grades.get(k) or MPoly2.zero(ns)


def chern_mod2(a: FormalBundle, k: int, ctx: RingContext = UNBOUNDED):
    """Mod-2 reduction of the k-th Chern class of the complexification:
    the degree-2k class of the underlying doubled bundle."""
    if type(k) is not int or k < 1:
        raise ValueError("Chern index must be a positive integer")
    return sw(underlying_of_complexification(a, ctx), 2 * k)


def pontrjagin_mod2(a: FormalBundle, i: int, ctx: RingContext = UNBOUNDED):
    """Mod-2 reduction of the i-th Pontrjagin class: chern_mod2 at 2i."""
    if type(i) is not int or i < 1:
        raise ValueError("Pontrjagin index must be a positive integer")
    return chern_mod2(a, 2 * i, ctx)


def evaluate_class(c: MPoly2, a: FormalBundle, ctx: RingContext = UNBOUNDED):
    """Evaluate a universal class (an sw polynomial in the w_i) on a bundle
    by substituting the bundle's classes.  Result lives in the bundle's
    ambient ring.  Calls on the bundle under one ctx with a degree cap
    share the powers of its classes (FormalBundle._powers); with no degree
    cap to bound them, the powers are the call's own, as the prefix trie
    always is."""
    c = reduce_poly(check_sw(c, "classes are polynomials in sw variables"), ctx)
    check_value(a, FormalBundle)
    powers = None if ctx.degree_cap is None else a._powers.setdefault(ctx, {})
    return evaluate_monomials(c.monomials, lambda i: sw(a, i), a.total.namespace,
                              ctx, powers=powers)


def cartan_restrict(c: MPoly2) -> MPoly2:
    """Restriction along the Cartan fiber inclusion: w_i maps to v_i, so any
    monomial containing a squared variable dies."""
    check_sw(c, "cartan_restrict expects an sw polynomial")
    return evaluate_monomials(c.monomials, v, EXT)
