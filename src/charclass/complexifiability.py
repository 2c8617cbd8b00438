"""Decision procedures for complexifiable characteristic classes.

A mod-2 class is complexifiable exactly when it lies in the sub-ring
generated by the squares of the generators; the executable converse is the
invariance oracle, which evaluates the class on the canonical test pair
(fiber bundle + universal bundle vs. universal bundle) in the exterior
oracle ring.  Integral classes reduce to the mod-2 criterion through rho on
their torsion part, and complexifiable integral classes are rewritten in
Chern symbols of the complexification.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .bundlecalc import (
    FormalBundle,
    evaluate_class,
    fiber_bundle,
    to_ext,
    underlying_of_complexification,
    universal_bundle,
    whitney_sum,
)
from .errors import NotComplexifiableError, NotInIdealError
from .feshbach import IndexSet, IntClass, doubled_w_monomial, rho, signed_sum_str
from .wring import (
    SW,
    UNBOUNDED,
    MPoly2,
    RingContext,
    add,
    check_sw,
    check_value,
    mono_degree,
    mono_factors,
    mul,
    poly_str,
    require_degree_cap_at_least,
    require_rank_cap_at_least,
    square,
)


@dataclass(frozen=True, slots=True, repr=False)
class SquaresPoly:
    """A class rewritten in the auxiliary symbols u_i = w_i^2."""

    poly_in_u: MPoly2

    def expand(self, ctx: RingContext = UNBOUNDED) -> MPoly2:
        """Substitute u_i = w_i^2 back (doubles every exponent)."""
        return square(self.poly_in_u, ctx)

    def __str__(self):
        return poly_str(self.poly_in_u, "u")

    def __repr__(self):
        return f"SquaresPoly({self})"


def is_complexifiable_mod2(c: MPoly2) -> bool:
    """Membership in the squares sub-ring: every exponent even."""
    check_sw(c, "complexifiability is a question about sw classes")
    return all(e % 2 == 0 for key in c.monomials for _, e in key)


def subring_decomposition(c: MPoly2) -> SquaresPoly:
    """Write a member of the squares sub-ring as a polynomial in u_i = w_i^2
    (exponent halving; expand() recovers the input exactly)."""
    if not is_complexifiable_mod2(c):
        raise NotComplexifiableError(
            "class has a monomial with an odd exponent; not in the squares sub-ring"
        )
    halved = frozenset(
        tuple((i, e // 2) for i, e in key) for key in c.monomials
    )
    return SquaresPoly(MPoly2(halved, SW))


def ideal_decomposition(c: MPoly2) -> list:
    """Write c minus its constant term as sum of w_i^2 * r_i, extracting per
    monomial the square of the smallest squared variable.

    Returns [(i, r_i)] sorted by i; raises NotInIdealError with the first
    square-free monomial (in graded-lex order) as witness otherwise.
    """
    check_sw(c, "ideal decomposition expects an sw class")
    buckets: dict = {}
    bad = []
    for key in c.monomials:
        if not key:
            continue  # constant term is split off
        target = next((i for i, e in key if e >= 2), None)
        if target is None:
            bad.append(key)
            continue
        cofactor = []
        for i, e in key:
            if i == target:
                e -= 2
            if e:
                cofactor.append((i, e))
        buckets.setdefault(target, set()).add(tuple(cofactor))
    if bad:
        witness = min(bad, key=lambda k: (mono_degree(k, SW), k))
        witness_str = poly_str(MPoly2(frozenset({witness}), SW))
        raise NotInIdealError(
            f"monomial {witness_str} is square-free; class is not in the ideal "
            "of squared generators",
            witness=witness_str,
        )
    return [
        (i, MPoly2(frozenset(cofs), SW)) for i, cofs in sorted(buckets.items())
    ]


def invariance_oracle(c: MPoly2, ctx: RingContext) -> bool:
    """Test the defining identity on the canonical pair: the class takes the
    same value on fiber+universal as on the universal bundle alone.  On the
    universal bundle, truncated at deg(c), the class evaluates to itself,
    so only the fiber+universal side is computed.

    Demands caps at least deg(c); truncation below that could hide a
    failure, so the call refuses instead.
    """
    d = check_sw(c, "the oracle expects an sw class").degree()
    require_degree_cap_at_least(ctx, d, "invariance oracle")
    require_rank_cap_at_least(ctx, d, "invariance oracle")
    # all action happens in degrees <= d, so compute in that truncation
    work = RingContext(degree_cap=d)
    return evaluate_class(c, _test_bundle(d), work) == to_ext(c)


@lru_cache(maxsize=32)
def _test_bundle(d: int) -> FormalBundle:
    """The fiber + universal bundle of the canonical test pair, truncated at
    degree d.  Bundles are immutable, so every class of degree d shares one
    bundle, and with it the bundle's degree buckets and its map's memo."""
    work = RingContext(degree_cap=d)
    return whitney_sum(fiber_bundle(work), universal_bundle(work), work)


def lemma3_lhs(I: IndexSet, b: FormalBundle, ctx: RingContext = UNBOUNDED):
    """rho of the squared torsion generator V_I^2, evaluated on a bundle.
    I must be valid at the ctx rank cap."""
    return evaluate_class(rho(IntClass.V(I) * IntClass.V(I), ctx), b, ctx)


def lemma3_rhs(
    I: IndexSet,
    b: FormalBundle,
    ctx: RingContext = UNBOUNDED,
    mode: str = "derived",
):
    """The closed-form expansion of lemma3_lhs, evaluated at the doubled
    bundle.

    mode "verbatim" uses w_1^2 as the half-index factor, which dies on any
    doubled bundle; mode "derived" (default) uses w_2^2, the form the Sq1
    expansion actually produces.  The two differ exactly when the half
    index is present.  I must be valid at the ctx rank cap.
    """
    if mode not in ("derived", "verbatim"):
        raise ValueError("mode must be 'derived' or 'verbatim'")
    check_value(I, IndexSet).require_valid_at(check_value(ctx, RingContext).rank_cap)
    formal = MPoly2.zero(SW)
    ds = I.doubled
    for d in ds:
        rest = doubled_w_monomial(tuple(2 * d2 for d2 in ds if d2 != d))
        if d == 1:
            factor = square(MPoly2.gen(1 if mode == "verbatim" else 2, SW))
        else:
            factor = add(
                MPoly2.gen(2 * d + 2, SW),
                mul(MPoly2.gen(2, SW), MPoly2.gen(2 * d, SW)),
            )
        formal = add(formal, mul(factor, rest, ctx), ctx)
    doubled = underlying_of_complexification(b, ctx)
    return evaluate_class(formal, doubled, ctx)


def _torsion_image(C: IntClass, ctx: RingContext) -> MPoly2:
    """rho of the torsion part of C; refuses caps below deg C, under which
    truncation could hide an odd exponent."""
    d = check_value(C, IntClass).degree()
    require_degree_cap_at_least(ctx, d, "integral criterion")
    require_rank_cap_at_least(ctx, d, "integral criterion")
    return rho(C.torsion_part(), ctx)


def is_complexifiable_integral(C: IntClass, ctx: RingContext) -> bool:
    """Integral criterion: the free Pontrjagin part is always fine, so the
    class is complexifiable iff rho of its torsion part lands in the squares
    sub-ring."""
    return is_complexifiable_mod2(_torsion_image(C, ctx))


def chern_sign(p_key) -> int:
    """The sign of a Pontrjagin monomial in Chern classes of the
    complexification, through p_i = (-1)^i c_{2i}."""
    return -1 if sum(i * e for i, e in p_key) % 2 else 1


@dataclass(frozen=True, slots=True, repr=False)
class ChernExpr:
    """A complexifiable integral class written in terms of Chern classes of
    the complexification.

    `free` is the free part, an IntClass in the p_i, printed in Chern
    symbols through p_i = (-1)^i c_{2i}; `torsion` is a polynomial in
    symbols rc_j standing for rho(c_j), and denotes the unique torsion
    preimage of that mod-2 class when it is nonzero (`lift_marker`).
    """

    free: IntClass
    torsion: MPoly2

    @property
    def lift_marker(self) -> bool:
        """True when there is a torsion part to lift through rho."""
        return not self.torsion.is_zero()

    def expand_free(self) -> IntClass:
        """The free part in the p_i."""
        return self.free

    def expand_torsion_rho(self, ctx: RingContext = UNBOUNDED) -> MPoly2:
        """Substitute rc_j = w_j^2 back: the rho-image the torsion denotes."""
        return square(self.torsion, ctx)

    def __str__(self):
        terms = [
            (chern_sign(p_key) * coeff,
             mono_factors(tuple((2 * i, e) for i, e in p_key), "c"))
            for p_key, coeff in self.free.free
        ]
        if self.lift_marker:
            terms.append((1, [f"rho^-1({poly_str(self.torsion, 'rc')})"]))
        return signed_sum_str(terms)

    def __repr__(self):
        return f"ChernExpr({self})"


def express_via_chern(C: IntClass, ctx: RingContext) -> ChernExpr:
    """Rewrite a complexifiable integral class through Chern classes of the
    complexification: the free part via p_i = (-1)^i c_{2i}, the torsion via
    the halved exponents of its rho-image."""
    image = _torsion_image(C, ctx)
    try:
        halved = subring_decomposition(image).poly_in_u
    except NotComplexifiableError:
        raise NotComplexifiableError(
            "rho of the torsion part has an odd exponent; cannot express "
            "through Chern classes"
        ) from None
    return ChernExpr(C.free_part(), halved)
