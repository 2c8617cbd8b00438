"""The Steenrod operation Sq1 as a derivation on the mod-2 class ring.

On a generator, Sq1(w_j) = w1*w_j + w_{j+1} when j is even and w1*w_j when
j is odd (the degree-one Wu formula); on products it extends by the Leibniz
rule, so only variables with odd exponent contribute.  Sq1 raises degree by
exactly one and kills every square.
"""

from __future__ import annotations

from .wring import SW, UNBOUNDED, MPoly2, RingContext, check_sw, check_value, mono_mul


def sq1(a: MPoly2, ctx: RingContext = UNBOUNDED) -> MPoly2:
    """Apply Sq1, context-reduced.  Only sw input is accepted.

    Closed form: on a monomial m with t odd exponents, Sq1(m) is w1*m when
    t is odd (its t Leibniz copies cancel in pairs), plus, for each even j
    whose exponent is odd, m with one w_j swapped for w_{j+1}.  The terms
    of one monomial are distinct; they toggle against other monomials'."""
    check_sw(a, "sq1 is defined on the sw namespace only")
    check_value(ctx, RingContext)
    out: set = set()
    for key in a.monomials:
        odd = [pos for pos, (_, e) in enumerate(key) if e % 2]
        terms = [mono_mul(key, ((1, 1),))] if len(odd) % 2 else []
        for pos in odd:
            j, e = key[pos]
            if j % 2 == 0:
                rest = key[:pos] + (((j, e - 1),) if e > 1 else ()) + key[pos + 1 :]
                terms.append(mono_mul(rest, ((j + 1, 1),)))
        out.symmetric_difference_update(terms)
    return MPoly2(frozenset(k for k in out if ctx.admits(k, SW)), SW)
