"""The Steenrod operation Sq1 as a derivation on the mod-2 class ring.

On a generator, Sq1(w_j) = w1*w_j + w_{j+1} when j is even and w1*w_j when
j is odd (the degree-one Wu formula); on products it extends by the Leibniz
rule, so only variables with odd exponent contribute.  Sq1 raises degree by
exactly one and kills every square.
"""

from __future__ import annotations

from .errors import NamespaceMismatchError
from .wring import SW, UNBOUNDED, MPoly2, MonomialKey, RingContext, check_value, mono_mul


def _generator_terms(key: MonomialKey, j: int, pos: int) -> list:
    """The two Leibniz contributions of the odd-exponent variable w_j in
    the monomial `key` (at tuple position `pos`)."""
    # (m / w_j) * w1 * w_j == m * w1
    terms = [mono_mul(key, ((1, 1),))]
    if j % 2 == 0:
        # swap one w_j for w_{j+1}
        i, e = key[pos]
        rest = key[:pos] + (((i, e - 1),) if e > 1 else ()) + key[pos + 1 :]
        terms.append(mono_mul(rest, ((j + 1, 1),)))
    return terms


def sq1(a: MPoly2, ctx: RingContext = UNBOUNDED) -> MPoly2:
    """Apply Sq1, context-reduced.  Root-namespace input is rejected."""
    if check_value(a).namespace != SW:
        raise NamespaceMismatchError("sq1 is defined on the sw namespace only")
    out: set = set()
    for key in a.monomials:
        for pos, (j, e) in enumerate(key):
            if e % 2 == 0:
                continue
            for term in _generator_terms(key, j, pos):
                if term in out:
                    out.remove(term)
                else:
                    out.add(term)
    kept = frozenset(k for k in out if ctx.admits(k, SW))
    return MPoly2(kept, SW)
