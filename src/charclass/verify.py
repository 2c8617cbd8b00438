"""Machine-checkable verification suites behind `charclass verify`.

Each suite builds a Report with one record per checked case; random cases
are driven by a seeded generator, so a fixed (suite, degree, rank, seed)
always produces the identical report.
"""

from __future__ import annotations

import random

from .bundlecalc import (
    cartan_restrict,
    evaluate_class,
    fiber_bundle,
    roots_bundle,
    sw as bundle_class,
    underlying_of_complexification,
    universal_bundle,
)
from .complexifiability import (
    ChernExpr,
    express_via_chern,
    ideal_decomposition,
    invariance_oracle,
    is_complexifiable_integral,
    is_complexifiable_mod2,
    lemma3_lhs,
    lemma3_rhs,
)
from .errors import CharclassError, NotInIdealError
from .expr import elaborate, parse
from .feshbach import IndexSet, IntClass, relation_reports, rho
from .report import EXPECTED_MISMATCH, FAIL, PASS, Report
from .steenrod import sq1
from .wring import (
    SW,
    MPoly2,
    RingContext,
    add,
    graded_parts,
    mul,
    reduce_poly,
    require_degree_cap_at_least,
    square,
)

# -- seeded samplers ---------------------------------------------------------


def random_monomial(rng: random.Random, max_degree: int) -> tuple:
    key: dict = {}
    budget = max_degree
    for _ in range(rng.randint(0, 3)):
        if budget < 1:
            break
        i = rng.randint(1, budget)
        e = min(rng.randint(1, 3), budget // i)
        if e < 1:
            continue
        key[i] = key.get(i, 0) + e
        budget -= i * e
    return tuple(sorted(key.items()))


def random_mod2(rng: random.Random, max_degree: int, max_terms: int = 6) -> MPoly2:
    keys: set = set()
    for _ in range(rng.randint(1, max_terms)):
        keys.symmetric_difference_update({random_monomial(rng, max_degree)})
    return MPoly2(frozenset(keys), SW)


def random_squares_member(rng: random.Random, max_degree: int) -> MPoly2:
    return square(random_mod2(rng, max_degree // 2))


def random_ideal_member(rng: random.Random, max_degree: int) -> MPoly2:
    """A sum of w_i^2 * r_i terms (degree <= max_degree)."""
    out = MPoly2.zero(SW)
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(1, max(1, max_degree // 2))
        rest = max_degree - 2 * i
        r = random_mod2(rng, rest) if rest > 0 else MPoly2.one(SW)
        out = add(out, mul(square(MPoly2.gen(i, SW)), r))
    return out


def random_squarefree_containing(rng: random.Random, max_degree: int) -> MPoly2:
    base = random_mod2(rng, max_degree)
    n = rng.randint(1, 3)
    indices = rng.sample(range(1, max_degree + 1), k=min(n, max_degree))
    forced = tuple(sorted((i, 1) for i in indices))
    return MPoly2(base.monomials | {forced}, SW)


def random_integral_complexifiable(rng: random.Random, max_degree: int) -> IntClass:
    """A polynomial in the guaranteed-complexifiable generators: squared
    torsion classes, the half-index torsion class, and Pontrjagin classes."""

    def factor() -> IntClass:
        kind = rng.randrange(3)
        if kind == 0:
            return IntClass.p(rng.randint(1, 3))
        if kind == 1:
            return IntClass.V(IndexSet({1}))
        pool = [1, 2, 4, 6]
        size = rng.randint(1, 2)
        v = IntClass.V(IndexSet(rng.sample(pool, k=size)))
        return v * v

    total = IntClass.zero()
    for _ in range(rng.randint(1, 3)):
        term = IntClass.integer(rng.choice([1, 1, 1, 2, -1, 3]))
        for _ in range(rng.randint(1, 3)):
            nxt = term * factor()
            if nxt.degree() > max_degree:
                break
            term = nxt
        total = total + term
    return total


# -- suites ------------------------------------------------------------------


THEOREM1_COUNT = 200  # classes sampled by suite_theorem1


def suite_theorem1(degree: int = 16, seed: int = 0) -> Report:
    """The main biconditional: squares sub-ring membership agrees with the
    invariance oracle on a mixed sample."""
    rng = random.Random(seed)
    ctx = RingContext(degree_cap=degree)
    report = Report(f"theorem1[degree<={degree},count={THEOREM1_COUNT},seed={seed}]")
    for k in range(THEOREM1_COUNT):
        c = random_squares_member(rng, degree) if k % 2 else random_mod2(rng, degree)
        member = is_complexifiable_mod2(c)
        invariant = invariance_oracle(c, ctx)
        params = {"index": k, "member": member, "degree": c.degree()}
        if member == invariant:
            report.add(f"theorem1[{k}]", params, PASS)
        else:
            report.add(
                f"theorem1[{k}]", params, FAIL,
                f"membership={member} oracle={invariant} on {c}",
            )
    return report


_LEMMA3_POOL = (1, 2, 4, 6)  # the half index and the integers 1, 2, 3


def suite_lemma3() -> Report:
    """Squared-torsion expansion for every nonempty index set in the pool
    with at most three elements, at degree cap 40: derived mode must agree
    exactly; verbatim mode is expected to disagree exactly when the half
    index is present."""
    from itertools import combinations

    ctx = RingContext(degree_cap=40)
    bundle = universal_bundle(ctx)
    report = Report("lemma3[degree_cap=40]")
    sets = [
        IndexSet(combo)
        for size in (1, 2, 3)
        for combo in combinations(_LEMMA3_POOL, size)
    ]
    for iset in sets:
        lhs = lemma3_lhs(iset, bundle, ctx)
        for mode in ("derived", "verbatim"):
            rhs = lemma3_rhs(iset, bundle, ctx, mode)
            case = f"lemma3[I={iset},mode={mode}]"
            params = {"I": str(iset), "mode": mode}
            expected = mode == "verbatim" and 1 in iset.doubled
            if (lhs != rhs) != expected:
                detail = "expected a mismatch" if expected else f"lhs={lhs} rhs={rhs}"
                report.add(case, params, FAIL, detail)
            elif expected:
                report.add(
                    case, params, EXPECTED_MISMATCH,
                    "printed half-index factor w1^2 dies on a doubled bundle",
                )
            else:
                report.add(case, params, PASS)
    return report


def suite_relations(max_rank: int = 8, degree: int = 24) -> Report:
    """The relation sweep at every rank 2..max_rank (relation_reports)."""
    report = Report(f"relations[rank<={max_rank},degree<={degree}]")
    for part in relation_reports(range(2, max_rank + 1), degree):
        report.extend(part)
    return report


def check_squares(report: Report) -> None:
    """Squared-class reduction on the universal bundle (rank 12, degree 24):
    its doubled bundle has w_{2n} = w_n^2 and w_{2n+1} = 0."""
    ctx = RingContext(degree_cap=24, rank_cap=12)
    u = universal_bundle(ctx)
    uu = underlying_of_complexification(u, ctx)
    for n in range(1, 13):
        even_ok = bundle_class(uu, 2 * n) == square(bundle_class(u, n), ctx)
        odd_ok = bundle_class(uu, 2 * n + 1).is_zero()
        report.add(
            f"square[n={n}]", {"n": n},
            PASS if even_ok and odd_ok else FAIL,
            "" if even_ok and odd_ok else "doubled-bundle square identity failed",
        )


def check_sq1_laws(report: Report, rng: random.Random) -> None:
    """Sq1 laws on 200 seeded classes of degree <= 16."""
    prev = None
    for k in range(200):
        x = random_mod2(rng, 16)
        problems = []
        if not sq1(sq1(x)).is_zero():
            problems.append("sq1 twice is nonzero")
        if not sq1(square(x)).is_zero():
            problems.append("sq1 of a square is nonzero")
        for d, part in graded_parts(x).items():
            image = sq1(part)
            if image and list(graded_parts(image)) != [d + 1]:
                problems.append("inhomogeneous image")
                break
        if prev is not None:
            lhs = sq1(mul(prev, x))
            rhs = add(mul(sq1(prev), x), mul(prev, sq1(x)))
            if lhs != rhs:
                problems.append("Leibniz rule failed")
        prev = x
        report.add(
            f"sq1[{k}]", {"index": k},
            FAIL if problems else PASS, "; ".join(problems),
        )


def check_cartan(report: Report, rng: random.Random, degree: int) -> None:
    """The Cartan kernel: ideal members restrict to zero and decompose
    exactly; square-free classes are refused with a witness."""
    for k in range(100):
        c = random_ideal_member(rng, degree)
        ok = cartan_restrict(c).is_zero()
        if ok:
            try:
                parts = ideal_decomposition(c)
                rebuilt = MPoly2.zero(SW)
                for i, r in parts:
                    rebuilt = add(rebuilt, mul(square(MPoly2.gen(i, SW)), r))
                ok = rebuilt == c
            except NotInIdealError:
                ok = False
        report.add(
            f"cartan-member[{k}]", {"index": k},
            PASS if ok else FAIL,
            "" if ok else f"ideal member mishandled: {c}",
        )
    for k in range(100):
        c = random_squarefree_containing(rng, degree)
        ok = not cartan_restrict(c).is_zero()
        if ok:
            try:
                ideal_decomposition(c)
                ok = False  # must refuse
            except NotInIdealError as e:
                ok = bool(e.witness)
        report.add(
            f"cartan-witness[{k}]", {"index": k},
            PASS if ok else FAIL,
            "" if ok else f"square-free class mishandled: {c}",
        )


def check_integral(report: Report, rng: random.Random, degree: int) -> None:
    """The integral theorems on 100 seeded classes: closure (theorem2[k])
    and the Chern-expression round trip (theorem3[k])."""
    ictx = RingContext(degree_cap=degree)
    for k in range(100):
        cl = random_integral_complexifiable(rng, degree)
        params = {"index": k, "degree": cl.degree()}
        ok = is_complexifiable_integral(cl, ictx)
        detail = "" if ok else f"criterion rejected {cl}"
        if ok:
            image = rho(cl, ictx)
            ok = invariance_oracle(image, ictx)
            detail = "" if ok else f"oracle rejected rho({cl}) = {image}"
        report.add(f"theorem2[{k}]", params, PASS if ok else FAIL, detail)
        chern = express_via_chern(cl, ictx)
        # the free part printed in Chern symbols must parse back to itself
        text = str(ChernExpr(chern.free, MPoly2.zero(SW)))
        try:
            ok = elaborate(parse(text), "chern").free == cl.free_part()
        except CharclassError:
            ok = False
        detail = "" if ok else f"free part round trip failed: {text}"
        if ok:
            ok = chern.expand_torsion_rho(ictx) == rho(cl.torsion_part(), ictx)
            detail = "" if ok else "torsion rho-image round trip failed"
        report.add(f"theorem3[{k}]", params, PASS if ok else FAIL, detail)


def suite_identities(degree: int = 24, seed: int = 0) -> Report:
    """The remaining verified identities: doubled-bundle squares, Sq1 laws,
    the Cartan kernel, the root oracle, and the integral theorems.

    Refuses degree < 1: a square-free witness needs a variable, and at
    degree 0 only the constant 1 can be drawn."""
    require_degree_cap_at_least(RingContext(degree_cap=degree), 1, "identities suite")
    rng = random.Random(seed)
    report = Report(f"identities[degree<={degree},seed={seed}]")
    check_squares(report)

    # fiber bundle complexifies trivially
    fctx = RingContext(degree_cap=degree)
    fiber_sq = underlying_of_complexification(fiber_bundle(fctx), fctx)
    report.add(
        "fiber-trivial", {"degree": degree},
        PASS if fiber_sq.total == MPoly2.one(fiber_sq.total.namespace) else FAIL,
    )

    check_sq1_laws(report, rng)
    check_cartan(report, rng, degree)

    # root oracle agreement: evaluation on the splitting bundle matches
    # evaluation after rank truncation
    for m in range(2, 7):
        roots = roots_bundle(m)
        for k in range(5):
            c = random_mod2(rng, 8)
            lhs = evaluate_class(c, roots)
            rhs = evaluate_class(reduce_poly(c, RingContext(rank_cap=m)), roots)
            report.add(
                f"roots[m={m},{k}]", {"m": m, "index": k},
                PASS if lhs == rhs else FAIL,
            )

    check_integral(report, rng, degree)
    return report


# suite name -> its run(degree, rank, seed), in the order `all` runs them
SUITES = {
    "theorem1": lambda degree, rank, seed: suite_theorem1(degree=degree, seed=seed),
    "lemma3": lambda degree, rank, seed: suite_lemma3(),
    "relations": lambda degree, rank, seed: suite_relations(max_rank=rank, degree=degree),
    "identities": lambda degree, rank, seed: suite_identities(degree=degree, seed=seed),
}


def run_suite(
    name: str, degree: int = 24, rank: int = 8, seed: int = 0
) -> Report:
    """One suite of SUITES, or every suite in table order for "all".  A
    negative degree or rank is refused, whichever suite reads it."""
    names = [*SUITES, "all"]
    if name not in names:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(names)}")
    RingContext(degree, rank)
    if name != "all":
        return SUITES[name](degree, rank, seed)
    merged = Report(f"all[degree<={degree},rank<={rank},seed={seed}]")
    for run in SUITES.values():
        merged.extend(run(degree, rank, seed))
    return merged
