"""The four benchmark workloads: seeded inputs, the operations run on them,
and the independent check of every answer.

Every workload is a fixed list of operations drawn from one seed.  An
operation calls public functions of the package through their modules, so a
traced run can patch them; `check` returns None or a one-line problem; and
`render` gives the canonical bytes (serialize.dumps or CLI stdout) that go
into the workload's output digest.  Input sizes follow a fixed schedule and
only the content is random, so different seeds cost about the same.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from typing import Callable

from charclass import (
    bundlecalc,
    cli,
    complexifiability,
    feshbach,
    serialize,
    wring,
)
from charclass.errors import InvalidIndexSetError

import reference as ref
from tracing import LARGE_PAIRS


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]
    render: Callable[[object], str]


def _mpoly(keys) -> "wring.MPoly2":
    return wring.MPoly2(frozenset(keys), wring.SW)


def _dumps(x) -> str:
    return serialize.dumps(x)


def _truncate(keys, cap):
    return {k for k in keys if cap is None or ref.degree(k) <= cap}


def _mono_text(key) -> str:
    if not key:
        return "1"
    return "*".join(f"w{i}^{e}" if e > 1 else f"w{i}" for i, e in key)


def random_monomial(rng, deg: int, max_index: int, max_exp: int = 3):
    """A monomial of weighted degree exactly `deg` (deg <= max_index keeps
    the closing factor in range)."""
    merged: dict = {}
    rem = deg
    for _ in range(rng.randint(0, 3)):
        if rem < 2:
            break
        i = rng.randint(1, min(rem - 1, max_index))
        e = rng.randint(1, min(max_exp, (rem - 1) // i))
        merged[i] = merged.get(i, 0) + e
        rem -= i * e
    if rem:
        merged[rem] = merged.get(rem, 0) + 1
    return tuple(sorted(merged.items()))


def random_poly(rng, top: int, terms: int, max_index: int) -> set:
    """`terms` distinct monomials of degree <= top, one of degree exactly top."""
    keys = {random_monomial(rng, top, max_index)}
    while len(keys) < terms:
        keys.add(random_monomial(rng, rng.randint(1, top), max_index))
    return keys


def _doubled(keys) -> set:
    return {tuple((i, 2 * e) for i, e in k) for k in keys}


# -- oracle ----------------------------------------------------------------

ORACLE_DEGREES = (44, 48)
ORACLE_CLASSES = 144  # per pass; half squares, half with a forced odd exponent
ORACLE_EVALS = 48  # evaluate_class calls per pass, split fiber / universal


def oracle_ops(rng: random.Random) -> list:
    ops = []
    for k in range(ORACLE_CLASSES):
        cap = ORACLE_DEGREES[k % len(ORACLE_DEGREES)]
        keys = _doubled(random_poly(rng, cap // 2, 5, cap // 2))
        member = k % 2 == 0
        if not member:
            forced = random_monomial(rng, rng.randint(cap // 2, cap - 1), cap)
            if all(e % 2 == 0 for _, e in forced):
                forced = ref.mono_times(forced, ((1, 1),))
            keys.add(forced)
        ops.append(_oracle_op(_mpoly(keys), cap, member))
    bundles = {}  # fiber and universal bundle per cap, built before the first operation
    for cap in ORACLE_DEGREES:
        ctx = wring.RingContext(cap, cap)
        bundles[cap] = (bundlecalc.fiber_bundle(ctx), bundlecalc.universal_bundle(ctx))
    for k in range(ORACLE_EVALS):
        cap = ORACLE_DEGREES[k % len(ORACLE_DEGREES)]
        keys = random_poly(rng, cap, 8, cap)
        fiber = k % 2 == 0
        ops.append(_evaluate_op(keys, cap, bundles[cap][0 if fiber else 1], fiber))
    return ops


def _oracle_op(c, cap: int, member: bool) -> Op:
    ctx = wring.RingContext(cap, cap)

    def run():
        return (
            complexifiability.is_complexifiable_mod2(c),
            complexifiability.invariance_oracle(c, ctx),
        )

    def check(verdicts):
        if verdicts != (member, member):
            return f"verdicts {verdicts} on a class built with member={member}"
        return None

    return Op("oracle", run, check, lambda v: json.dumps(v))


def _evaluate_op(keys, cap: int, bundle, fiber: bool) -> Op:
    ctx = wring.RingContext(cap, cap)
    c = _mpoly(keys)
    if fiber:
        # w_i -> v_i: square-free monomials become exterior products
        expected: set = set()
        for k in keys:
            if all(e == 1 for _, e in k):
                ref.toggle(expected, frozenset(i for i, _ in k))
    else:
        expected = _truncate(keys, cap)

    def run():
        return bundlecalc.evaluate_class(c, bundle, ctx)

    def check(result):
        obj = json.loads(_dumps(result))
        if fiber:
            got = {frozenset(m["nu"]) for m in obj["monomials"] if not m["w"]}
            if len(got) != len(obj["monomials"]):
                return "fiber evaluation has w factors"
        else:
            got = {tuple((i, e) for i, e in m) for m in obj["monomials"]}
        return None if got == expected else "evaluate_class differs from w_i -> class_i"

    return Op("evaluate_fiber" if fiber else "evaluate_universal", run, check, _dumps)


# -- relations -------------------------------------------------------------

RELATIONS_CAP = 24
RELATIONS_RANKS = tuple(range(8, 29, 2)) + (32,)  # verify_relations sweep, one op per rank
RELATIONS_CHECKS = 192  # seeded relation * class checks per pass
# (family, rank) of the checks, in turn; family 6 needs an even rank.
RELATIONS_CHECK_PLAN = ((2, 8), (3, 10), (4, 12), (5, 8), (6, 6), (2, 12), (3, 8), (5, 12))


def relations_ops(rng: random.Random) -> list:
    ops = [_sweep_op(n) for n in RELATIONS_RANKS]
    for k in range(RELATIONS_CHECKS):
        family, n = RELATIONS_CHECK_PLAN[k % len(RELATIONS_CHECK_PLAN)]
        ops.append(_relation_check_op(rng, family, n))
    return ops


def _sweep_op(n: int) -> Op:
    def run():
        return feshbach.verify_relations(n, RELATIONS_CAP)

    def check(report):
        if not report.ok():
            return f"verify_relations({n}) has failing cases"
        return None

    return Op("verify_relations", run, check, _dumps)


def _index_pool(n: int) -> list:
    return [1] + list(range(2, n + 1, 2))


def _random_iset(rng, n: int, size: int):
    """A rank-n valid index set of the given size, or None after 20 draws."""
    pool = _index_pool(n)
    for _ in range(20 if size <= len(pool) else 0):
        iset = feshbach.IndexSet(rng.sample(pool, size))
        if iset.valid_at(n):
            return iset
    return None


def _random_relation(rng, k: int, n: int):
    """Index sets of one valid instance of family k at rank n whose
    left-hand side has degree <= cap - 8, leaving room for the multiplier."""
    while True:
        I = J = None
        if k != 6:
            I = _random_iset(rng, n, rng.randint(2, 3))
        if k in (2, 3, 4):
            J = _random_iset(rng, n, rng.randint(len(I.doubled), 4)) if I else None
        if (I is None and k != 6) or (J is None and k in (2, 3, 4)):
            continue
        try:
            lhs = feshbach.relation(k, I, J, n)
        except (ValueError, InvalidIndexSetError):
            continue
        if lhs.degree() <= RELATIONS_CAP - 8:
            return I, J, lhs.degree()


def _random_integral(rng, n: int, budget: int):
    """An odd integer plus p_i * V_A plus V_B, valid at rank n, of degree
    <= budget (a term that does not fit is left out)."""
    total = feshbach.IntClass.integer(rng.choice((1, 3)))
    for with_p in (True, False):
        for _ in range(20):
            term = feshbach.IntClass.V(_random_iset(rng, n, 1))
            if with_p:
                term = feshbach.int_mul(term, feshbach.IntClass.p(rng.randint(1, 2)), n)
            if term.degree() <= budget:
                total = feshbach.int_add(total, term)
                break
    return total


def _relation_check_op(rng, k: int, n: int) -> Op:
    I, J, deg = _random_relation(rng, k, n)
    ctx = wring.RingContext(RELATIONS_CAP, n)
    x = _random_integral(rng, n, RELATIONS_CAP - deg)
    y = _random_integral(rng, n, RELATIONS_CAP)

    def run():
        lhs = feshbach.relation(k, I, J, n)
        xl = feshbach.int_mul(x, lhs, n, ctx)
        image = feshbach.rho(xl, ctx)
        same = feshbach.torsion_equal(feshbach.int_add(xl, y), y, ctx)
        return xl, image, same

    def check(result):
        xl, image, same = result
        if xl.free:
            return f"relation {k} times a class has a free part"
        if not image.is_zero():
            return f"rho(x * relation {k}) is nonzero at rank {n}"
        if not same:
            return f"x * relation {k} + y is not torsion-equal to y"
        return None

    def render(result):
        xl, image, same = result
        return f"{_dumps(xl)}\n{_dumps(image)}\n{same}"

    return Op(f"relation{k}", run, check, render)


# -- products --------------------------------------------------------------

# Three kernel regimes of wring.mul: dense factors that pack into 64 bits
# (numpy), wide indices that overflow 64 bits (Python big ints), and
# mid-size sparse factors on both sides of the 4,096-pair dict/packed switch.
# Each regime lists the sizes of its instances in turn: whether the products
# are large (above the switch), factor sizes of mul, terms of the cubed base,
# terms of each substituted image (plus the 1 term).
PRODUCT_REGIMES = {
    "dense": {"cap": 35, "sizes": (
        {"large": True, "mul": (200, 200), "power": 80, "images": 66},)},
    "wide": {"cap": 160, "sizes": (
        {"large": True, "mul": (70, 70), "power": 66, "images": 66},)},
    "mid": {"cap": 56, "sizes": (
        {"large": True, "mul": (64, 72), "power": 66, "images": 66},
        {"large": False, "mul": (60, 60), "power": 62, "images": 61})},
}
PRODUCT_INSTANCES = 4  # of every (regime, cap, operation) per pass
# Substituted into: every monomial of degree <= 2 in w1, w2, w3 but 1.
SUBSTITUTE_SOURCE = (
    ((1, 1),), ((2, 1),), ((3, 1),), ((1, 2),), ((2, 2),), ((3, 2),),
    ((1, 1), (2, 1)), ((1, 1), (3, 1)), ((2, 1), (3, 1)),
)
_DENSE_VARS, _DENSE_DEGREE = 10, 20
_WIDE_INDEX = 40
_MID_INDEX = 12


def _dense_pool() -> list:
    keys = []

    def rec(i, rem, acc):
        if i > _DENSE_VARS:
            keys.append(tuple(acc))
            return
        for e in range(rem // i + 1):
            if e:
                acc.append((i, e))
            rec(i + 1, rem - e * i, acc)
            if e:
                acc.pop()

    rec(1, _DENSE_DEGREE, [])
    return keys


_DENSE_POOL = _dense_pool()


def _regime_poly(rng, regime: str, terms: int, top=None) -> set:
    """`terms` distinct monomials of the regime, of degree <= top if given,
    so that a degree cap >= top leaves the factor whole."""
    if regime == "dense":
        pool = [k for k in _DENSE_POOL if top is None or ref.degree(k) <= top]
        return set(rng.sample(pool, terms))
    max_index = _WIDE_INDEX if regime == "wide" else _MID_INDEX
    keys: set = set()
    while len(keys) < terms:
        merged: dict = {}
        for i in rng.sample(range(1, max_index + 1), rng.randint(1, 3)):
            merged[i] = rng.randint(1, 3)
        key = tuple(sorted(merged.items()))
        if top is None or ref.degree(key) <= top:
            keys.add(key)
    return keys


def _fits_64(a_keys, b_keys) -> bool:
    """Whether wring packs the product of these factors into 64 bits."""
    top = max(i for k in a_keys | b_keys for i, _ in k)
    exp = max(e for k in a_keys for _, e in k) + max(e for k in b_keys for _, e in k)
    return top * exp.bit_length() <= 64


def _check_kernel(regime, a_keys, b_keys, cap, large: bool) -> None:
    """Fail at build time unless wring.mul takes the intended side: more
    than LARGE_PAIRS pairs after the cap, and for packed products the
    intended packing (64 bits except in the wide regime)."""
    a, b = _truncate(a_keys, cap), _truncate(b_keys, cap)
    pairs = len(a) * len(b)
    if (pairs > LARGE_PAIRS) != large:
        raise AssertionError(f"{regime} product of {pairs} pairs is not large={large}")
    if large and _fits_64(a, b) != (regime != "wide"):
        raise AssertionError(f"{regime} product packs into the wrong kernel")


def products_ops(rng: random.Random) -> list:
    ops = []
    for regime, spec in PRODUCT_REGIMES.items():
        for cap in (None, spec["cap"]):
            for k in range(PRODUCT_INSTANCES):
                sizes = spec["sizes"][k % len(spec["sizes"])]
                large = sizes["large"]
                na, nb = sizes["mul"]
                a = _regime_poly(rng, regime, na, cap)
                b = _regime_poly(rng, regime, nb, cap)
                _check_kernel(regime, a, b, cap, large)
                ops.append(_mul_op(regime, a, b, cap, rng.randrange(1 << 30)))
                # the cube multiplies the base by its square: keep both under the cap
                base = _regime_poly(rng, regime, sizes["power"],
                                    None if cap is None else cap // 2)
                _check_kernel(regime, base, _doubled(base), cap, large)
                ops.append(_power_op(regime, base, 3, cap, rng.randrange(1 << 30)))
                images = {i: _regime_poly(rng, regime, sizes["images"], cap) | {()}
                          for i in (1, 2, 3)}
                for i, j in ((1, 2), (1, 3), (2, 3)):
                    _check_kernel(regime, images[i], images[j], cap, large)
                ops.append(_substitute_op(regime, SUBSTITUTE_SOURCE, images, cap,
                                          rng.randrange(1 << 30)))
    return ops


PROBES = 24  # present and absent monomials probed per product


def probe_product(result, a_keys, b_keys, cap, rng):
    """Parity probes of result = a*b truncated at cap, on monomials present
    in the result and on absent candidates k_a * k_b."""
    got = result.monomials
    b_set = set(b_keys)
    a_list, b_list = sorted(a_keys), sorted(b_keys)
    present = rng.sample(sorted(got), min(PROBES, len(got)))
    absent = []
    for _ in range(PROBES * 8):
        m = ref.mono_times(rng.choice(a_list), rng.choice(b_list))
        if m not in got:
            absent.append(m)
        if len(absent) == PROBES:
            break
    for m in present:
        if cap is not None and ref.degree(m) > cap:
            return "product keeps a monomial above the cap"
        if not ref.product_parity(m, a_list, b_set):
            return "product has a monomial of even parity"
    for m in absent:
        if (cap is None or ref.degree(m) <= cap) and ref.product_parity(m, a_list, b_set):
            return "product misses a monomial of odd parity"
    return None


def _mul_op(regime, a_keys, b_keys, cap, probe_seed) -> Op:
    ctx = wring.RingContext(cap)
    a, b = _mpoly(a_keys), _mpoly(b_keys)

    def run():
        return wring.mul(a, b, ctx)

    def check(result):
        return probe_product(result, a_keys, b_keys, cap, random.Random(probe_seed))

    return Op(f"mul.{regime}", run, check, _dumps)


def _power_op(regime, base_keys, e, cap, probe_seed) -> Op:
    """e = 2^j + 1, so a^e = a^(2^j) * a where a^(2^j) multiplies every
    exponent by 2^j (Frobenius); the check probes that product."""
    ctx = wring.RingContext(cap)
    base = _mpoly(base_keys)
    frob = e - 1
    lifted = {tuple((i, frob * x) for i, x in k) for k in base_keys}

    def run():
        return wring.power(base, e, ctx)

    def check(result):
        return probe_product(result, lifted, base_keys, cap, random.Random(probe_seed))

    return Op(f"power.{regime}", run, check, _dumps)


def _substitute_op(regime, a_keys, images_keys, cap, probe_seed) -> Op:
    """Checked by evaluation, which commutes with substitution: at 256
    random points of GF(2)^n at once (bit-parallel) without a cap, and by
    graded evaluation into Z2[t]/(t^(cap+1)) with one."""
    ctx = wring.RingContext(cap)
    a = _mpoly(a_keys)
    images = {i: _mpoly(k) for i, k in images_keys.items()}

    def run():
        return wring.substitute(a, images, ctx)

    def check(result):
        rng = random.Random(probe_seed)
        variables = {i for ks in images_keys.values() for k in ks for i, _ in k}
        if cap is None:
            point = {i: rng.getrandbits(256) for i in variables}
            values = {i: ref.evaluate_bits(ks, point) for i, ks in images_keys.items()}
            want = ref.evaluate_bits(a_keys, values)
            ok = ref.evaluate_bits(result.monomials, point) == want
        else:
            point = {i: rng.getrandbits(cap + 1) | 1 for i in variables}
            values = {i: ref.evaluate_graded(ks, point, cap) for i, ks in images_keys.items()}
            want = ref.evaluate_images(a_keys, values, cap)
            ok = ref.evaluate_graded(result.monomials, point, cap) == want
        return None if ok else "substitute disagrees with evaluation"

    return Op(f"substitute.{regime}", run, check, _dumps)


# -- queries ---------------------------------------------------------------

QUERY_SIZES = (2, 5, 12, 30, 80, 200)  # monomials per generated expression
QUERY_KINDS = ("eval", "eval-fiber", "sq1", "rho", "complexifiable",
               "complexifiable-integral", "decompose", "decompose-ideal",
               "chern-express")
QUERIES = 216  # per pass: every kind at every size, four times


def queries_ops(rng: random.Random) -> list:
    ops = []
    for k in range(QUERIES):
        kind = QUERY_KINDS[k % len(QUERY_KINDS)]
        size = QUERY_SIZES[(k // len(QUERY_KINDS)) % len(QUERY_SIZES)]
        ops.append(_QUERY_MAKERS[kind](rng, size, as_json=(k // 54) % 2 == 1))
    return ops


def _expr_text(rng, keys, pad: int = 0) -> str:
    """A sum of monomials in random order, plus `pad` cancelling pairs."""
    terms = [_mono_text(k) for k in keys]
    for _ in range(pad):
        t = _mono_text(random_monomial(rng, rng.randint(1, 12), 12))
        terms += [t, t]
    rng.shuffle(terms)
    joints = [rng.choice((" + ", "+", " - ")) for _ in terms[1:]]
    text = terms[0] if terms else "0"
    for j, t in zip(joints, terms[1:]):
        text += j + t
    return text


def _cli_op(kind: str, argv: list, check_out, as_json: bool) -> Op:
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        out = buf.getvalue()
        value = serialize.loads(out) if as_json and code == 0 else None
        return code, out, value

    def check(result):
        code, out, value = result
        if code != 0:
            return f"{kind} exited {code}"
        try:
            return check_out(out.strip(), value)
        except (ValueError, KeyError) as e:
            return f"{kind} output unreadable: {e}"

    return Op(f"cli.{kind}", run, check, lambda r: f"{r[0]}\n{r[1]}")


def _poly_check(expected: set, as_json: bool):
    def check_out(out, value):
        got = set(value.monomials) if as_json else ref.read_poly(out, "w")
        return None if got == expected else "output differs from the expected class"

    return check_out


def _q_eval(rng, size, as_json):
    cap = 24
    keys = random_poly(rng, 36, size, 36)
    argv = ["eval", "--expr", _expr_text(rng, keys, pad=size // 10),
            "--bundle", "universal", "--degree", str(cap)]
    if as_json:
        argv.append("--json")
    return _cli_op("eval", argv, _poly_check(_truncate(keys, cap), as_json), as_json)


def _q_eval_fiber(rng, size, as_json):
    cap = 24
    keys = random_poly(rng, cap, size, cap)
    expected: set = set()
    for k in keys:
        if all(e == 1 for _, e in k):
            ref.toggle(expected, frozenset(i for i, _ in k))
    argv = ["eval", "--expr", _expr_text(rng, keys), "--bundle", "fiber",
            "--degree", str(cap)]

    def check_out(out, value):
        return None if ref.read_ext(out) == expected else "fiber evaluation differs"

    return _cli_op("eval-fiber", argv, check_out, False)


def _q_sq1(rng, size, as_json):
    keys = random_poly(rng, 30, size, 30)
    argv = ["sq1", "--expr", _expr_text(rng, keys), "--degree", "31"]
    if as_json:
        argv.append("--json")
    return _cli_op("sq1", argv, _poly_check(ref.sq1(keys), as_json), as_json)


def _random_v(rng, top_doubled: int = 8):
    size = rng.randint(1, 3)
    return tuple(sorted(rng.sample([1] + list(range(2, top_doubled + 1, 2)), size)))


def _v_text(ds, exp: int = 1) -> str:
    body = "{" + ",".join("1/2" if d == 1 else str(d // 2) for d in ds) + "}"
    return f"V{body}^{exp}" if exp > 1 else f"V{body}"


def _p_text(p_key) -> str:
    return "*".join(f"p{i}^{e}" if e > 1 else f"p{i}" for i, e in p_key)


def _random_p_key(rng):
    merged: dict = {}
    for _ in range(rng.randint(1, 2)):
        i = rng.randint(1, 4)
        merged[i] = merged.get(i, 0) + rng.randint(1, 2)
    return tuple(sorted(merged.items()))


def _q_rho(rng, size, as_json):
    """Terms p-monomial, V_I, or p-monomial*V_I, with odd coefficients;
    rho(p_i) = w_(2i)^2 and rho(V_I) = Sq1(prod w_d)."""
    terms, expected = [], set()
    for _ in range(size):
        p_key = _random_p_key(rng) if rng.random() < 0.7 else ()
        p_image = tuple((2 * i, 2 * e) for i, e in p_key)
        if rng.random() < 0.5 or not p_key:
            ds = _random_v(rng)
            image = {ref.mono_times(p_image, k) for k in ref.sq1([tuple((d, 1) for d in ds)])}
            terms.append(_p_text(p_key) + "*" + _v_text(ds) if p_key else _v_text(ds))
        else:
            coeff = rng.choice((1, 3, 5))
            image = {p_image}
            terms.append(f"{coeff}*{_p_text(p_key)}")
        for k in image:
            ref.toggle(expected, k)
    cap = 64
    argv = ["rho", "--expr", " + ".join(terms), "--degree", str(cap)]
    if as_json:
        argv.append("--json")
    return _cli_op("rho", argv, _poly_check(_truncate(expected, cap), as_json), as_json)


def _complexifiable_keys(rng, size):
    member = rng.random() < 0.5
    keys = _doubled(random_poly(rng, 18, size, 18))
    if not member:
        forced = random_monomial(rng, rng.randint(3, 30), 30)
        if all(e % 2 == 0 for _, e in forced):
            forced = ref.mono_times(forced, ((1, 1),))
        keys.add(forced)
    return keys, member


def _q_complexifiable(rng, size, as_json):
    keys, member = _complexifiable_keys(rng, size)
    argv = ["complexifiable", "--expr", _expr_text(rng, keys)]

    def check_out(out, value):
        return None if out == ("true" if member else "false") else f"verdict {out}"

    return _cli_op("complexifiable", argv, check_out, False)


def _q_complexifiable_integral(rng, size, as_json):
    """Sums of Pontrjagin monomials, V{1/2} and squared V's are
    complexifiable; adding one V_{k}, k an integer, makes w_(2k+1) appear."""
    member = rng.random() < 0.5
    terms = []
    for _ in range(size):
        r = rng.random()
        if r < 0.4:
            terms.append(_p_text(_random_p_key(rng)))
        elif r < 0.6:
            terms.append(_v_text((1,)))
        else:
            terms.append(_v_text(_random_v(rng), 2))
    if not member:
        terms.append(_v_text((2 * rng.randint(1, 4),)))
    rng.shuffle(terms)
    argv = ["complexifiable", "--integral", "--expr", " + ".join(terms),
            "--degree", "120"]

    def check_out(out, value):
        return None if out == ("true" if member else "false") else f"verdict {out}"

    return _cli_op("complexifiable-integral", argv, check_out, False)


def _q_decompose(rng, size, as_json):
    half = random_poly(rng, 16, size, 16)
    argv = ["decompose", "--expr", _expr_text(rng, _doubled(half))]

    def check_out(out, value):
        return None if ref.read_poly(out, "u") == half else "u-form differs"

    return _cli_op("decompose", argv, check_out, False)


def _q_decompose_ideal(rng, size, as_json):
    keys: set = set()
    while len(keys) < size:
        i = rng.randint(1, 8)
        cof = random_monomial(rng, rng.randint(1, 16), 16) if rng.random() < 0.8 else ()
        keys.add(ref.mono_times(((i, 2),), cof))
    argv = ["decompose", "--ideal", "--expr", _expr_text(rng, keys)]

    def check_out(out, value):
        rebuilt: set = set()
        for _, chunk in ref.read_signed_terms(out):
            square, _, cof = chunk.partition("*(")
            sq = ref.read_mono(square, "w")
            if len(sq) != 1 or sq[0][1] != 2:
                return f"ideal part {square!r} is not a squared generator"
            for k in ref.poly_times({sq}, ref.read_poly(cof[:-1], "w")):
                ref.toggle(rebuilt, k)
        return None if rebuilt == keys else "ideal decomposition does not sum back"

    return _cli_op("decompose-ideal", argv, check_out, False)


def _q_chern(rng, size, as_json):
    """p_i = (-1)^i c_(2i); V{1/2} contributes rc1, V_I^2 contributes
    Sq1(prod w_d) written in rc letters."""
    free: dict = {}
    torsion: set = set()
    terms = []
    for _ in range(size):
        if rng.random() < 0.6:
            p_key = _random_p_key(rng)
            coeff = rng.choice((1, 2, 3, -1, -2))
            terms.append(f"{coeff}*{_p_text(p_key)}".replace("-", "- ", 1))
            c_key = tuple((2 * i, e) for i, e in p_key)
            sign = -1 if sum(i * e for i, e in p_key) % 2 else 1
            free[c_key] = free.get(c_key, 0) + sign * coeff
        elif rng.random() < 0.3:
            terms.append(_v_text((1,)))
            ref.toggle(torsion, ((1, 1),))
        else:
            ds = _random_v(rng)
            terms.append(_v_text(ds, 2))
            for k in ref.sq1([tuple((d, 1) for d in ds)]):
                ref.toggle(torsion, k)
    free = {k: c for k, c in free.items() if c}
    text = " + ".join(terms).replace("+ - ", "- ")
    argv = ["chern-express", "--expr", text, "--degree", "120"]

    def check_out(out, value):
        got_free: dict = {}
        got_torsion: set = set()
        if out != "0":
            for sign, chunk in ref.read_signed_terms(out):
                if chunk.startswith("rho^-1("):
                    got_torsion = ref.read_poly(chunk[len("rho^-1("):-1], "rc")
                    continue
                coeff = 1
                head, _, rest = chunk.partition("*")
                if head.isdigit():
                    coeff, chunk = int(head), rest
                key = () if chunk == "" else ref.read_mono(chunk, "c")
                got_free[key] = got_free.get(key, 0) + sign * coeff
        if got_free != free:
            return "free part differs from p_i = (-1)^i c_(2i)"
        if got_torsion != torsion:
            return "torsion lift differs"
        return None

    return _cli_op("chern-express", argv, check_out, False)


_QUERY_MAKERS = {
    "eval": _q_eval,
    "eval-fiber": _q_eval_fiber,
    "sq1": _q_sq1,
    "rho": _q_rho,
    "complexifiable": _q_complexifiable,
    "complexifiable-integral": _q_complexifiable_integral,
    "decompose": _q_decompose,
    "decompose-ideal": _q_decompose_ideal,
    "chern-express": _q_chern,
}


WORKLOADS = {
    "oracle": oracle_ops,
    "relations": relations_ops,
    "products": products_ops,
    "queries": queries_ops,
}
