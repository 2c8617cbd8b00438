"""Parser, canonical printing, and the JSON forms."""

import hashlib
import json
import operator
import random
from functools import reduce

import pytest

from charclass import feshbach, wring
from charclass.errors import (
    CharclassError,
    InvalidIndexSetError,
    MixedExpressionError,
    ParseError,
)
from charclass.expr import MAX_NESTING, parse, parse_integral, parse_mod2
from charclass.feshbach import MAX_V_INDEX, IndexSet, IntClass
from charclass.serialize import dumps, loads
from charclass.verify import random_integral_complexifiable, random_mod2
from charclass.wring import SW, MPoly2, square, w


def test_parse_structure():
    value = parse_mod2("w2^2*w1^4 + w3^2")
    assert value == w(2) ** 2 * w(1) ** 4 + w(3) ** 2
    assert str(value) == "w3^2 + w1^4*w2^2"


def test_parse_integral_structure():
    value = parse_integral("V{1/2,3}^2 + p2")
    assert value == IntClass.V(["1/2", 3]) ** 2 + IntClass.p(2)
    assert str(value) == "p2 + V{1/2,3}^2"


def test_parse_rejects_zero_index():
    with pytest.raises(ParseError) as err:
        parse("w0", "mod2")
    assert "positive" in str(err.value)
    assert err.value.position == 1


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse("w1 + @", "mod2")
    assert err.value.position == 5
    with pytest.raises(ParseError):
        parse("w1 +", "mod2")
    with pytest.raises(ParseError):
        parse("V{}", "integral")
    with pytest.raises(ParseError):
        parse("V{1,1}", "integral")
    with pytest.raises(ParseError):
        parse("1/2", "integral")  # fraction only inside V-braces
    with pytest.raises(ParseError):
        parse("V{3/4}", "integral")


def test_parse_parentheses_and_power_zero():
    assert parse_mod2("(w1 + w2)^2") == square(w(1)) + square(w(2))
    assert parse_mod2("w5^0") == MPoly2.one()


def test_leading_minus():
    assert parse_integral("-p1") == IntClass.p(1).negate()
    assert parse_mod2("-w1") == w(1)  # minus is plus mod 2


def test_elaborate_examples():
    assert parse_mod2("w1+w1").is_zero()
    assert parse_integral("2*V{1}").is_zero()
    with pytest.raises(MixedExpressionError):
        parse("w1 + p1", "mod2")
    with pytest.raises(MixedExpressionError):
        parse("w1", "integral")
    with pytest.raises(MixedExpressionError):
        parse("V{1}", "mod2")


def test_elaboration_refusal_messages():
    refusals = [
        ("p1", "mod2", "p1 is not a mod-2 atom"),
        ("c2", "mod2", "c2 is not a mod-2 atom"),
        ("V{1}", "mod2", "V-classes are integral, not mod-2"),
        ("w1", "integral", "w1 is not an integral atom"),
        ("c2", "integral", "c2 is not an integral atom"),
        ("w1", "chern", "w1 is not a Chern atom"),
        ("p1", "chern", "p1 is not a Chern atom"),
        ("c3", "chern", "c3: only even Chern classes arise from complexifiable classes"),
        ("V{1}", "chern", "V-classes cannot appear in a Chern expression"),
        ("w1 + p1", "mod2", "p1 is not a mod-2 atom"),
        ("c2*V{1/2}", "chern", "V-classes cannot appear in a Chern expression"),
        ("w2^2 - c4", "mod2", "c4 is not a mod-2 atom"),
        # a product's first bad atom, left to right, also under ^0
        ("w1*p1^0*V{1}", "mod2", "p1 is not a mod-2 atom"),
        ("0*V{1}^0*w2", "mod2", "V-classes are integral, not mod-2"),
        ("p1*c3^0*w1", "integral", "c3 is not an integral atom"),
        ("c2*c3^0*p1", "chern", "c3: only even Chern classes arise from complexifiable classes"),
    ]
    for text, domain, message in refusals:
        with pytest.raises(MixedExpressionError) as excinfo:
            parse(text, domain)
        assert str(excinfo.value) == message, (text, domain)
    with pytest.raises(ValueError, match="unknown domain 'ext'"):
        parse("w1", "ext")


def test_refusal_under_power_zero():
    # an atom raised to the 0th power is still read, and refused, once
    for text, domain in [("c2 + V{1}^0", "chern"), ("w1 + p1^0", "mod2"),
                         ("p1 + w1^0", "integral"), ("c2 + c3^0", "chern")]:
        with pytest.raises(MixedExpressionError):
            parse(text, domain)
    assert str(parse("c2 + c4^0", "chern")) == "1 + c2"
    # every V set is validated, before any later atom is read
    with pytest.raises(InvalidIndexSetError, match="above the limit"):
        parse(f"0*V{{{MAX_V_INDEX + 1}}}^0*w1", "integral")


def test_mod2_read_under_a_context_agrees_up_to_its_caps():
    # group products and powers taken under the context agree with the
    # exact value on what the context admits: both caps are monomial ideals
    rng = random.Random(14)
    texts = [_corpus_text(rng, "w") for _ in range(150)]
    texts += ["(w1+w2)^5*w3", "(1+w1)^37", "(w1+(w2+w3)^3)^2*w2", "3^9*(w2+1)^2"]
    for text in texts:
        full = parse_mod2(text)
        for ctx in (wring.RingContext(0), wring.RingContext(3), wring.RingContext(8, 2),
                    wring.RingContext(24)):
            capped = wring.reduce_poly(parse_mod2(text, ctx), ctx)
            assert capped == wring.reduce_poly(full, ctx), (text, ctx)
            assert parse(text, "mod2", ctx) == parse_mod2(text, ctx)
    for domain in ("integral", "chern"):
        with pytest.raises(ValueError, match="only the mod2 regime"):
            parse("p1", domain, wring.RingContext(8))


def test_lexer_reads_only_ascii_digits():
    # superscript two, Arabic-Indic three and one, fullwidth one
    for text, position in [("w\u00b2", 1), ("w\u0663", 1), ("p\u0661", 1),
                           ("V{\uff11}", 2)]:
        with pytest.raises(ParseError) as excinfo:
            parse(text, "integral")
        assert excinfo.value.position == position


def test_lexer_refuses_numbers_beyond_the_digit_limit():
    # int() refuses strings of more than 4,300 digits by default
    nines = "9" * 5000
    for text, position in [(f"w{nines}", 1), (f"V{{1,{nines}}}", 4),
                           (f"{nines}*p1", 0), (f"w1^{nines}", 3)]:
        with pytest.raises(ParseError, match="number of 5000 digits is too long") as excinfo:
            parse(text, "integral")
        assert excinfo.value.position == position


def test_chern_domain_elaboration():
    e = parse("-c2 + c4^2", "chern")
    assert str(e) == "-c2 + c4^2"
    with pytest.raises(MixedExpressionError):
        parse("c3", "chern")  # odd Chern index


def test_print_parse_round_trip_mod2():
    rng = random.Random(61)
    for _ in range(100):
        x = random_mod2(rng, 16)
        assert parse_mod2(str(x)) == x


def test_print_parse_round_trip_integral():
    rng = random.Random(62)
    for _ in range(100):
        x = random_integral_complexifiable(rng, 24)
        assert parse_integral(str(x)) == x


def test_print_parse_idempotent():
    rng = random.Random(63)
    for _ in range(50):
        x = random_mod2(rng, 12)
        once = str(parse_mod2(str(x)))
        assert str(parse_mod2(once)) == once


def test_json_schema_mod2():
    x = square(w(1)) + w(2) + MPoly2.one()
    assert dumps(x) == '{"type":"mod2","monomials":[[],[[1,2]],[[2,1]]]}'
    assert loads(dumps(x)) == x


def test_json_schema_integral():
    x = IntClass.p(1) + IntClass.p(1) + IntClass.V(["1/2", 2]) * IntClass.p(2)
    text = dumps(x)
    assert text == (
        '{"type":"integral","free":[{"coeff":2,"p":[[1,1]]}],'
        '"torsion":[{"p":[[2,1]],"V":[[[1,4],1]]}]}'
    )
    assert loads(text) == x


def test_json_round_trip_byte_stable():
    rng = random.Random(64)
    for _ in range(60):
        x = random_mod2(rng, 14)
        y = random_integral_complexifiable(rng, 20)
        for value in (x, y):
            blob = dumps(value)
            assert dumps(loads(blob)) == blob
            assert dumps(value) == blob  # repeated serialization is stable


def test_json_root_namespace_tagged():
    from charclass.wring import r

    blob = dumps(r(1) * r(2))
    assert json.loads(blob)["namespace"] == "root"
    assert loads(blob) == r(1) * r(2)


def test_json_rejects_garbage():
    with pytest.raises(ValueError):
        loads('{"type":"nonsense"}')
    with pytest.raises(ValueError):
        loads('{"no":"type"}')


@pytest.mark.parametrize("blob", [
    # index set {3/2}, which reads as V{1} through the bit mask
    '{"type":"integral","free":[],"torsion":[{"p":[],"V":[[[3],1]]}]}',
    # V{1}*V{1} rather than V{1}^2
    '{"type":"integral","free":[],"torsion":[{"p":[],"V":[[[2],1],[[2],1]]}]}',
    '{"type":"integral","free":[],"torsion":[{"p":[],"V":[[[2],0]]}]}',
    '{"type":"integral","free":[],"torsion":[{"p":[],"V":[]}]}',
    '{"type":"mod2","monomials":[[[0,1]]]}',
    '{"type":"mod2","monomials":[[[2,1],[1,1]]]}',
    # coefficients that int() and == read as integers
    '{"type":"integral","free":[{"coeff":3.0,"p":[[1,1]]}],"torsion":[]}',
    '{"type":"integral","free":[{"coeff":true,"p":[[1,1]]}],"torsion":[]}',
    # well formed, but not what serialization writes back
    '{"type":"mod2","monomials":[[[2,1]],[[1,1]]]}',  # out of graded-lex order
    '{"type":"integral","free":[{"coeff":0,"p":[]}],"torsion":[]}',
    '{"type":"integral","free":[{"coeff":1,"p":[[1,1]]},{"coeff":1,"p":[[1,1]]}],'
    '"torsion":[]}',  # a repeated free key
    '{"type":"mod2","monomials":[],"namespace":"sw"}',
    '{"type":"mod2","monomials":[],"extra":1}',
    # missing or mistyped fields
    '{"type":"mod2"}',
    '{"type":"mod2","monomials":5}',
])
def test_json_rejects_malformed_and_noncanonical(blob):
    with pytest.raises(ValueError):
        loads(blob)


@pytest.mark.parametrize("blob", [
    "[" * 100_000,
    '{"type":"mod2","monomials":' + "[" * 100_000 + "]" * 100_000 + "}",
])
def test_json_refuses_deep_nesting_with_value_error(blob):
    """Nesting deeper than the JSON parser recurses is refused like any
    other text dumps would not write, not with a RecursionError."""
    with pytest.raises(ValueError) as excinfo:
        loads(blob)
    assert str(excinfo.value) == "JSON nested too deeply"


def _reference_atom(domain, rng):
    """A random atom of the regime as (text, value from the public
    constructors), drawn from small pools so that atoms repeat."""
    if domain == "mod2":
        i = rng.randint(1, 4)
        return f"w{i}", w(i)
    if domain == "chern":
        i = rng.randint(1, 3)
        return f"c{2 * i}", IntClass.integer((-1) ** i) * IntClass.p(i)
    if rng.random() < 0.5:
        i = rng.randint(1, 3)
        return f"p{i}", IntClass.p(i)
    indices = rng.choice([("1/2",), (1,), ("1/2", 2), (1, 3)])
    text = "V{" + ",".join(str(i) for i in indices) + "}"
    return text, IntClass.V(IndexSet.of(*indices))


def _reference_literal(domain, n):
    if domain == "mod2":
        return MPoly2.one(SW) if n % 2 else MPoly2.zero(SW)
    return IntClass.integer(n)


def _random_term(rng, domain, literal_powers=True):
    """A product of powers of atoms, bare literals 0-5 and (unless left
    out) literal powers, as (text, its value by the ring's own * and **)."""
    texts, values = [], []
    for _ in range(rng.randint(1, 5)):
        roll = rng.random()
        if roll < 0.15:
            n = rng.randint(0, 5)
            texts.append(str(n))
            values.append(_reference_literal(domain, n))
        elif roll < 0.25 and literal_powers:
            n, e = rng.randint(0, 3), rng.randint(0, 3)
            texts.append(f"{n}^{e}")
            values.append(_reference_literal(domain, n) ** e)
        else:
            text, value = _reference_atom(domain, rng)
            e = rng.choice((None, 0, 1, 2, 3, 5))
            texts.append(text if e is None else f"{text}^{e}")
            values.append(value if e is None else value ** e)
    return "*".join(texts), reduce(operator.mul, values)


def _random_sum(rng, domain: str, n_terms: int, depth: int = 0):
    """A seeded sum of signed products, as (text, its value with every sum
    folded pairwise by the ring's own + * and **): integer literals as
    coefficients, parenthesized sums up to two levels deep, and cancelling
    pairs."""
    terms = []
    while len(terms) < n_terms:
        texts, values = [], []
        if rng.random() < 0.3:
            n = rng.randint(0, 5)
            texts.append(str(n))
            values.append(_reference_literal(domain, n))
        for _ in range(rng.randint(1, 3)):
            if depth < 2 and rng.random() < 0.05:
                text, value = _random_sum(rng, domain, rng.randint(1, 4), depth + 1)
                text = f"({text})"
                e = 2 if rng.random() < 0.3 else 1
            else:
                text, value = _reference_atom(domain, rng)
                e = rng.randint(2, 3) if rng.random() < 0.2 else 1
            texts.append(text if e == 1 else f"{text}^{e}")
            values.append(value ** e)
        sign = rng.choice((1, -1))
        terms.append((sign, "*".join(texts), reduce(operator.mul, values)))
        if rng.random() < 0.2:  # a pair that cancels
            terms.append((-sign, *terms[-1][1:]))
    rng.shuffle(terms)
    text = ("-" if terms[0][0] < 0 else "") + terms[0][1]
    for sign, t, _ in terms[1:]:
        text += (" - " if sign < 0 else " + ") + t
    return text, reduce(operator.add, [-v if sign < 0 else v for sign, _, v in terms])


@pytest.mark.parametrize("domain", ["mod2", "integral", "chern"])
def test_one_pass_sum_matches_the_pairwise_fold(domain):
    rng = random.Random(11)
    for n_terms in (1, 2, 3, 7, 40, 150, 500):
        text, want = _random_sum(rng, domain, n_terms)
        got = parse(text, domain)
        if domain == "chern":
            assert not got.lift_marker
            got = got.free
        assert got == want
        assert str(got) == str(want)
        assert dumps(got) == dumps(want)


_FIXED_TERMS = {
    "mod2": [("w3*w1*w3", w(3) * w(1) * w(3)), ("0^0*w1", w(1)),
             ("w2^0", MPoly2.one(SW)), ("4*w1", MPoly2.zero(SW))],
    "integral": [
        ("V{1}*V{1}^2", IntClass.V([1]) * IntClass.V([1]) ** 2),
        ("p2*p2^3*V{1/2,2}", IntClass.p(2) * IntClass.p(2) ** 3
         * IntClass.V(IndexSet.of("1/2", 2))),
        ("2^3*p1", IntClass.integer(8) * IntClass.p(1)),
        ("0^0*p1", IntClass.p(1)), ("V{1}^0*3*p1", IntClass.integer(3) * IntClass.p(1)),
        ("2*p1*V{1}", IntClass.zero()), ("3*p1*V{1}", IntClass.p(1) * IntClass.V([1])),
    ],
    "chern": [("c2^3*c4^2*c6", -IntClass.p(1) ** 3 * IntClass.p(2) ** 2 * -IntClass.p(3)),
              ("c2^0*5", IntClass.integer(5)), ("c6*c2", IntClass.p(3) * IntClass.p(1))],
}


@pytest.mark.parametrize("domain", ["mod2", "integral", "chern"])
def test_terms_match_the_ring_products_of_their_atoms(domain):
    rng = random.Random(12)
    cases = _FIXED_TERMS[domain] + [_random_term(rng, domain) for _ in range(300)]
    for text, want in cases:
        got = parse(text, domain)
        if domain == "chern":
            got = got.free
        assert got == want, text
        assert str(got) == str(want), text
        assert dumps(got) == dumps(want), text


@pytest.mark.parametrize("domain", ["mod2", "integral", "chern"])
def test_monomial_terms_take_no_ring_product(domain, monkeypatch):
    rng = random.Random(13)
    text = " + ".join(_random_term(rng, domain, literal_powers=False)[0]
                      for _ in range(200))
    calls = []
    for module, name in [(wring, "_sum_products"), (feshbach, "int_mul")]:
        def counted(*args, _real=getattr(module, name), **kwargs):
            calls.append(args)
            return _real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    parse(text, domain)
    assert calls == []
    # a parenthesized group still multiplies in the ring, and is counted
    parse(f"({text})*{text.split(' + ')[0]}", domain)
    assert calls


# -- a pinned corpus of outcomes -----------------------------------------------
#
# Every text of a seeded corpus is read in all three regimes, and each
# reading's outcome is either the serialized value or the refusal's
# (exception type, message, position).  The sha256 of each group's outcomes
# was taken before the lexer read tokens as plain strings; any change in a
# value, a message, a position or which error is reported first shows here.

# what an edit puts into a text: refused characters, a digit, grammar symbols
# out of place, and a number beyond the interpreter's digit limit
_EDITS = ("@", "²", "0", "^", "{", "/", "9" * 5000, "(", ")", "*", "+",
          "-", ",", "}", "1", " ", "w", "p", "V", "c")
_CORPUS_LETTERS = {"mod2": "w", "integral": "ppV", "chern": "c"}


def _corpus_text(rng, letters: str, depth: int = 0) -> str:
    """A query-like sum: atoms with indices up to 12, V sets, literals,
    literal powers, and parenthesized groups with small exponents."""
    terms = []
    for _ in range(rng.randint(1, 4)):
        factors = []
        for _ in range(rng.randint(1, 3)):
            roll = rng.random()
            if depth < 2 and roll < 0.12:
                text = "(" + _corpus_text(rng, letters, depth + 1) + ")"
                if rng.random() < 0.4:
                    text += f"^{rng.randint(0, 3)}"
            elif roll < 0.25:
                text = str(rng.randint(0, 5))
                if rng.random() < 0.3:
                    text += f"^{rng.randint(0, 3)}"
            else:
                kind = rng.choice(letters)
                if kind == "V":
                    indices = rng.sample(["1/2", "1", "2", "3", "4"], rng.randint(1, 3))
                    text = "V{" + ",".join(indices) + "}"
                else:
                    text = f"{kind}{rng.randint(1, 12)}"
                if rng.random() < 0.3:
                    text += f"^{rng.randint(0, 4)}"
            factors.append(text)
        terms.append(rng.choice(("*", " * ")).join(factors))
    text = terms[0]
    for t in terms[1:]:
        text += rng.choice((" + ", "+", " - ", "-")) + t
    return ("-" if rng.random() < 0.2 else "") + text


def _edited(rng, text: str) -> str:
    """text with one character inserted, deleted or replaced."""
    at, edit = rng.randint(0, len(text)), rng.choice(_EDITS)
    op = rng.choice(("insert", "delete", "replace"))
    if op == "insert":
        return text[:at] + edit + text[at:]
    at = min(at, len(text) - 1)
    return text[:at] + ("" if op == "delete" else edit) + text[at + 1:]


def _nested_texts() -> list:
    """Parentheses nested from three below to three above MAX_NESTING,
    closed, unclosed, over-closed, signed, powered and inside products."""
    texts = []
    for d in range(MAX_NESTING - 3, MAX_NESTING + 4):
        for atom in ("w1", "p1", "c2", "V{1/2}"):
            texts += ["(" * d + atom + ")" * d,
                      "(" * d + atom + ")" * (d - 1),
                      "(" * d + atom + ")" * (d + 1),
                      "(" * d + atom + "+w2)^2" * d,
                      "-(" * d + atom + ")" * d,
                      "(w1*" * d + atom + ")" * d]
    return texts


def _corpus() -> dict:
    rng = random.Random(2011)
    valid = [_corpus_text(rng, letters)
             for letters in _CORPUS_LETTERS.values() for _ in range(250)]
    edited = [_edited(rng, text) for text in valid for _ in range(2)]
    return {"valid": valid, "edited": edited, "nested": _nested_texts()}


def _outcome(text: str, domain: str) -> str:
    try:
        value = parse(text, domain)
    except CharclassError as e:
        return f"{type(e).__name__}|{e}|{getattr(e, 'position', None)}"
    return dumps(value.free if domain == "chern" else value)


_CORPUS_SHA256 = {
    "valid": "68359c6773d5c6ab4608094b42ac4cb2693cb3f6d290da28f5657f4784ff2532",
    "edited": "573678648eeca7f302937fad93538ec14fb5d5ce671b87409174bfc83aec8ca3",
    "nested": "54cf6ad42b7bc3d3f91cf03bd7f1b0887f04e49a6cf2aa17d65be40a500b960e",
}


def test_parse_outcomes_match_the_pinned_corpus():
    corpus = _corpus()
    assert sum(map(len, corpus.values())) >= 2000
    for group, texts in corpus.items():
        lines = [f"{domain}\t{text}\t{_outcome(text, domain)}\n"
                 for text in texts for domain in _CORPUS_LETTERS]
        digest = hashlib.sha256("".join(lines).encode()).hexdigest()
        assert digest == _CORPUS_SHA256[group], group
