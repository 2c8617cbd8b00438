"""Surface syntax for class expressions, read in one pass.

Grammar (whitespace insignificant, `*` binds tighter than `+`/`-`, `^`
tighter than `*`):

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' nat)?
    atom   := 'w' nat | 'p' nat | 'c' nat | 'V' '{' idx (',' idx)* '}'
            | nat | '(' expr ')'
    idx    := '1/2' | nat

The optional leading minus admits canonical integral output, which can
start with a negative term.  `1/2` is only legal inside V-braces.
The parser builds, as it reads, a value of the coefficient regime its
caller names: mod-2 (w atoms), integral (p and V atoms), or Chern (even c
atoms); integer literals are fine in any regime, and an atom of another
regime is an error.  A term that is a run of powers of atoms, with bare
literals as coefficients, is added to its sum as one monomial; only
parenthesized groups and literal powers use the value ring's * and **,
which a mod-2 caller may ask for in the quotient ring of a RingContext.
The run is built, and its atoms refused, when the term ends or a group in
it begins, so problems are reported in text order term by term.

Tokens are plain strings, from one findall over the text.  One search
before it finds any lexical error (a character outside the grammar, or a
number longer than int() reads), so that error is reported first, wherever
it sits.  The parser reads the tokens by index and keeps no positions: a
ParseError finds its token's position again, by running the same pattern
over the text, only when it is raised.
"""

from __future__ import annotations

import operator
import re
import sys
from functools import lru_cache, partial, reduce

from .complexifiability import ChernExpr, chern_sign
from .errors import MixedExpressionError, ParseError
from .feshbach import IndexSet, IntClass, collect_free
from .wring import SW, TOR, MPoly2, RingContext, mul, power, tor_key

# Deepest parenthesis nesting the parser accepts; parsing recurses per
# level, so this keeps it well inside Python's stack limit.
MAX_NESTING = 100

# One token per match: a number of ASCII digits (str.isdigit would admit
# "²" or "٣"), a name, a symbol, or any other character.  Whitespace,
# exactly what str.isspace accepts, matches nothing and is skipped.
_TOKEN = re.compile(r"[0-9]+|[wpcV]|[-+*^(){},/]|\S")
_END = ""  # the token after the last; no match is empty
_LETTERS = frozenset("wpc")  # the atoms read as a letter and an index


@lru_cache(maxsize=None)
def _lexical_error(limit: int) -> re.Pattern:
    """The first character the grammar refuses, or the first number of
    more than `limit` digits (int() refuses those; 0 means no limit)."""
    longer = f"|[0-9]{{{limit + 1},}}" if limit else ""
    return re.compile(r"[^\s0-9wpcV\-+*^(){},/]" + longer)


def _tokens(text: str) -> list:
    """The tokens of text as plain strings, then _END.  A lexical error is
    raised here, so before any parse error, wherever it sits."""
    limit = getattr(sys, "get_int_max_str_digits", int)()  # before 3.10.7: none
    bad = _lexical_error(limit).search(text)
    if bad is not None:
        if "0" <= bad[0][0] <= "9":
            raise ParseError(f"number of {len(bad[0])} digits is too long", bad.start())
        raise ParseError(f"unexpected character {bad[0]!r}", bad.start())
    tokens = _TOKEN.findall(text)
    tokens.append(_END)
    return tokens


def _found(tok: str) -> str:
    """A token as an error message names it: a number by its value."""
    if tok == _END:
        return "end of input"
    return str(int(tok)) if tok.isdigit() else repr(tok)


class _Parser:
    """Reads text into a value of one regime.  A run is a list of (kind,
    value, exponent) factors: kind "nat" for a bare literal, "V" for an
    index set's doubled tuple, else the atom's letter.  `new_sum` makes the
    regime's sum, which adds runs and values and gives the value; `product`
    and `power` are the ring's, under the caller's context in the mod-2
    regime."""

    def __init__(self, text: str, domain: str, ctx: RingContext | None = None):
        if domain not in _REGIMES:
            raise ValueError(f"unknown domain {domain!r}")
        if ctx is not None and domain != "mod2":
            raise ValueError("only the mod2 regime is read under a ring context")
        self.new_sum = _REGIMES[domain]
        if ctx is None:
            self.product, self.power = operator.mul, operator.pow
        else:
            self.product, self.power = partial(mul, ctx=ctx), partial(power, ctx=ctx)
        self.text = text
        self.tokens = _tokens(text)
        self.i = 0
        self.depth = 0

    def error(self, message: str, k: int) -> ParseError:
        """The error at token k; the same pattern tokenizes the text again,
        so the k-th match is the k-th token."""
        starts = [m.start() for m in _TOKEN.finditer(self.text)]
        starts.append(len(self.text))
        return ParseError(message, starts[k])

    def take(self, kind: str) -> str:
        """The next token, which must be a number ("nat") or `kind`."""
        k = self.i
        tok = self.tokens[k]
        if not (tok.isdigit() if kind == "nat" else tok == kind):
            raise self.error(f"expected {kind!r}, found {_found(tok)}", k)
        self.i = k + 1
        return tok

    def parse(self):
        value = self.expr()
        if self.tokens[self.i] != _END:
            raise self.error(f"unexpected {_found(self.tokens[self.i])}", self.i)
        return value

    def expr(self):
        tokens, total = self.tokens, self.new_sum()
        negate = tokens[self.i] == "-"
        if negate:
            self.i += 1
        self.term(total, negate)
        while tokens[self.i] in ("+", "-"):
            negate = tokens[self.i] == "-"
            self.i += 1
            self.term(total, negate)
        return total.value()

    def term_of(self, run):
        """The value of a run that is a factor of a product."""
        total = self.new_sum()
        total.add_run(run, False)
        return total.value()

    def term(self, total, negate: bool) -> None:
        """Adds the next term to the sum; a run of atoms alone is added
        as one monomial, with no value of its own."""
        tokens, run, factors = self.tokens, [], []
        k = self.i
        while True:
            tok = tokens[k]
            # the common atom, w|p|c nat [^ nat], read in place; any other
            # order goes through the methods below, which report it
            if (tok in _LETTERS and tokens[k + 1].isdigit()
                    and (tokens[k + 2] != "^" or tokens[k + 3].isdigit())):
                index = int(tokens[k + 1])
                if index < 1:
                    raise self.error("index must be positive", k + 1)
                if tokens[k + 2] == "^":
                    run.append((tok, index, int(tokens[k + 3])))
                    k += 4
                else:
                    run.append((tok, index, 1))
                    k += 2
            else:
                self.i = k + 1
                if tok == "(":
                    if run:  # refuse the run's atoms before reading the group
                        factors.append(self.term_of(run))
                        run = []
                    factors.append(self.powered(self.group(k)))
                elif tok.isdigit() and tokens[k + 1] == "^":
                    factors.append(self.powered(self.term_of([("nat", int(tok), 1)])))
                elif tok.isdigit():
                    run.append(("nat", int(tok), 1))
                elif tok == "V":
                    run.append(("V", self.v_set(), self.exponent()))
                elif tok in _LETTERS:
                    run.append((tok, self.index(), self.exponent()))
                else:
                    raise self.error(f"expected an atom, found {_found(tok)}", k)
                k = self.i
            if tokens[k] != "*":
                break
            k += 1
        self.i = k
        if not factors:
            total.add_run(run, negate)
            return
        if run:
            factors.append(self.term_of(run))
        total.add_value(reduce(self.product, factors), negate)

    def exponent(self) -> int:
        if self.tokens[self.i] != "^":
            return 1
        self.i += 1
        return int(self.take("nat"))

    def powered(self, value):
        return value if self.tokens[self.i] != "^" else self.power(value, self.exponent())

    def group(self, k: int):
        if self.depth == MAX_NESTING:
            raise self.error(f"parentheses nest deeper than {MAX_NESTING}", k)
        self.depth += 1
        value = self.expr()
        self.depth -= 1
        self.take(")")
        return value

    def index(self) -> int:
        k = self.i
        index = int(self.take("nat"))
        if index < 1:
            raise self.error("index must be positive", k)
        return index

    def v_set(self) -> tuple:
        self.take("{")
        doubled = []
        while True:
            k = self.i
            num = int(self.take("nat"))
            if self.tokens[self.i] == "/":
                self.i += 1
                den = int(self.take("nat"))
                if num != 1 or den != 2:
                    raise self.error("the only fractional index is 1/2", k)
                d = 1
            else:
                if num < 1:
                    raise self.error("index must be positive", k)
                d = 2 * num
            if d in doubled:
                raise self.error("duplicate index in V-set", k)
            doubled.append(d)
            nxt = self.tokens[self.i]
            self.i += 1
            if nxt == "}":
                break
            if nxt != ",":
                raise self.error(f"expected ',' or '}}', found {_found(nxt)}", self.i - 1)
        return tuple(sorted(doubled))


class _Mod2Sum:
    """A mod-2 sum as it is read: the monomials met an odd number of times.
    A run adds one sw monomial, from the summed exponents, when the product
    of its literals is odd; a sign changes nothing mod 2."""

    def __init__(self):
        self.keys = set()

    def add_run(self, run, negate: bool) -> None:
        exps: dict = {}
        odd = True
        for kind, value, e in run:
            if kind == "nat":
                odd = odd and value % 2 == 1
            elif kind == "V":
                raise MixedExpressionError("V-classes are integral, not mod-2")
            elif kind != "w":
                raise MixedExpressionError(f"{kind}{value} is not a mod-2 atom")
            else:
                exps[value] = exps.get(value, 0) + e
        if odd:
            self.keys ^= {tuple(sorted((i, e) for i, e in exps.items() if e))}

    def add_value(self, value: MPoly2, negate: bool) -> None:
        self.keys ^= value.monomials

    def value(self) -> MPoly2:
        return MPoly2(frozenset(self.keys), SW)


class _IntegralSum:
    """An integral sum as it is read: free coefficients by p key, and the
    tor monomials met an odd number of times.  A run adds one free p
    monomial with the literals' product as coefficient, or, when a V factor
    remains, one tor monomial if that product is odd (2*V_I = 0).  With
    chern, the atoms are even Chern classes, c_{2i} read as p_i with the
    sign chern_sign gives."""

    def __init__(self, chern: bool = False):
        self.chern = chern
        self.free: dict = {}
        self.tor = set()

    def add_run(self, run, negate: bool) -> None:
        coeff, p_exps, v_exps = 1, {}, {}
        for kind, value, e in run:
            if kind == "nat":
                coeff *= value
            elif self.chern:
                if kind == "V":
                    raise MixedExpressionError("V-classes cannot appear in a Chern expression")
                if kind != "c":
                    raise MixedExpressionError(f"{kind}{value} is not a Chern atom")
                if value % 2:
                    raise MixedExpressionError(
                        f"c{value}: only even Chern classes arise from "
                        "complexifiable classes"
                    )
                p_exps[value // 2] = p_exps.get(value // 2, 0) + e
            elif kind == "V":
                mask = IndexSet(value).mask
                v_exps[mask] = v_exps.get(mask, 0) + e
            elif kind != "p":
                raise MixedExpressionError(f"{kind}{value} is not an integral atom")
            else:
                p_exps[value] = p_exps.get(value, 0) + e
        p_key = tuple(sorted((i, e) for i, e in p_exps.items() if e))
        if self.chern:
            coeff *= chern_sign(p_key)
        v_key = [(mask, e) for mask, e in v_exps.items() if e]
        if not v_key:
            self.free[p_key] = self.free.get(p_key, 0) + (-coeff if negate else coeff)
        elif coeff % 2:
            self.tor ^= {tor_key(p_key, v_key)}

    def add_value(self, value: IntClass, negate: bool) -> None:
        for key, c in value.free:
            self.free[key] = self.free.get(key, 0) + (-c if negate else c)
        self.tor ^= value.torsion.monomials

    def value(self) -> IntClass:
        return IntClass(collect_free(self.free.items()), MPoly2(frozenset(self.tor), TOR))


# each regime's sum as it is read
_REGIMES = {
    "mod2": _Mod2Sum,
    "integral": _IntegralSum,
    "chern": partial(_IntegralSum, chern=True),
}


def parse(text: str, domain: str, ctx: RingContext | None = None):
    """The value of a class expression in the named regime: "mod2" ->
    MPoly2, "integral" -> IntClass, "chern" -> ChernExpr (free part only).
    A mod-2 expression may be read under a context: its group products and
    powers are taken in the context's quotient ring, so the value agrees
    with the exact one on every monomial the context admits, and a caller
    reduces it under that context.

    Raises ParseError with a position, and MixedExpressionError for an
    atom foreign to the regime.
    """
    value = _Parser(text, domain, ctx).parse()
    return ChernExpr(value, MPoly2.zero(SW)) if domain == "chern" else value


def parse_mod2(text: str, ctx: RingContext | None = None) -> MPoly2:
    return parse(text, "mod2", ctx)


def parse_integral(text: str) -> IntClass:
    return parse(text, "integral")
