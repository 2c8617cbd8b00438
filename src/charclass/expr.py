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
regime is an error.  A term's run of powers of atoms, with bare literals as
coefficients, becomes one monomial in one step; only parenthesized groups
and literal powers use the value ring's * and **.  The run is built, and
its atoms refused, when the term ends or a group in it begins, so problems
are reported in text order term by term.  The whole text is tokenized
first, so a lexical error is reported wherever it sits.
"""

from __future__ import annotations

import operator
import re
from functools import partial, reduce

from .complexifiability import ChernExpr, chern_sign
from .errors import MixedExpressionError, ParseError
from .feshbach import IndexSet, IntClass, int_add_all
from .wring import SW, TOR, MPoly2, add_all, tor_key

# Deepest parenthesis nesting the parser accepts; parsing recurses per
# level, so this keeps it well inside Python's stack limit.
MAX_NESTING = 100

# One token per match, by group: 1 a number of ASCII digits (str.isdigit
# would admit "²" or "٣"), 2 a name, 3 a symbol, 4 any other character,
# which is refused.  Whitespace, exactly what str.isspace accepts, matches
# no group and is skipped.
_TOKEN = re.compile(r"([0-9]+)|([wpcV])|([-+*^(){},/])|(\S)")


def _tokens(text: str) -> list:
    """The (kind, value, position) tokens of text, ending in an "end" token."""
    tokens = []
    for m in _TOKEN.finditer(text):
        group, i = m.lastindex, m.start()
        if group == 1:
            try:
                tokens.append(("nat", int(m[1]), i))
            except ValueError:  # beyond the interpreter's digit limit
                raise ParseError(f"number of {len(m[1])} digits is too long", i) from None
        elif group == 2:
            tokens.append(("name", m[2], i))
        elif group == 3:
            tokens.append((m[3], m[3], i))
        else:
            raise ParseError(f"unexpected character {m[4]!r}", i)
    tokens.append(("end", None, len(text)))
    return tokens


def _found(value) -> str:
    """A token's value as an error message names it; only the end token
    has the value None."""
    return "end of input" if value is None else repr(value)


class _Parser:
    """Reads text into a value of one regime: `term_of` builds a run of
    (kind, value, exponent) factors, kind "nat" for a bare literal, "V"
    for an index set's doubled tuple, else the atom's letter; `total` adds
    a sum's terms in one pass."""

    def __init__(self, text: str, domain: str):
        if domain not in _REGIMES:
            raise ValueError(f"unknown domain {domain!r}")
        self.term_of, self.total = _REGIMES[domain]
        self.tokens = _tokens(text)
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self, kind=None):
        tok = self.tokens[self.i]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {_found(tok[1])}", tok[2])
        self.i += 1
        return tok

    def parse(self):
        value = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected {tok[1]!r}", tok[2])
        return value

    def expr(self):
        negate = self.peek()[0] == "-"
        if negate:
            self.take()
        value = self.term()
        if not negate and self.peek()[0] not in ("+", "-"):
            return value
        values = [-value if negate else value]
        while self.peek()[0] in ("+", "-"):
            negate = self.take()[0] == "-"
            value = self.term()
            values.append(-value if negate else value)
        return self.total(values)

    def term(self):
        run, factors = [], []
        while True:
            kind, value, pos = self.take()
            if kind == "(":
                if run:  # refuse the run's atoms before reading the group
                    factors.append(self.term_of(run))
                    run = []
                factors.append(self.power(self.group(pos)))
            elif kind == "nat" and self.peek()[0] == "^":
                factors.append(self.power(self.term_of([("nat", value, 1)])))
            elif kind == "nat":
                run.append(("nat", value, 1))
            elif kind == "name":
                atom = self.v_set() if value == "V" else self.index()
                run.append((value, atom, self.exponent()))
            else:
                raise ParseError(f"expected an atom, found {_found(value)}", pos)
            if self.peek()[0] != "*":
                break
            self.take()
        if run:
            factors.append(self.term_of(run))
        return reduce(operator.mul, factors)

    def exponent(self) -> int:
        if self.peek()[0] != "^":
            return 1
        self.take()
        return self.take("nat")[1]

    def power(self, value):
        return value if self.peek()[0] != "^" else value ** self.exponent()

    def group(self, pos: int):
        if self.depth == MAX_NESTING:
            raise ParseError(f"parentheses nest deeper than {MAX_NESTING}", pos)
        self.depth += 1
        value = self.expr()
        self.depth -= 1
        self.take(")")
        return value

    def index(self) -> int:
        tok = self.take("nat")
        if tok[1] < 1:
            raise ParseError("index must be positive", tok[2])
        return tok[1]

    def v_set(self) -> tuple:
        self.take("{")
        doubled = []
        while True:
            tok = self.take("nat")
            if self.peek()[0] == "/":
                self.take()
                den = self.take("nat")
                if tok[1] != 1 or den[1] != 2:
                    raise ParseError("the only fractional index is 1/2", tok[2])
                d = 1
            else:
                if tok[1] < 1:
                    raise ParseError("index must be positive", tok[2])
                d = 2 * tok[1]
            if d in doubled:
                raise ParseError("duplicate index in V-set", tok[2])
            doubled.append(d)
            nxt = self.take()
            if nxt[0] == "}":
                break
            if nxt[0] != ",":
                raise ParseError(f"expected ',' or '}}', found {_found(nxt[1])}", nxt[2])
        return tuple(sorted(doubled))


def _mod2_term(run) -> MPoly2:
    """One sw monomial from the summed exponents, times the literals'
    parity."""
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
    if not odd:
        return MPoly2.zero(SW)
    return MPoly2(frozenset({tuple(sorted((i, e) for i, e in exps.items() if e))}), SW)


def _integral_term(run, chern: bool = False) -> IntClass:
    """One free p monomial with the literals' product as coefficient, or,
    when a V factor remains, one tor monomial if that product is odd and 0
    if it is even (2*V_I = 0).  With chern, the atoms are even Chern
    classes, c_{2i} read as p_i with the sign chern_sign gives."""
    coeff, p_exps, v_exps = 1, {}, {}
    for kind, value, e in run:
        if kind == "nat":
            coeff *= value
        elif chern:
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
    if chern:
        coeff *= chern_sign(p_key)
    v_key = [(mask, e) for mask, e in v_exps.items() if e]
    if not v_key:
        return IntClass(((p_key, coeff),) if coeff else ())
    if coeff % 2 == 0:
        return IntClass()
    return IntClass((), MPoly2(frozenset({tor_key(p_key, v_key)}), TOR))


# each regime's term builder and many-term sum
_REGIMES = {
    "mod2": (_mod2_term, add_all),
    "integral": (_integral_term, int_add_all),
    "chern": (partial(_integral_term, chern=True), int_add_all),
}


def parse(text: str, domain: str):
    """The value of a class expression in the named regime: "mod2" ->
    MPoly2, "integral" -> IntClass, "chern" -> ChernExpr (free part only).

    Raises ParseError with a position, and MixedExpressionError for an
    atom foreign to the regime.
    """
    value = _Parser(text, domain).parse()
    return ChernExpr(value, MPoly2.zero(SW)) if domain == "chern" else value


def parse_mod2(text: str) -> MPoly2:
    return parse(text, "mod2")


def parse_integral(text: str) -> IntClass:
    return parse(text, "integral")
