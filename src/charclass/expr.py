"""Surface syntax for class expressions.

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
Elaboration targets one coefficient regime: mod-2 (w atoms), integral
(p and V atoms), or Chern (even c atoms); integer literals are fine in
any regime, and mixing regimes is an error.  A product of powers of atoms,
with bare literals as coefficients, becomes one monomial in one step; only
parenthesized groups and literal powers use the value ring's * and **.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import partial, reduce

from .complexifiability import ChernExpr, chern_sign
from .errors import MixedExpressionError, ParseError
from .feshbach import IndexSet, IntClass, int_add_all
from .wring import SW, TOR, MPoly2, add_all, tor_key


@dataclass(frozen=True)
class Gen:
    kind: str  # "w" | "p" | "c"
    index: int


@dataclass(frozen=True)
class VGen:
    doubled: tuple


@dataclass(frozen=True)
class IntLit:
    value: int


@dataclass(frozen=True)
class Pow:
    base: object
    exp: int


@dataclass(frozen=True)
class Prod:
    factors: tuple


@dataclass(frozen=True)
class Sum:
    terms: tuple  # of (sign, node) with sign in {+1, -1}


ClassExpr = object  # any of the node types above

# Deepest parenthesis nesting the parser accepts; parsing and elaboration
# recurse per level, so this keeps both well inside Python's stack limit.
MAX_NESTING = 100

# Only ASCII digits spell numbers; str.isdigit would admit "²" or "٣".
DIGITS = frozenset("0123456789")


def _tokens(text: str) -> list:
    """The (kind, value, position) tokens of text, ending in an "end" token."""
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in DIGITS:
            j = i
            while j < len(text) and text[j] in DIGITS:
                j += 1
            tokens.append(("nat", int(text[i:j]), i))
            i = j
            continue
        if ch in "wpcV":
            tokens.append(("name", ch, i))
            i += 1
            continue
        if ch in "+-*^(){},/":
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokens(text)
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self, kind=None):
        tok = self.tokens[self.i]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        self.i += 1
        return tok

    def parse(self) -> ClassExpr:
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected {tok[1]!r}", tok[2])
        return node

    def expr(self):
        terms = []
        sign = 1
        if self.peek()[0] == "-":
            self.take()
            sign = -1
        terms.append((sign, self.term()))
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            terms.append((1 if op == "+" else -1, self.term()))
        if len(terms) == 1 and terms[0][0] == 1:
            return terms[0][1]
        return Sum(tuple(terms))

    def term(self):
        factors = [self.factor()]
        while self.peek()[0] == "*":
            self.take()
            factors.append(self.factor())
        return factors[0] if len(factors) == 1 else Prod(tuple(factors))

    def factor(self):
        base = self.atom()
        if self.peek()[0] == "^":
            self.take()
            tok = self.take("nat")
            return Pow(base, tok[1])
        return base

    def atom(self):
        tok = self.peek()
        kind, value, pos = tok
        if kind == "nat":
            self.take()
            return IntLit(value)
        if kind == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nest deeper than {MAX_NESTING}", pos)
            self.take()
            self.depth += 1
            node = self.expr()
            self.depth -= 1
            self.take(")")
            return node
        if kind == "name":
            self.take()
            if value == "V":
                return self.v_atom(pos)
            idx_tok = self.take("nat")
            if idx_tok[1] < 1:
                raise ParseError("index must be positive", idx_tok[2])
            return Gen(value, idx_tok[1])
        raise ParseError(f"expected an atom, found {value!r}", pos)

    def v_atom(self, start: int):
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
                raise ParseError(f"expected ',' or '}}', found {nxt[1]!r}", nxt[2])
        return VGen(tuple(sorted(doubled)))


def parse(text: str) -> ClassExpr:
    """Parse a class expression; raises ParseError with a position."""
    return _Parser(text).parse()


def detect_domain(node: ClassExpr) -> str | None:
    """Infer the coefficient regime from the atoms present (None if only
    integer literals occur)."""
    kinds = set()

    def walk(nd):
        if isinstance(nd, Gen):
            kinds.add(nd.kind)
        elif isinstance(nd, VGen):
            kinds.add("V")
        elif isinstance(nd, Pow):
            walk(nd.base)
        elif isinstance(nd, Prod):
            for f in nd.factors:
                walk(f)
        elif isinstance(nd, Sum):
            for _, t in nd.terms:
                walk(t)

    walk(node)
    domains = set()
    if "w" in kinds:
        domains.add("mod2")
    if kinds & {"p", "V"}:
        domains.add("integral")
    if "c" in kinds:
        domains.add("chern")
    if len(domains) > 1:
        raise MixedExpressionError(
            "expression mixes atoms from different coefficient regimes"
        )
    return domains.pop() if domains else None


def _term_factors(node):
    """The (atom or literal, exponent) factors, left to right, of a product
    of powers of atoms with bare integer literals as coefficients: an atom,
    a power of an atom, a literal, or a Prod of those.  None for any other
    node, such as a parenthesized group or a literal under ^."""
    factors = node.factors if isinstance(node, Prod) else (node,)
    out = []
    for f in factors:
        if isinstance(f, Pow) and isinstance(f.base, (Gen, VGen)):
            out.append((f.base, f.exp))
        elif isinstance(f, (IntLit, Gen, VGen)):
            out.append((f, 1))
        else:
            return None
    return out


def _elab(node, term, total):
    """Elaborate an AST: `term` builds the value of a product of powers of
    atoms in one step, or refuses its first bad atom; any other node folds
    with the value ring's own * ** and unary -, and each Sum's terms are
    added up in one pass with `total`."""
    factors = _term_factors(node)
    if factors is not None:
        return term(factors)
    if isinstance(node, Pow):
        return _elab(node.base, term, total) ** node.exp
    if isinstance(node, Prod):
        return reduce(operator.mul, (_elab(f, term, total) for f in node.factors))
    if isinstance(node, Sum):
        return total([
            -_elab(t, term, total) if sign < 0 else _elab(t, term, total)
            for sign, t in node.terms
        ])
    raise TypeError(f"not a class expression node: {node!r}")


def _mod2_term(factors) -> MPoly2:
    """One sw monomial from the summed exponents, times the literals'
    parity."""
    exps: dict = {}
    odd = True
    for atom, e in factors:
        if isinstance(atom, IntLit):
            odd = odd and atom.value % 2 == 1
        elif isinstance(atom, VGen):
            raise MixedExpressionError("V-classes are integral, not mod-2")
        elif atom.kind != "w":
            raise MixedExpressionError(f"{atom.kind}{atom.index} is not a mod-2 atom")
        else:
            exps[atom.index] = exps.get(atom.index, 0) + e
    if not odd:
        return MPoly2.zero(SW)
    return MPoly2(frozenset({tuple(sorted((i, e) for i, e in exps.items() if e))}), SW)


def _integral_term(factors, chern: bool = False) -> IntClass:
    """One free p monomial with the literals' product as coefficient, or,
    when a V factor remains, one tor monomial if that product is odd and 0
    if it is even (2*V_I = 0).  With chern, the atoms are even Chern
    classes, c_{2i} read as p_i with the sign chern_sign gives."""
    coeff, p_exps, v_exps = 1, {}, {}
    for atom, e in factors:
        if isinstance(atom, IntLit):
            coeff *= atom.value
        elif chern:
            if isinstance(atom, VGen):
                raise MixedExpressionError("V-classes cannot appear in a Chern expression")
            if atom.kind != "c":
                raise MixedExpressionError(f"{atom.kind}{atom.index} is not a Chern atom")
            if atom.index % 2:
                raise MixedExpressionError(
                    f"c{atom.index}: only even Chern classes arise from "
                    "complexifiable classes"
                )
            p_exps[atom.index // 2] = p_exps.get(atom.index // 2, 0) + e
        elif isinstance(atom, VGen):
            mask = IndexSet(atom.doubled).mask
            v_exps[mask] = v_exps.get(mask, 0) + e
        elif atom.kind != "p":
            raise MixedExpressionError(f"{atom.kind}{atom.index} is not an integral atom")
        else:
            p_exps[atom.index] = p_exps.get(atom.index, 0) + e
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


def elaborate(node: ClassExpr, domain: str | None = None):
    """Turn an AST into an algebra element.

    domain: "mod2" -> MPoly2, "integral" -> IntClass, "chern" -> ChernExpr
    (free part only).  When None the regime is inferred from the atoms;
    a literal-only expression defaults to integral.
    """
    if domain is None:
        domain = detect_domain(node) or "integral"
    if domain not in _REGIMES:
        raise ValueError(f"unknown domain {domain!r}")
    value = _elab(node, *_REGIMES[domain])
    return ChernExpr(value, MPoly2.zero(SW)) if domain == "chern" else value


def parse_mod2(text: str) -> MPoly2:
    return elaborate(parse(text), "mod2")


def parse_integral(text: str) -> IntClass:
    return elaborate(parse(text), "integral")
