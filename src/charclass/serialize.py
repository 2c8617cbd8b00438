"""Bit-exact JSON forms.

mod-2 class:   {"type":"mod2","monomials":[[[i,e],...],...]}
               index pairs ascending by i, monomials in graded-lex order;
               a "namespace":"root" key is added for root polynomials.
integral:      {"type":"integral",
                "free":[{"coeff":<int>,"p":[[i,e],...]},...],
                "torsion":[{"p":[[i,e],...],"V":[[[d,...],e],...]},...]}
               V-index sets as ascending doubled indices.
oracle ring:   {"type":"ext","monomials":[{"nu":[i,...],"w":[[i,e],...]},...]}
bundle:        {"type":"bundle","total":<class>,"rank_bound":<int or null>}
report:        {"suite":...,"cases":[{"id":...,"params":...,"status":...,
                "detail":...},...],"summary":{"pass":n,"fail":n,
                "expected_mismatch":n}}

Serialization is deterministic (canonical ordering everywhere), so equal
values produce identical bytes, and loading refuses with ValueError any
class JSON that serialization would not write back byte for byte.
"""

from __future__ import annotations

import json

from .bundlecalc import FormalBundle
from .errors import InvalidIndexSetError
from .feshbach import IndexSet, IntClass, _freeze_free
from .report import Report
from .wring import EXT, ROOT, SW, TOR, MPoly2, ext_terms, graded_lex, tor_key, tor_terms


def to_json_obj(x):
    """The JSON-ready dict for a serializable value."""
    if isinstance(x, MPoly2):
        if x.namespace == EXT:
            return {"type": "ext", "monomials": [
                {"nu": vs, "w": [[i, e] for i, e in w_key]}
                for vs, w_key in ext_terms(x)
            ]}
        obj = {"type": "mod2", "monomials": [
            [[i, e] for i, e in key] for key in graded_lex(x)
        ]}
        if x.namespace == ROOT:
            obj["namespace"] = "root"
        return obj
    if isinstance(x, IntClass):
        return {
            "type": "integral",
            "free": [
                {"coeff": c, "p": [[i, e] for i, e in key]} for key, c in x.free
            ],
            "torsion": [
                {
                    "p": [[i, e] for i, e in p_key],
                    "V": [[list(ds), e] for ds, e in v_key],
                }
                for p_key, v_key in tor_terms(x.torsion)
            ],
        }
    if isinstance(x, FormalBundle):
        return {
            "type": "bundle",
            "total": to_json_obj(x.total),
            "rank_bound": x.rank_bound,
        }
    if isinstance(x, Report):
        return {
            "suite": x.suite,
            "cases": [
                {"id": c.id, "params": c.params, "status": c.status,
                 "detail": c.detail}
                for c in x.cases
            ],
            "summary": x.summary(),
        }
    raise TypeError(f"cannot serialize {type(x).__name__}")


def dumps(x) -> str:
    return json.dumps(to_json_obj(x), separators=(",", ":"))


def _index(i):
    return i if type(i) is int and i >= 1 else None


def _index_set(ds):
    """(doubled tuple, V mask) of a valid, ascending index set, else None;
    the pairs order like their doubled tuples."""
    if not (isinstance(ds, list) and all(type(d) is int for d in ds)):
        return None
    try:
        iset = IndexSet(ds)
    except InvalidIndexSetError:
        return None
    return (iset.doubled, iset.mask) if list(iset.doubled) == ds else None


def _pairs(raw, what: str, read_first=_index) -> tuple:
    """(first, exponent) pairs, firsts strictly ascending and read by
    read_first (None when malformed), exponents positive integers."""
    out = []
    for item in raw:
        if not (isinstance(item, list) and len(item) == 2):
            raise ValueError(f"malformed {what} entry: {item!r}")
        first, e = read_first(item[0]), item[1]
        ascends = not out or (first is not None and first > out[-1][0])
        if first is None or type(e) is not int or e < 1 or not ascends:
            raise ValueError(f"malformed or out-of-order {what} entry: {item!r}")
        out.append((first, e))
    return tuple(out)


def _decode(obj):
    kind = obj["type"]
    if kind == "mod2":
        ns = ROOT if obj.get("namespace") == "root" else SW
        return MPoly2(frozenset(_pairs(m, "monomial") for m in obj["monomials"]), ns)
    if kind == "integral":
        free: dict = {}
        for t in obj["free"]:
            key = _pairs(t["p"], "p-monomial")
            free[key] = free.get(key, 0) + int(t["coeff"])
        torsion = set()
        for t in obj["torsion"]:
            v_key = _pairs(t["V"], "V", _index_set)
            if not v_key:
                raise ValueError("a torsion term needs a V factor")
            masks = [(mask, e) for (_, mask), e in v_key]
            torsion.add(tor_key(_pairs(t["p"], "p-monomial"), masks))
        return IntClass(_freeze_free(free), MPoly2(frozenset(torsion), TOR))
    raise ValueError(f"cannot deserialize type {kind!r}")


def from_json_obj(obj):
    """Inverse of to_json_obj for the class schemas (mod2 and integral).
    Refuses, with ValueError, any object to_json_obj would not give back."""
    if not isinstance(obj, dict) or "type" not in obj:
        raise ValueError("not a serialized class")
    try:
        value = _decode(obj)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed {obj['type']!r} class: {exc!r}") from None
    if to_json_obj(value) != obj:
        raise ValueError("class JSON is not in canonical form")
    return value


def loads(text: str):
    return from_json_obj(json.loads(text))
