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
values produce identical bytes.
"""

from __future__ import annotations

import json

from .bundlecalc import FormalBundle
from .feshbach import IntClass, _freeze_free, _torsion_degree
from .report import Report
from .wring import EXT, ROOT, SW, MPoly2, ext_terms, mono_degree


def _sorted_keys(p: MPoly2):
    return sorted(p.monomials, key=lambda k: (mono_degree(k, p.namespace), k))


def to_json_obj(x):
    """The JSON-ready dict for a serializable value."""
    if isinstance(x, MPoly2):
        if x.namespace == EXT:
            return {"type": "ext", "monomials": [
                {"nu": vs, "w": [[i, e] for i, e in w_key]}
                for vs, w_key in ext_terms(x)
            ]}
        obj = {"type": "mod2", "monomials": [
            [[i, e] for i, e in key] for key in _sorted_keys(x)
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
                for p_key, v_key in sorted(
                    x.torsion, key=lambda k: (_torsion_degree(k), k)
                )
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


def _pairs(raw, what: str):
    out = []
    for item in raw:
        if not (isinstance(item, list) and len(item) == 2):
            raise ValueError(f"malformed {what} entry: {item!r}")
        out.append((int(item[0]), int(item[1])))
    return tuple(out)


def from_json_obj(obj):
    """Inverse of to_json_obj for the class schemas (mod2 and integral)."""
    if not isinstance(obj, dict) or "type" not in obj:
        raise ValueError("not a serialized class")
    kind = obj["type"]
    if kind == "mod2":
        ns = ROOT if obj.get("namespace") == "root" else SW
        keys = frozenset(_pairs(m, "monomial") for m in obj["monomials"])
        if len(keys) != len(obj["monomials"]):
            raise ValueError("duplicate monomials in mod2 class")
        return MPoly2(keys, ns)
    if kind == "integral":
        free: dict = {}
        for t in obj["free"]:
            key = _pairs(t["p"], "p-monomial")
            free[key] = free.get(key, 0) + int(t["coeff"])
        torsion = set()
        for t in obj["torsion"]:
            v_key = tuple(sorted(
                (tuple(int(d) for d in ds), int(e)) for ds, e in t["V"]
            ))
            torsion.add((_pairs(t["p"], "p-monomial"), v_key))
        if len(torsion) != len(obj["torsion"]):
            raise ValueError("duplicate torsion monomials")
        return IntClass(_freeze_free(free), frozenset(torsion))
    raise ValueError(f"cannot deserialize type {kind!r}")


def loads(text: str):
    return from_json_obj(json.loads(text))
