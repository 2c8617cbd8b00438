"""Span tracing at the package's public function boundaries.

`Tracer.install` replaces each traced function with a wrapper in every
charclass module namespace that binds it, so calls made inside the package
(wring.power calling wring.mul, cli calling rho, ...) are seen too.  Each
call records a span (name, start, end, parent span, operation id) in memory
and bumps the counts measured at the same boundary.  Self time is a span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

# Products with more term pairs than this count as `mul.large`: the switch
# at which wring.mul leaves its dict loop for a packed kernel.
LARGE_PAIRS = 4096

# Products count the term pairs their kernel sees: the factors' terms after
# the truncation context's reduction, which the product applies first.
REDUCERS = {"wring.mul": ("wring", "reduce_poly"),
            "bundlecalc.ext_mul": ("bundlecalc", "ext_reduce")}


def _pairs_out(counts, name, args, result, pairs):
    counts[name + ".pairs"] += pairs
    counts[name + ".terms_out"] += len(result.monomials)


def _terms_out(counts, name, args, result, pairs):
    counts[name + ".terms_out"] += len(result.monomials)


def _chars(counts, name, args, result, pairs):
    counts[name + ".chars"] += len(args[0])


def _bytes_out(counts, name, args, result, pairs):
    counts[name + ".bytes"] += len(result)


def _bytes_in(counts, name, args, result, pairs):
    counts[name + ".bytes"] += len(args[0])


def _reduced_pairs(reduce):
    def pairs(args, kwargs):
        a, b = args[0], args[1]
        ctx = args[2] if len(args) > 2 else kwargs.get("ctx")
        if ctx is not None:
            a, b = reduce(a, ctx), reduce(b, ctx)
        return len(a.monomials) * len(b.monomials)

    return pairs


# (module, function, counter) for every traced boundary.
TRACED = (
    ("wring", "mul", _pairs_out),
    ("wring", "square", None),
    ("wring", "power", None),
    ("wring", "grade_component", None),
    ("wring", "reduce_poly", None),
    ("wring", "substitute", None),
    ("steenrod", "sq1", _terms_out),
    ("bundlecalc", "sw", None),
    ("bundlecalc", "ext_mul", _pairs_out),
    ("bundlecalc", "evaluate_class", None),
    ("bundlecalc", "whitney_sum", None),
    ("feshbach", "verify_relations", None),
    ("feshbach", "relation", None),
    ("feshbach", "int_mul", None),
    ("feshbach", "rho", _terms_out),
    ("feshbach", "torsion_equal", None),
    ("complexifiability", "invariance_oracle", None),
    ("complexifiability", "is_complexifiable_mod2", None),
    ("complexifiability", "is_complexifiable_integral", None),
    ("complexifiability", "express_via_chern", None),
    ("complexifiability", "ideal_decomposition", None),
    ("complexifiability", "subring_decomposition", None),
    ("expr", "parse_mod2", _chars),
    ("expr", "parse_integral", _chars),
    ("serialize", "dumps", _bytes_out),
    ("serialize", "loads", _bytes_in),
    ("cli", "main", None),
    ("cli", "build_parser", None),
)

_COUNT_UNITS = {
    _pairs_out: (("pairs", "count"), ("terms_out", "count")),
    _terms_out: (("terms_out", "count"),),
    _chars: (("chars", "count"),),
    _bytes_out: (("bytes", "bytes"),),
    _bytes_in: (("bytes", "bytes"),),
}


def layer_metric_names() -> list:
    """[(name, unit, better)] of every per-layer metric, in report order."""
    out = []
    for module, func, counter in TRACED:
        names = (
            [f"{module}.{func}.small", f"{module}.{func}.large"]
            if (module, func) == ("wring", "mul")
            else [f"{module}.{func}"]
        )
        for base in names:
            out.append((base + ".calls", "count", "lower"))
            out.append((base + ".self_s", "s", "lower"))
            for suffix, unit in _COUNT_UNITS.get(counter, ()):
                out.append((f"{base}.{suffix}", unit, "lower"))
            if counter is _pairs_out:
                out.append((base + ".useful", "ratio", "higher"))
    out.append(("trace.slowdown", "ratio", "lower"))
    return out


class Tracer:
    """Spans live in parallel arrays (name id, start, end, parent, operation
    id), so a traced run of a million calls stays small."""

    def __init__(self):
        self.names: list = []
        self.name_ids: dict = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.stack: list = []
        self.counts: dict = defaultdict(int)
        self.op_id = -1
        self._restore: list = []

    def _id(self, name: str) -> int:
        got = self.name_ids.get(name)
        if got is None:
            got = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return got

    def _wrap(self, name, fn, counter, reduce=None):
        stack, counts = self.stack, self.counts
        names, starts, ends, parents, ops = self.name, self.start, self.end, self.parent, self.op
        if name == "wring.mul":
            small, large = self._id(name + ".small"), self._id(name + ".large")
        else:
            small = large = self._id(name)
        pairs_of = _reduced_pairs(reduce) if reduce is not None else None

        def traced(*args, **kwargs):
            pairs = pairs_of(args, kwargs) if pairs_of is not None else 0
            name_id = large if pairs > LARGE_PAIRS else small
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if counter is not None:
                counter(counts, self.names[name_id], args, result, pairs)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        homes = {m: importlib.import_module("charclass." + m) for m, _, _ in TRACED}
        reducers = {name: getattr(homes[m], f) for name, (m, f) in REDUCERS.items()}
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "charclass" or n.startswith("charclass."))]
        for module_name, func, counter in TRACED:
            home = homes[module_name]
            orig = getattr(home, func)
            name = f"{module_name}.{func}"
            wrapper = self._wrap(name, orig, counter, reducers.get(name))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._restore):
            setattr(mod, attr, orig)
        self._restore.clear()

    def __len__(self) -> int:
        return len(self.start)

    def self_times(self) -> dict:
        """Per span name: (calls, self seconds)."""
        names = np.frombuffer(self.name, np.uint16)
        parent = np.frombuffer(self.parent, np.int64)
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=duration[nested], minlength=len(duration))
        width = len(self.names)
        calls = np.bincount(names, minlength=width)
        total = np.bincount(names, weights=duration - child, minlength=width)
        return {n: (int(calls[i]), float(total[i])) for i, n in enumerate(self.names)}

    def layer_metrics(self, passes: int) -> dict:
        """Per-pass value of every per-layer metric except trace.slowdown."""
        times = self.self_times()
        values = {}
        for name, unit, _ in layer_metric_names():
            if name == "trace.slowdown":
                continue
            base, _, field = name.rpartition(".")
            if field == "calls":
                value = times.get(base, (0, 0.0))[0] / passes
            elif field == "self_s":
                value = times.get(base, (0, 0.0))[1] / passes
            elif field == "useful":
                pairs = self.counts.get(base + ".pairs", 0)
                value = self.counts.get(base + ".terms_out", 0) / pairs if pairs else 0.0
            else:
                value = self.counts.get(name, 0) / passes
            values[name] = {"value": value, "unit": unit}
        return values

    def write_spans(self, path) -> None:
        """All spans as one .npz: arrays name (index into `names`), start,
        end, parent (span index, -1 for none) and op (operation index)."""
        np.savez(path, names=np.array(self.names), name=np.frombuffer(self.name, np.uint16),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 parent=np.frombuffer(self.parent, np.int64), op=np.frombuffer(self.op, np.int64))
