"""The benchmark tracer (bench/tracing.py) wraps package functions by
module and name, so each one it names must still exist in charclass."""

import importlib
import types
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing() -> types.ModuleType:
    """bench/tracing.py run from its source text, so that loading it writes
    nothing next to it."""
    module = types.ModuleType("tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), vars(module))
    return module


def test_traced_functions_exist_in_charclass():
    tracing = _tracing()
    traced = {(module, func) for module, func, _ in tracing.TRACED}
    reduced = {tuple(name.split(".")) for name in tracing.REDUCERS}
    assert reduced <= traced
    for module, func in traced | set(tracing.REDUCERS.values()):
        home = importlib.import_module(f"charclass.{module}")
        assert callable(getattr(home, func, None)), f"charclass.{module}.{func}"
