"""The table of tools/mutants.py stays in step with the source: each
mutant's snippet occurs exactly once in its file under src/, and each test
named to kill it is defined in its test file.  The mutants themselves run
outside the test suite (python tools/mutants.py)."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _mutants() -> list:
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


def test_each_mutant_snippet_occurs_once_under_src():
    mutants = _mutants()
    assert mutants and len({m.name for m in mutants}) == len(mutants)
    for m in mutants:
        assert m.file.startswith("src/") and m.old != m.new and m.tests, m.name
        text = (ROOT / m.file).read_text(encoding="utf-8")
        assert text.count(m.old) == 1, m.name
        for node in m.tests:
            file, name = node.split("::")
            path = ROOT / file
            assert path.is_file(), node
            assert f"\ndef {name}(" in path.read_text(encoding="utf-8"), node
