"""Every name a package module imports at its top level is used there."""

import ast
from pathlib import Path

import charclass

PACKAGE = Path(charclass.__file__).resolve().parent


def _unused_imports(tree: ast.Module) -> list:
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in used]


def test_no_unused_top_level_imports():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {
        p.name: names
        for p in modules
        if (names := _unused_imports(ast.parse(p.read_text(encoding="utf-8"))))
    }
    assert not unused, unused


def test_planted_unused_import_is_found():
    source = (PACKAGE / "complexifiability.py").read_text(encoding="utf-8")
    planted = "from .steenrod import sq1 as _planted\n" + source
    assert _unused_imports(ast.parse(planted)) == ["_planted"]
