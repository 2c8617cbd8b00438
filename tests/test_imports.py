"""Every name a package module imports at its top level is used there, and
no package module imports an underscore name from another one."""

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


def _private_imports(tree: ast.Module) -> list:
    """The underscore names imported, anywhere in the module, from a
    package module (a relative import or one from charclass)."""
    return [
        a.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "charclass")
        for a in node.names
        if a.name.startswith("_")
    ]


def _modules() -> list:
    return sorted(PACKAGE.glob("*.py"))


def test_no_unused_top_level_imports():
    modules = [p for p in _modules() if p.name != "__init__.py"]
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


def test_no_private_names_imported_across_modules():
    private = {
        p.name: names
        for p in _modules()
        if (names := _private_imports(ast.parse(p.read_text(encoding="utf-8"))))
    }
    assert not private, private


def test_planted_private_import_is_found():
    source = (PACKAGE / "serialize.py").read_text(encoding="utf-8")
    planted = source + "\n\ndef _late():\n    from .wring import _repeats_v, add\n"
    planted = "from charclass.feshbach import _p_degree\n" + planted
    assert _private_imports(ast.parse(planted)) == ["_p_degree", "_repeats_v"]
