"""Every name a package module imports at its top level is used there, no
package module imports an underscore name from another one, and only wring
raises NamespaceMismatchError."""

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


def _namespace_raises(tree: ast.Module) -> int:
    """The number of raise statements of NamespaceMismatchError, called or
    bare, by name or as an attribute."""
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None)
            count += name == "NamespaceMismatchError"
    return count


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


def test_only_wring_raises_namespace_mismatch():
    """The sw-only entry points refuse other namespaces through
    wring.check_sw, so no other module raises NamespaceMismatchError."""
    raising = {
        p.name
        for p in _modules()
        if _namespace_raises(ast.parse(p.read_text(encoding="utf-8")))
    }
    assert raising == {"wring.py"}, raising


def test_planted_namespace_raise_is_found():
    source = (PACKAGE / "steenrod.py").read_text(encoding="utf-8")
    assert _namespace_raises(ast.parse(source)) == 0
    planted = source + (
        "\n\ndef _late(a):\n    if a:\n        raise NamespaceMismatchError('x')\n"
        "    raise errors.NamespaceMismatchError\n"
    )
    assert _namespace_raises(ast.parse(planted)) == 2
