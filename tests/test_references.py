"""Every module-level function and class under ``src/ortus`` is used
outside its own definition: by another part of the package (the re-exports
in ``__init__.py`` do not count) or by the benchmark under ``perfbench/``.
Code that only the tests use belongs in ``tests/``."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ortus"


def _identifiers(node: ast.AST):
    """The identifiers `node` uses: names, attributes, and strings that
    spell one (the benchmark names the functions it wraps as strings)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) and sub.value.isidentifier():
            yield sub.value


def test_every_module_level_function_and_class_has_a_use_outside_the_tests():
    defined: list[tuple[str, str]] = []
    users: dict[str, set[tuple[str, str | None]]] = {}  # name -> (file, enclosing definition)
    package = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    for path in package + sorted((ROOT / "perfbench").glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            owner = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None
            if owner is not None and path.parent == PACKAGE:
                defined.append((path.name, owner))
            for name in _identifiers(stmt):
                users.setdefault(name, set()).add((path.name, owner))
    assert len(defined) > 50
    unused = [f"{file}: {name}" for file, name in defined if not users.get(name, set()) - {(file, name)}]
    assert unused == []
