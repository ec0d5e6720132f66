"""Every module-level function and class under ``src/ortus`` is used
outside its own definition, and every dataclass field and method is read
outside its own definition: by another part of the package (the re-exports
in ``__init__.py`` do not count) or by the benchmark under ``perfbench/``.
Code that only the tests use belongs in ``tests/``.  And the errors form one
flat level under ``OrtusError``."""

import ast
import importlib
import inspect
from pathlib import Path

from ortus.errors import OrtusError

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


def _reads(node: ast.AST):
    """The members `node` reads: attributes it loads, and strings that spell
    an identifier (``getattr`` and the benchmark name members as strings).
    A field set by a constructor keyword or an assignment is not read."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and not isinstance(sub.ctx, ast.Store):
            yield sub.attr
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) and sub.value.isidentifier():
            yield sub.value


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if (target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)) == "dataclass":
            return True
    return False


def test_every_dataclass_field_and_method_is_read_outside_the_tests():
    defined: list[tuple[str, str, str]] = []  # (file, class, member)
    readers: dict[str, set[tuple[str, str | None, str | None]]] = {}  # member -> (file, class, member)
    package = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    for path in package + sorted((ROOT / "perfbench").glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if not isinstance(stmt, ast.ClassDef):
                for name in _reads(stmt):
                    readers.setdefault(name, set()).add((path.name, None, None))
                continue
            for member in stmt.body:
                name = None
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = member.name
                elif isinstance(member, ast.AnnAssign) and _is_dataclass(stmt):
                    name = member.target.id
                # special methods are called by the language, not by name
                if path.parent == PACKAGE and name is not None and not name.startswith("__"):
                    defined.append((path.name, stmt.name, name))
                for read in _reads(member):
                    readers.setdefault(read, set()).add((path.name, stmt.name, name))
    assert len(defined) > 100
    unread = [
        f"{file}: {cls}.{name}"
        for file, cls, name in defined
        if not readers.get(name, set()) - {(file, cls, name)}
    ]
    assert unread == []


def test_every_exception_class_derives_from_ortus_error_directly():
    """Errors are told apart by their message, not by a subclass that only
    some of the raises pick: each one derives from ``OrtusError`` alone."""
    bases: dict[str, tuple[type, ...]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":  # re-exports only
            continue
        module = importlib.import_module(f"ortus.{path.stem}")
        for name, cls in vars(module).items():
            if inspect.isclass(cls) and issubclass(cls, BaseException) and cls.__module__ == module.__name__:
                bases[f"{path.name}: {name}"] = cls.__bases__
    assert bases.pop("errors.py: OrtusError") == (Exception,)
    assert len(bases) >= 5
    assert [name for name, b in bases.items() if b != (OrtusError,)] == []
