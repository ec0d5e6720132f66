"""Every module-level function and class under ``src/ortus`` is used
outside its own definition, and every dataclass field and method is read
outside its own definition: by another part of the package (the re-exports
in ``__init__.py`` do not count) or by the benchmark under ``perfbench/``.
Code that only the tests use belongs in ``tests/``.  Every module and every
test file uses what it imports.  And the errors form one flat level under ``OrtusError``."""

import ast
import importlib
import inspect
from collections import Counter
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


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if (target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)) == "dataclass":
            return True
    return False


class _Types:
    """The receiver types that the package's annotations give away.  A type
    is a package class's name, or ``("of", T)`` for a container of T.  A
    name's type comes from ``self`` inside its class, from a parameter's or
    a variable's annotation, or from what it is assigned or looped over: a
    constructor, a function's or method's return annotation, a field's
    annotation, or an element of any of these."""

    def __init__(self, trees):
        classes = [stmt for tree in trees for stmt in tree.body if isinstance(stmt, ast.ClassDef)]
        self.globals = {cls.name: cls.name for cls in classes}  # module-level name -> type
        self.members = {cls.name: {} for cls in classes}  # class -> member -> type
        for cls in classes:
            for m in cls.body:
                if isinstance(m, ast.FunctionDef):
                    self.members[cls.name][m.name] = self.annotation(m.returns)
                elif isinstance(m, ast.AnnAssign):
                    self.members[cls.name][m.target.id] = self.annotation(m.annotation)
        for tree in trees:
            for stmt in tree.body:
                if isinstance(stmt, ast.FunctionDef):
                    self.globals.setdefault(stmt.name, self.annotation(stmt.returns))

    def annotation(self, ann):
        if isinstance(ann, ast.Name):
            return ann.id if ann.id in self.members else None
        if isinstance(ann, ast.BinOp):  # X | None
            return self.annotation(ann.left) or self.annotation(ann.right)
        if isinstance(ann, ast.Subscript):  # list[X], tuple[X, ...], Iterator[X], but no dict or fixed tuple
            args = ann.slice.elts if isinstance(ann.slice, ast.Tuple) else [ann.slice]
            if len(args) == 1 or (isinstance(args[1], ast.Constant) and args[1].value is Ellipsis):
                return ("of", self.annotation(args[0]))
        return None

    def of(self, node, env):
        """The type of expression `node` where names have the types in `env`."""
        if isinstance(node, ast.Name):
            return env.get(node.id, self.globals.get(node.id))
        if isinstance(node, ast.Attribute):
            owner = self.of(node.value, env)
            return self.members.get(owner, {}).get(node.attr) if isinstance(owner, str) else None
        if isinstance(node, ast.Subscript):
            return self.element(self.of(node.value, env))
        if isinstance(node, ast.Call):
            return self.of(node.func, env)
        return None

    @staticmethod
    def element(container):
        return container[1] if isinstance(container, tuple) else None

    def reads(self, node, cls=None):
        """Each ``(member, receiver type)`` that `node` reads, ``self`` being
        of class `cls`: attributes it loads, and strings that spell an
        identifier (``getattr`` and the benchmark name members as strings).
        The type is None where it is not known, as for every string.  A field
        set by a constructor keyword or an assignment is not read."""
        env: dict[str, object] = {}

        def bind(target, type_) -> None:
            if isinstance(target, ast.Name) and type_ is not None:
                env.setdefault(target.id, type_)

        for sub in ast.walk(node):  # parameters first
            if isinstance(sub, ast.FunctionDef):
                for k, arg in enumerate(sub.args.posonlyargs + sub.args.args + sub.args.kwonlyargs):
                    bind(ast.Name(arg.arg), cls if k == 0 and arg.arg == "self" else self.annotation(arg.annotation))
        for sub in ast.walk(node):
            if isinstance(sub, ast.Assign) and len(sub.targets) == 1:
                bind(sub.targets[0], self.of(sub.value, env))
            elif isinstance(sub, ast.AnnAssign):
                bind(sub.target, self.annotation(sub.annotation))
            elif isinstance(sub, (ast.For, ast.comprehension)):
                bind(sub.target, self.element(self.of(sub.iter, env)))
        for sub in ast.walk(node):
            if isinstance(sub, ast.Attribute) and not isinstance(sub.ctx, ast.Store):
                yield sub.attr, self.of(sub.value, env)
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) and sub.value.isidentifier():
                yield sub.value, None


def test_every_dataclass_field_and_method_is_read_outside_the_tests():
    """A member name that one package class defines counts every read of it.
    One that several classes define counts a read for a class only where the
    receiver is known to be of that class, so a dead field cannot pass on the
    reads of a namesake."""
    files = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    files += sorted((ROOT / "perfbench").glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in files}
    types = _Types([tree for path, tree in trees.items() if path.parent == PACKAGE])
    defined: list[tuple[str, str, str]] = []  # (file, class, member)
    reads: list[tuple[str, object, tuple[str, str | None, str | None]]] = []  # (member, receiver, reader)
    for path, tree in trees.items():
        for stmt in tree.body:
            if not isinstance(stmt, ast.ClassDef):
                reads += [(name, receiver, (path.name, None, None)) for name, receiver in types.reads(stmt)]
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
                reader = (path.name, stmt.name, name)
                reads += [(read, receiver, reader) for read, receiver in types.reads(member, stmt.name)]
    owners = Counter(name for _, _, name in defined)
    readers: dict[tuple[object, str], set[tuple[str, str | None, str | None]]] = {}  # (class, member) -> readers
    for read, receiver, reader in reads:
        readers.setdefault((receiver if owners[read] > 1 else None, read), set()).add(reader)
    assert len(defined) > 100
    unread = [
        f"{file}: {cls}.{name}"
        for file, cls, name in defined
        if not readers.get((cls if owners[name] > 1 else None, name), set()) - {(file, cls, name)}
    ]
    assert unread == []


def test_every_module_uses_what_it_imports():
    unused = []
    for path in [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "tests").glob("*.py"))]:
        if path == PACKAGE / "__init__.py":  # re-exports only
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                bound = [alias.asname or alias.name.partition(".")[0] for alias in node.names]
                unused += [f"{path.relative_to(ROOT)}: {name}" for name in bound if name not in used]
    assert unused == []


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
