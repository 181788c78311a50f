"""No imported name in src/ or tests/ goes unused, every definition, module
constant and dataclass field in src/ has a reader outside the tests, no
module in src/ reads another's underscore-named module constant, function or
class (stdlib ast, no linter), and every exception class of the package is
defined in core and exported."""

import ast
import importlib
import pkgutil
from pathlib import Path

import sphmg

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source):
    """(line, name) of each name an import in source binds that nothing
    references; a name listed in __all__ counts as used, and an imported name
    whose line carries '# noqa' is skipped, as are __future__ imports."""
    tree, lines = ast.parse(source), source.splitlines()
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple))
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if "# noqa" not in lines[alias.lineno - 1]:
                    # import a.b binds a
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    return sorted((line, name) for name, line in imported.items() if name not in used)


def definitions(source):
    """(line, name) of every function, class, method and property that source
    defines, dunders excepted."""
    return sorted((node.lineno, node.name) for node in ast.walk(ast.parse(source))
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                  and not (node.name.startswith("__") and node.name.endswith("__")))


def module_assignments(source):
    """(line, name) of every name that an assignment at source's module scope
    binds, dunders excepted."""
    return sorted((node.lineno, node.id) for stmt in ast.parse(source).body
                  if isinstance(stmt, (ast.Assign, ast.AnnAssign))
                  for target in (stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target])
                  for node in ast.walk(target)
                  if isinstance(node, ast.Name)
                  and not (node.id.startswith("__") and node.id.endswith("__")))


def private_names(source):
    """Every underscore-named constant, function and class that source
    binds at its module scope, dunders excepted."""
    defined = [stmt.name for stmt in ast.parse(source).body
               if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    return sorted({name for name in defined + [name for _, name in module_assignments(source)]
                   if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))})


def constant_reads(source, module):
    """Every (module, name) that source, the module named module, reads: a
    bare name gives its own module, a name imported from a module gives that
    module (the last part of its dotted name), and an attribute read gives
    (None, name), a read for every module."""
    reads = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add((module, node.id))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add((None, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module:
            reads.update((node.module.split(".")[-1], alias.name) for alias in node.names)
    return reads


def private_reads(source, module, private):
    """Every (owner, name) of private, a set of (module, name) pairs of
    private_names, that source, the module named module, reads from another
    module; an attribute read counts for every owner."""
    reads = constant_reads(source, module)
    return sorted((owner, name) for owner, name in private
                  if owner != module and {(owner, name), (None, name)} & reads)


def references(source):
    """Every name that source reads, bare or as an attribute; a name that an
    import binds or __all__ lists is not read by that alone."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}


def dataclass_fields(source):
    """(line, class, field) of every annotated field of every @dataclass class
    that source defines."""
    def is_dataclass(decorator):
        node = decorator.func if isinstance(decorator, ast.Call) else decorator
        return isinstance(node, ast.Name) and node.id == "dataclass"

    return sorted((stmt.lineno, node.name, stmt.target.id)
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ClassDef) and any(map(is_dataclass, node.decorator_list))
                  for stmt in node.body
                  if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name))


def field_reads(source):
    """Every (class, name) that source reads.  A self.<name> read gives the
    innermost class whose body holds it; any other attribute read, and any
    string constant such as a dict key or a getattr name, gives (None, name),
    a read for every class."""
    reads = set()

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
                own = isinstance(child.value, ast.Name) and child.value.id == "self"
                reads.add((cls if own else None, child.attr))
            elif isinstance(child, ast.Constant) and isinstance(child.value, str):
                reads.add((None, child.value))
            visit(child, child.name if isinstance(child, ast.ClassDef) else cls)

    visit(ast.parse(source), None)
    return reads


def unread_fields(source, reads):
    """(line, class, field) of every dataclass field of source that reads, a
    set of field_reads, reads neither for its class nor for every class."""
    return [(line, cls, name) for line, cls, name in dataclass_fields(source)
            if not {(cls, name), (None, name)} & reads]


def test_no_unused_imports():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
             for line, name in unused_imports(path.read_text())]
    assert not found, "unused imports:\n" + "\n".join(found)


def test_unused_imports_reads_all_and_noqa():
    source = ("from __future__ import annotations\n"
              "import os\n"
              "import numpy.random  # noqa: F401\n"
              "from a import (b,\n"
              "               c as d)\n"
              "import e.f\n"
              "__all__ = ['b']\n"
              "e.f.g()\n")
    assert unused_imports(source) == [(2, "os"), (5, "d")]


def test_every_src_definition_has_a_caller_outside_the_tests():
    src = sorted((ROOT / "src").rglob("*.py"))
    read = set().union(*(references(path.read_text())
                         for path in src + sorted((ROOT / "perfbench").glob("*.py"))))
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in src for line, name in definitions(path.read_text()) if name not in read]
    assert not found, "definitions only the tests reach:\n" + "\n".join(found)


def test_every_src_module_constant_has_a_reader_outside_the_tests():
    src = sorted((ROOT / "src").rglob("*.py"))
    read = set().union(*(constant_reads(path.read_text(), path.stem)
                         for path in src + sorted((ROOT / "perfbench").glob("*.py"))))
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in src for line, name in module_assignments(path.read_text())
             if not {(path.stem, name), (None, name)} & read]
    assert not found, "module constants only the tests read:\n" + "\n".join(found)


def test_no_src_module_reads_another_modules_private_constant():
    # constants, functions and classes alike: core's packed panel layout
    # (_upper_panels, _panel_sum, _integer_gram, _reduce_to_band) stays in core
    src = sorted((ROOT / "src").rglob("*.py"))
    private = {(path.stem, name) for path in src for name in private_names(path.read_text())}
    found = [f"{path.relative_to(ROOT)}: {owner}.{name}"
             for path in src
             for owner, name in private_reads(path.read_text(), path.stem, private)]
    assert not found, "private module names read from another module:\n" + "\n".join(found)


def test_module_constants_and_their_reads():
    source = ("from .core import TILE, BAND as WIDTH\n"
              "__all__ = ['A']\n"
              "A = 1\n"
              "B: int = 2\n"
              "C, (D, E) = 3, (4, 5)\n"
              "F = G = 6\n"
              "def f():\n"
              "    H = 7\n"
              "    return A + core.TILE\n")
    assert module_assignments(source) == [(3, "A"), (4, "B"), (5, "C"), (5, "D"), (5, "E"),
                                          (6, "F"), (6, "G")]
    # an unread copy of another module's constant has no reader of its own
    assert constant_reads(source, "simulator") == {
        ("core", "TILE"), ("core", "BAND"), ("simulator", "A"), ("simulator", "int"),
        ("simulator", "core"), (None, "TILE")}
    private = {("core", "_STREAM"), ("core", "_SEED"), ("simulator", "_OWN"), ("core", "TILE")}
    assert private_reads("from .core import _STREAM\nx = core._SEED + _OWN\n", "simulator",
                         private) == [("core", "_SEED"), ("core", "_STREAM")]
    # module-scope functions and classes count as constants do, methods and
    # nested functions do not
    core = ("_TILE = 1\n"
            "def _sum(): pass\n"
            "def gram_band():\n"
            "    def _local(): pass\n"
            "class _Run:\n"
            "    def _step(self): pass\n"
            "def __getattr__(name): pass\n")
    assert private_names(core) == ["_Run", "_TILE", "_sum"]
    private = {("core", name) for name in private_names(core)} | {("simulator", "_own")}
    assert private_reads("from .core import gram_band, _sum\nx = core._Run\n", "simulator",
                         private) == [("core", "_Run"), ("core", "_sum")]
    assert private_reads("from .core import gram_band\nx = _own() + run._step()\n", "simulator",
                         private) == []


def test_definitions_and_references_read_names_and_attributes():
    source = ("from mod import orphan, called\n"
              "__all__ = ['orphan']\n"
              "class A:\n"
              "    def __init__(self):\n"
              "        self.used()\n"
              "    def used(self):\n"
              "        self.idle = called()\n"
              "    @property\n"
              "    def idle(self):\n"
              "        pass\n"
              "def orphan():\n"
              "    pass\n"
              "A()\n")
    assert definitions(source) == [(3, "A"), (6, "used"), (9, "idle"), (11, "orphan")]
    assert references(source) == {"A", "self", "used", "called", "property"}


# Dataclasses read whole rather than field by field.
READ_WHOLE = {
    "StationaryTheory": "cmd_theory prints every field through dataclasses.fields",
}


def test_every_src_dataclass_field_has_a_reader_outside_the_tests():
    src = sorted((ROOT / "src").rglob("*.py"))
    read = set().union(*(field_reads(path.read_text())
                         for path in src + sorted((ROOT / "perfbench").glob("*.py"))))
    found = [f"{path.relative_to(ROOT)}:{line}: {cls}.{name}"
             for path in src
             for line, cls, name in unread_fields(path.read_text(), read)
             if cls not in READ_WHOLE]
    assert not found, "dataclass fields only the tests read:\n" + "\n".join(found)


def test_every_read_whole_entry_names_a_src_dataclass():
    # a stale exemption fails here rather than lingering
    classes = {cls for path in (ROOT / "src").rglob("*.py")
               for _, cls, _ in dataclass_fields(path.read_text())}
    assert set(READ_WHOLE) <= classes


def test_dataclass_fields_and_field_reads():
    source = ("from dataclasses import dataclass\n"
              "@dataclass(frozen=True)\n"
              "class A:\n"
              "    x: int\n"
              "    y: float = 0.0\n"
              "    def z(self):\n"
              "        return self.x + d['y']\n"
              "@dataclass\n"
              "class B:\n"
              "    w: int\n"
              "class C:\n"
              "    v: int\n"
              "    def u(self):\n"
              "        return self.w + self.y\n"
              "A(x=1, y=2).x\n")
    assert dataclass_fields(source) == [(4, "A", "x"), (5, "A", "y"), (10, "B", "w")]
    reads = field_reads(source)
    assert reads == {("A", "x"), (None, "y"), ("C", "w"), ("C", "y"), (None, "x")}
    # C's self.w is no read of B.w
    assert unread_fields(source, reads) == [(10, "B", "w")]


def test_every_exception_class_is_defined_in_core_and_exported():
    # one class per failure: both dynamic engines fail a lambda^2 that is
    # not positive and finite with core.DegenerateStateError
    modules = [sphmg] + [importlib.import_module(f"sphmg.{info.name}")
                         for info in pkgutil.iter_modules(sphmg.__path__)]
    found = [f"{module.__name__}.{name}"
             for module in modules for name, obj in vars(module).items()
             if isinstance(obj, type) and issubclass(obj, BaseException)
             and obj.__module__ == module.__name__
             and (module.__name__ != "sphmg.core" or name not in sphmg.__all__)]
    assert not found, "exception classes outside core or sphmg.__all__:\n" + "\n".join(found)
