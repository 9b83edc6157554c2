"""Every imported name is used: the library modules (but not the package
`__init__.py`, whose imports are re-exports) and the test files.  Every
name a library module defines at its top level is read somewhere in the
library, the tests, the demos or the benchmark harness.  The library has
no `assert` statement, which `python -O` would strip, and its records
compare and hash by `Record`'s rule, with two stated exceptions.
Importing the library does not load `dataclasses` or `inspect`, which
would take most of the start-up time of a single CLI call, nor
`typing`."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TREES = ("src", "tests", "demos", "perfbench")
FILES = sorted(
    [p for p in (ROOT / "src" / "quatwitt").glob("*.py")
     if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py")))


def _imported(tree):
    """(bound name, line) for each name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def _used(tree):
    """Names read anywhere.  A name used only inside a string annotation
    counts as unused: the library writes annotations unquoted, under
    `from __future__ import annotations`."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = [f"{name} (line {line})" for name, line in _imported(tree)
              if name not in used]
    assert not unused, f"{path.name}: unused imports {unused}"


def test_library_has_no_assert_statements():
    """Verification steps are explicit raises: `python -O` strips an
    assert, also one that no test happens to reach."""
    asserts = [f"{path.name}:{node.lineno}"
               for path in sorted((ROOT / "src" / "quatwitt").glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(),
                                              filename=str(path)))
               if isinstance(node, ast.Assert)]
    assert not asserts, f"assert statements in the library: {asserts}"


# Record's docstring says why these two compare or hash their own way
OWN_EQUALITY = {"QuatAlgebra", "WittClass"}


def test_records_compare_and_hash_by_one_rule():
    """No class that derives from `Record`, directly or through another
    library class, defines `__eq__` or `__hash__` but the two above; a
    record may still set `__hash__ = None` to have no hash."""
    classes = [node
               for path in sorted((ROOT / "src" / "quatwitt").glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(),
                                              filename=str(path)))
               if isinstance(node, ast.ClassDef)]
    records = {"Record"}
    for _ in classes:
        records |= {c.name for c in classes
                    if {b.id for b in c.bases if isinstance(b, ast.Name)}
                    & records}
    own = []
    for c in classes:
        if c.name == "Record" or c.name not in records:
            continue
        for node in c.body:
            if isinstance(node, ast.FunctionDef):
                names = {node.name}
            elif isinstance(node, ast.Assign) and not (
                    isinstance(node.value, ast.Constant)
                    and node.value.value is None):
                names = {t.id for t in node.targets
                         if isinstance(t, ast.Name)}
            else:
                continue
            own += [f"{c.name}.{n}" for n in names & {"__eq__", "__hash__"}]
    assert records > OWN_EQUALITY
    assert sorted(own) == [f"{name}.{method}" for name in sorted(OWN_EQUALITY)
                           for method in ("__eq__", "__hash__")]


def _top_level(tree):
    """(name, line) for each name a module binds at its top level with a
    def, a class or an assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
                    yield sub.id, node.lineno


def _read(tree):
    """Names a file reads: loaded names, attribute names and the names it
    imports from a module.  Names are matched without their module, so a
    name read anywhere counts for every module that defines it."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_every_module_level_name_is_read():
    read = set()
    for tree in TREES:
        for path in (ROOT / tree).rglob("*.py"):
            read.update(_read(ast.parse(path.read_text(), filename=str(path))))
    unread = [f"{path.name}: {name} (line {line})"
              for path in sorted((ROOT / "src" / "quatwitt").glob("*.py"))
              for name, line in _top_level(ast.parse(path.read_text()))
              if not (name.startswith("__") and name.endswith("__"))
              and name not in read]
    assert not unread, f"module-level names nothing reads: {unread}"


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module


def _importers(module):
    return [path.name
            for path in sorted((ROOT / "src" / "quatwitt").glob("*.py"))
            if module in _imported_modules(
                ast.parse(path.read_text(), filename=str(path)))]


def test_no_library_module_imports_dataclasses():
    importers = _importers("dataclasses")
    assert not importers, f"modules importing dataclasses: {importers}"


def test_no_library_module_imports_typing():
    # annotations use builtin generics and X | None
    importers = _importers("typing")
    assert not importers, f"modules importing typing: {importers}"


@pytest.mark.parametrize("module", ["quatwitt", "quatwitt.cli"])
def test_import_loads_neither_dataclasses_nor_inspect(module):
    """A fresh interpreter, under the same -O as this one, imports `module`
    and prints what of the two modules the import added."""
    code = (f"import sys; before = set(sys.modules); import {module}; "
            "print(sorted({'dataclasses', 'inspect'} "
            "& (set(sys.modules) - before)))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    flags = ["-O"] * sys.flags.optimize
    out = subprocess.run([sys.executable, *flags, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("module", ["quatwitt", "quatwitt.cli"])
def test_import_does_not_load_typing(module):
    """As above, in an interpreter started with -S: a `.pth` file that the
    site module runs may load `typing` itself, before the import."""
    code = (f"import sys; import {module}; "
            "print('typing' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    flags = ["-O"] * sys.flags.optimize
    out = subprocess.run([sys.executable, *flags, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
