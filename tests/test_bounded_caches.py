"""Caches are bounded, so a long-lived process does not grow without limit:
no library module uses `functools.cache`, and every `lru_cache` names a
finite `maxsize`."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "src" / "quatwitt").glob("*.py"))


def _functools_name(node, cache_names):
    """"cache" or "lru_cache" when node names that functools function,
    as `functools.x` or as a name imported from functools."""
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "functools"):
        return node.attr
    if isinstance(node, ast.Name):
        return cache_names.get(node.id)
    return None


def _maxsize(call):
    """The maxsize a call of lru_cache gives, evaluated when it is a
    constant expression such as 2**15; None when it is left out."""
    args = [kw.value for kw in call.keywords if kw.arg == "maxsize"]
    args += call.args[:1]
    if not args:
        return None
    try:
        return eval(compile(ast.Expression(args[0]), "<maxsize>", "eval"),
                    {"__builtins__": {}})
    except NameError:
        return "not a constant"


def unbounded_caches(source):
    """(line, reason) for each unbounded or implicitly sized cache."""
    tree = ast.parse(source)
    cache_names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            for alias in node.names:
                if alias.name in ("cache", "lru_cache"):
                    cache_names[alias.asname or alias.name] = alias.name
    called = set()
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _functools_name(node.func, cache_names)
        if name == "lru_cache":
            called.add(id(node.func))
            size = _maxsize(node)
            if not (isinstance(size, int) and not isinstance(size, bool)
                    and size >= 1):
                out.append((node.lineno, f"lru_cache maxsize {size!r}"))
    for node in ast.walk(tree):
        name = _functools_name(node, cache_names)
        if name == "cache":
            out.append((node.lineno, "functools.cache"))
        elif name == "lru_cache" and id(node) not in called:
            out.append((node.lineno, "lru_cache without maxsize"))
    return sorted(set(out))


@pytest.mark.parametrize("source, lines", [
    ("from functools import lru_cache\n@lru_cache(maxsize=2**8)\n"
     "def f(): pass\n", []),
    ("import functools\n@functools.lru_cache(1)\ndef f(): pass\n", []),
    ("from functools import lru_cache\n@lru_cache\ndef f(): pass\n", [2]),
    ("from functools import lru_cache\n@lru_cache()\ndef f(): pass\n", [2]),
    ("import functools\n@functools.lru_cache(maxsize=None)\n"
     "def f(): pass\n", [2]),
    ("from functools import lru_cache as lc\ng = lc(None)(len)\n", [2]),
    ("import functools\n@functools.cache\ndef f(): pass\n", [2]),
    ("from functools import cache\n@cache\ndef f(): pass\n", [2]),
], ids=["power", "positional", "bare", "empty-call", "none", "alias-none",
        "functools-cache", "imported-cache"])
def test_checker_flags_unbounded_caches(source, lines):
    assert [line for line, _ in unbounded_caches(source)] == lines


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_caches_are_bounded(path):
    found = unbounded_caches(path.read_text())
    assert not found, f"{path.name}: unbounded caches {found}"
