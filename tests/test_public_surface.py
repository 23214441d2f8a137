"""Every public name under src/sketchbench has a caller outside the tests,
and no module there imports inside a function.

A public top-level function or class, or a public method of one, needs a
reference in code that runs the package: ``src/``, ``scripts/``,
``perfbench/``, the README's python blocks or the console entry point of
pyproject.toml.  A name whose only caller is a test belongs in the tests.
A method ``C.m`` counts as called only through an attribute use ``x.m``,
never through a bare name ``m``.  ``Prng.subset`` keeps its place through
``perfbench/test_perfbench.py``, which calls ``Prng(seed).subset(n, k)`` as
the reference for the benchmark's own subset check.

Imports sit at module top, so the import graph is the one the module
headers show; an import inside a function would hide a cycle.
"""

import ast
import re
import tomllib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "sketchbench"


def _public_definitions(source: str) -> list[str]:
    """'f', 'C' and 'C.m' for the public top-level functions and classes and their methods."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            names.append(node.name)
            if isinstance(node, ast.ClassDef):
                names += [f"{node.name}.{item.name}" for item in node.body
                          if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
    return names


def _references(source: str) -> tuple[set[str], set[str]]:
    """What code (not prose) reaches: (Name ids and imported names, Attribute attrs)."""
    names, attrs = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
    return names, attrs


def _caller_sources() -> list[str]:
    files = [*SRC.glob("*.py"), *(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    sources = [f.read_text() for f in sorted(files)]
    sources += re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    entry_points = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    sources += ["from {} import {}".format(*target.split(":")) for target in entry_points.values()]
    return sources


@pytest.mark.parametrize("code, names", [
    ('"""calls ``f``."""\n# g(x)\n', (set(), set())),
    ("f(x)\n", ({"f", "x"}, set())),
    ("m.f\n", ({"m"}, {"f"})),
    ("import a.m\nfrom m import f as g\n", ({"m", "f"}, set())),
    ("for subset in xs:\n    pass\n", ({"subset", "xs"}, set())),
])
def test_references_see_code_not_prose(code, names):
    assert _references(code) == names


def test_every_public_name_has_a_caller_outside_the_tests():
    refs = [_references(source) for source in _caller_sources()]
    names = set().union(*(n for n, _ in refs))
    attrs = set().union(*(a for _, a in refs))
    files = sorted(SRC.glob("*.py"))
    assert files
    uncalled = [f"{f.stem}.{name}" for f in files for name in _public_definitions(f.read_text())
                if ("." in name and name.rsplit(".", 1)[-1] not in attrs)
                or ("." not in name and name not in names | attrs)]
    assert uncalled == []


def _imports_in_functions(source: str) -> list[int]:
    """Line numbers of the import statements inside a function body."""
    return sorted(
        inner.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for inner in ast.walk(node)
        if isinstance(inner, (ast.Import, ast.ImportFrom))
    )


def test_imports_in_functions_are_found():
    assert _imports_in_functions("import a\ndef f():\n    if x:\n        from b import c\n") == [4]
    assert _imports_in_functions("import a\nclass C:\n    import b\n") == []


def test_no_module_imports_inside_a_function():
    found = {f.name: lines for f in sorted(SRC.glob("*.py"))
             if (lines := _imports_in_functions(f.read_text()))}
    assert found == {}
