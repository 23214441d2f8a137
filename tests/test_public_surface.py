"""Every public name under src/sketchbench has a caller outside the tests.

A public top-level function or class, or a public method of one, needs a
reference in code that runs the package: ``src/``, ``scripts/``,
``perfbench/``, the README's python blocks or the console entry point of
pyproject.toml.  A name whose only caller is a test belongs in the tests.
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


def _references(source: str) -> set[str]:
    """The names code (not prose) reaches: Name ids, Attribute attrs and imported names."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
    return out


def _caller_sources() -> list[str]:
    files = [*SRC.glob("*.py"), *(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    sources = [f.read_text() for f in sorted(files)]
    sources += re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    entry_points = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    sources += ["from {} import {}".format(*target.split(":")) for target in entry_points.values()]
    return sources


@pytest.mark.parametrize("code, names", [
    ('"""calls ``f``."""\n# g(x)\n', set()),
    ("f(x)\n", {"f", "x"}),
    ("m.f\n", {"m", "f"}),
    ("import a.m\nfrom m import f as g\n", {"m", "f"}),
])
def test_references_see_code_not_prose(code, names):
    assert _references(code) == names


def test_every_public_name_has_a_caller_outside_the_tests():
    referenced = set().union(*map(_references, _caller_sources()))
    files = sorted(SRC.glob("*.py"))
    assert files
    uncalled = [f"{f.stem}.{name}" for f in files for name in _public_definitions(f.read_text())
                if name.rsplit(".", 1)[-1] not in referenced]
    assert uncalled == []
