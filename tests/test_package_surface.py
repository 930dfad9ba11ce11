"""No module of the package imports a private name from a sibling module.

A helper another module needs is public in the module that owns it, so
each job (reading a small text file, splitting a two-column CSV, ...) has
one home and one way in. Every ``src/chartflow/*.py`` is parsed with
``ast``; a relative ``from .<module> import _<name>`` fails the test.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "chartflow"


def private_sibling_imports(source: str) -> list[str]:
    """``module._name`` for each private name imported from a sibling."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found += [
                f"{node.module}.{alias.name}"
                for alias in node.names
                if alias.name.startswith("_")
            ]
    return found


def test_no_private_sibling_imports():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = {
        path.name: names
        for path in modules
        if (names := private_sibling_imports(path.read_text(encoding="utf-8")))
    }
    assert found == {}
