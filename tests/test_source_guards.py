"""Source guards: invariant checks in the package raise, so `python -O` keeps
them, `optimality` keeps its one elimination to itself, and each field
parses its own coefficient strings."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "chevalley"


@pytest.mark.parametrize("name", sorted(p.name for p in SRC.glob("*.py")))
def test_no_assert_statements(name):
    tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{name} has assert statements at lines {lines}"


def _imported_modules(name):
    """Dotted names of the modules (and imported names) of src/chevalley/<name>."""
    tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "chevalley" if node.level else ""
            module = ".".join(filter(None, [base, node.module]))
            found.add(module)
            found.update(f"{module}.{alias.name}" for alias in node.names)
    return found


def test_optimality_imports_neither_snf_nor_linalg():
    # its one elimination, for the Wolfe corral and the sl2 verdict alike,
    # is its own fraction-free solve
    assert not _imported_modules("optimality.py") & {"chevalley.snf", "chevalley.linalg"}
    assert "chevalley.linalg" in _imported_modules("rootsystem.py")  # the guard sees imports


def test_cli_parses_no_coefficient_strings():
    # every coefficient string goes to field.element of the field it lands in
    assert "re" not in _imported_modules("cli.py")
    assert "re" in _imported_modules("fields.py")  # the guard sees plain imports
