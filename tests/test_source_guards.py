"""Invariant checks in the package raise, so `python -O` keeps them."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "chevalley"


@pytest.mark.parametrize("name", sorted(p.name for p in SRC.glob("*.py")))
def test_no_assert_statements(name):
    tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{name} has assert statements at lines {lines}"
