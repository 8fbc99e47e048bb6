"""Checks on the package source itself."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "orderflow"


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_assert_statements(module):
    # python -O strips assert statements, so a guard written as one vanishes.
    tree = ast.parse((SRC / module).read_text(), module)
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{module} asserts at lines {lines}; raise an explicit error instead"
