"""Checks over the library source itself."""

import ast
from pathlib import Path

import qmpaths

SRC = Path(qmpaths.__file__).parent


def test_no_bare_assert_statements():
    # python -O strips assert statements; invariants raise explicit errors
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []
