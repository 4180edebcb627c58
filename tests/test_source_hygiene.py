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


def test_term_arithmetic_has_one_home():
    # the algebra-independent operations of TorusElement and QmPoly live in
    # one shared base class; each subclass defines only what differs, and
    # keeps __mul__ in its own body
    shared = {"__add__", "__neg__", "__sub__", "scale", "__eq__", "__hash__",
              "__repr__"}
    # componentwise addition of (row sums, column sums), not term arithmetic
    exempt = {"straighten.py:GradeVector.__add__"}
    owners: dict = {}
    methods: dict = {}
    for name in ("torus.py", "straighten.py"):
        tree = ast.parse((SRC / name).read_text(), filename=name)
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            defined = {
                node.name for node in cls.body if isinstance(node, ast.FunctionDef)
            }
            methods[cls.name] = defined
            for meth in defined & shared:
                if f"{name}:{cls.name}.{meth}" not in exempt:
                    owners.setdefault(meth, []).append(f"{name}:{cls.name}")
    assert {k: v for k, v in owners.items() if len(v) > 1} == {}
    for cls in ("TorusElement", "QmPoly"):
        assert "__mul__" in methods[cls]
        assert methods[cls] & shared == set()
