"""Checks over the library source itself."""

import ast
from pathlib import Path

import qmpaths

SRC = Path(qmpaths.__file__).parent
ROOT = Path(__file__).parent.parent

# module-level names that only tests call, each kept on purpose
TEST_ONLY = {
    "pair_commutation": "the documented commutation rule of two generators, "
    "which the transposition oracle in tests/oracles.py applies",
    "path_weight_by_edges": "the edge-product path weight oracle; the only "
    "caller of torus_product, whose calls perfbench counts",
}


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


def test_no_library_code_only_tests_use():
    # a module-level function or class that nothing in the library, the
    # scripts or the benchmark refers to, and that the package does not
    # export, is test-only code: move it into tests/oracles.py or allowlist it
    defined = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[node.name] = f"{path.name}:{node.lineno}"
    used = set()
    files = [*SRC.glob("*.py"), *(ROOT / "scripts").glob("**/*.py"),
             *(ROOT / "perfbench").glob("**/*.py")]
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    init = ast.parse((SRC / "__init__.py").read_text())
    exported = {
        alias.name
        for node in ast.walk(init)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    unused = {name: where for name, where in defined.items()
              if name not in used and name not in exported}
    assert {n: w for n, w in unused.items() if n not in TEST_ONLY} == {}
    # an allowlist entry that is gone or referenced again is stale
    assert set(TEST_ONLY) <= set(unused)
