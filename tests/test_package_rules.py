"""Rules on the package source that no behavioural test can see."""

import ast
from pathlib import Path

import plumbline

PACKAGE = Path(plumbline.__file__).resolve().parent


def test_no_assert_statements():
    """Invariants are raised as exceptions: ``python -O`` strips ``assert``."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("**/*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_dataclasses_import():
    """Records derive from ``arrangement.Frozen``: a dataclass generates and
    compiles its methods when its class is made, in every process at start-up."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("**/*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Import) and any(alias.name == "dataclasses" for alias in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "dataclasses" and not node.level
    ]
    assert found == []


def test_parses_at_the_declared_python_floor():
    """pyproject.toml declares requires-python >= 3.10."""
    for path in sorted(PACKAGE.glob("**/*.py")):
        ast.parse(path.read_text(), str(path), feature_version=(3, 10))
