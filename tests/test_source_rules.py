"""Rules that every module of the package keeps."""

import ast
from pathlib import Path

import effact


def test_no_assert_statements():
    # `python -O` strips asserts; invariants raise explicit errors instead
    root = Path(effact.__file__).parent
    found = [f"{path.relative_to(root)}:{node.lineno}"
             for path in sorted(root.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []
