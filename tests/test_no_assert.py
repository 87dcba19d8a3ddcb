"""Invariants in the library raise named errors; ``python -O`` strips ``assert`` statements."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "detmax"


def test_no_assert_in_src():
    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
