"""No function in the library calls itself: the depth of a laminar family comes from its input,
so the interpreter's recursion limit must not bound what the library accepts."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "detmax"


def _self_reads(tree):
    """(line, name) of each place a function reads its own name, bare or as ``self.name`` / ``cls.name``.

    A read covers a call and a hand-off such as ``map(name, ...)``.
    """
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Name) and node.id == fn.name and isinstance(node.ctx, ast.Load):
                yield node.lineno, fn.name
            elif (
                isinstance(node, ast.Attribute) and node.attr == fn.name
                and isinstance(node.value, ast.Name) and node.value.id in ("self", "cls")
            ):
                yield node.lineno, fn.name


def test_no_recursion_in_src():
    found = [
        "%s:%d %s" % (path.name, line, name)
        for path in sorted(SRC.glob("*.py"))
        for line, name in _self_reads(ast.parse(path.read_text(), str(path)))
    ]
    assert found == []


def test_guard_sees_each_form():
    source = (
        "def f(n):\n    return f(n - 1)\n"
        "class C:\n    def g(self):\n        return self.g()\n"
        "    @classmethod\n    def h(cls):\n        return cls.h()\n"
        "def k(xs):\n    return list(map(k, xs))\n"
        "def ok(x):\n    return other.ok(x)\n"
    )
    assert sorted(_self_reads(ast.parse(source))) == [(2, "f"), (5, "g"), (8, "h"), (10, "k")]
