"""Arguments are parsed in one place.

``linalg._as_array`` decides what a well-formed argument is, finiteness
included, so no other code in ``src/weylgate/`` calls ``np.isfinite``.
"""

import ast

import scan

ALLOWED = {("linalg.py", "_as_array")}


def _isfinite_callers(trees) -> list[tuple[str, str]]:
    """(module, enclosing function or "<module>") for each call of
    ``isfinite``, as ``np.isfinite``, ``numpy.isfinite`` or a bare name."""
    found = []
    for module, tree in trees.items():

        def visit(node, where):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                where = node.name
            if isinstance(node, ast.Call) and scan.ref_name(node.func) == "isfinite":
                found.append((module, where))
            for child in ast.iter_child_nodes(node):
                visit(child, where)

        visit(tree, "<module>")
    return sorted(found)


def test_checker_finds_isfinite_calls():
    sources = {
        "a.py": (
            "import numpy as np\n"
            "from numpy import isfinite\n"
            "OK = np.isfinite(1.0)\n"
            "def parse(x):\n"
            "    def inner():\n"
            "        return numpy.isfinite(x).all()\n"
            "    return isfinite(x), np.isnan(x), inner\n"
            "class C:\n"
            "    def method(self):\n"
            "        return np.isfinite(self)\n"
        ),
        "b.py": "def f(x):\n    return x.isfinite\n",
    }
    assert _isfinite_callers(scan.parse(sources)) == [
        ("a.py", "<module>"),
        ("a.py", "inner"),
        ("a.py", "method"),
        ("a.py", "parse"),
    ]


def test_only_the_parser_checks_finiteness():
    assert _isfinite_callers(scan.package()) == sorted(ALLOWED)
