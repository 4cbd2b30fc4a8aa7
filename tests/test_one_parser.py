"""Arguments are parsed in one place.

``linalg._as_array`` decides what a well-formed argument is, finiteness
included, so no other code in ``src/weylgate/`` calls ``np.isfinite``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "weylgate"
ALLOWED = {("linalg.py", "_as_array")}


def _isfinite_callers(sources: dict[str, str]) -> list[tuple[str, str]]:
    """(module, enclosing function or "<module>") for each call of
    ``isfinite``, as ``np.isfinite``, ``numpy.isfinite`` or a bare name."""
    found = []
    for module, source in sources.items():

        def visit(node, where):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                where = node.name
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name == "isfinite":
                    found.append((module, where))
            for child in ast.iter_child_nodes(node):
                visit(child, where)

        visit(ast.parse(source), "<module>")
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
    assert _isfinite_callers(sources) == [
        ("a.py", "<module>"),
        ("a.py", "inner"),
        ("a.py", "method"),
        ("a.py", "parse"),
    ]


def test_only_the_parser_checks_finiteness():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert _isfinite_callers(sources) == sorted(ALLOWED)
