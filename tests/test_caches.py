"""Every memo in the package is bounded.

A ``functools.cache``, or an ``lru_cache`` without a finite ``maxsize``,
keeps every argument and result for the life of the process: the memory
would grow with the number of distinct inputs.  Each ``lru_cache`` must name
its bound, as an integer literal or a module constant bound to one.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "weylgate"
MODULES = sorted(PACKAGE.glob("*.py"))


def _name(node) -> str | None:
    """The name a reference reads: ``x`` or the last part of ``a.x``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _unbounded_caches(source: str) -> list[int]:
    """Line numbers of each ``cache`` reference and each ``lru_cache`` use
    without a finite maxsize."""
    tree = ast.parse(source)
    constants = {
        target.id: node.value.value
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
        for target in node.targets
        if isinstance(target, ast.Name)
    }

    def finite(arg) -> bool:
        value = constants.get(arg.id) if isinstance(arg, ast.Name) else getattr(arg, "value", None)
        return type(value) is int and value > 0

    bounded = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _name(node.func) == "lru_cache":
            size = [k.value for k in node.keywords if k.arg == "maxsize"] + node.args[:1]
            if size and finite(size[0]):
                bounded.add(id(node.func))
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
        and (_name(node) == "cache" or (_name(node) == "lru_cache" and id(node) not in bounded))
        and not isinstance(getattr(node, "ctx", None), ast.Store)
    )


def test_checker_finds_unbounded_caches():
    source = (
        "import functools\n"
        "from functools import cache, lru_cache\n"
        "N = 8\n"
        "@lru_cache(maxsize=N)\ndef a(x): pass\n"
        "@lru_cache(16)\ndef b(x): pass\n"
        "@functools.cache\ndef c(x): pass\n"
        "@lru_cache\ndef d(x): pass\n"
        "@lru_cache(maxsize=None)\ndef e(x): pass\n"
        "f = functools.lru_cache(maxsize=M)(len)\n"
    )
    assert _unbounded_caches(source) == [8, 10, 12, 14]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_cache_is_bounded(path):
    assert _unbounded_caches(path.read_text(encoding="utf-8")) == []
