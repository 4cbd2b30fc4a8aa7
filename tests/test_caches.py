"""Every memo in the package is bounded.

A ``functools.cache``, or an ``lru_cache`` without a finite ``maxsize``,
keeps every argument and result for the life of the process: the memory
would grow with the number of distinct inputs.  Each ``lru_cache`` must name
its bound, as an integer literal or a module constant bound to one.
"""

import ast

import pytest

import scan


def _unbounded_caches(tree) -> list[int]:
    """Line numbers of each ``cache`` reference and each ``lru_cache`` use
    without a finite maxsize."""
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
        if isinstance(node, ast.Call) and scan.ref_name(node.func) == "lru_cache":
            size = [k.value for k in node.keywords if k.arg == "maxsize"] + node.args[:1]
            if size and finite(size[0]):
                bounded.add(id(node.func))
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if scan.ref_name(node) == "cache"
        or (scan.ref_name(node) == "lru_cache" and id(node) not in bounded)
        if not isinstance(getattr(node, "ctx", None), ast.Store)
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
    assert _unbounded_caches(scan.parse({"a.py": source})["a.py"]) == [8, 10, 12, 14]


@pytest.mark.parametrize("module", scan.package())
def test_every_cache_is_bounded(module):
    assert _unbounded_caches(scan.package()[module]) == []
