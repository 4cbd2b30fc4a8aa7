"""Every private module-level name in the package is read somewhere in it.

A ``_``-prefixed function, class or constant at module level is internal to
the package, so if no code in ``src/weylgate/`` loads it, it is dead: kept
alive by tests alone, it would be a second copy of the math that nothing
runs.  Importing a name does not count as reading it.

A public module-level name must be exported by ``weylgate.__all__`` or read
in the package; otherwise it is the same dead code under a public name.
"""

import ast
from pathlib import Path

import weylgate

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "weylgate"


def _bound(tree) -> set[str]:
    """The names, dunders aside, a module binds at module level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return {n for n in names if not n.startswith("__")}


def _defined(tree) -> set[str]:
    """The private names a module binds at module level."""
    return {n for n in _bound(tree) if n.startswith("_")}


def _loaded(tree) -> set[str]:
    """Every name the code reads: ``x``, and the ``x`` of ``a.x``."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }


def _dead_names(sources: dict[str, str]) -> list[tuple[str, str]]:
    """(module, name) for each private module-level name of ``sources`` that
    no module of ``sources`` loads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    loaded = set().union(*map(_loaded, trees.values()))
    return sorted(
        (module, name) for module, tree in trees.items() for name in _defined(tree) - loaded
    )


def test_checker_finds_dead_names():
    sources = {
        "a": (
            "from .b import _imported\n"
            "_USED = 1\n"
            "_DEAD = 2\n"
            "_pair, _half_dead = 3, 4\n"
            "__all__ = []\n"
            "def _called():\n"
            "    return _USED + _pair\n"
            "def _never_called():\n"
            "    _local = 5\n"
            "class _Unused:\n"
            "    pass\n"
            "def public():\n"
            "    return _called(), b._attr_read()\n"
        ),
        "b": "def _imported(): pass\ndef _attr_read(): pass\n",
    }
    assert _dead_names(sources) == [
        ("a", "_DEAD"),
        ("a", "_Unused"),
        ("a", "_half_dead"),
        ("a", "_never_called"),
        ("b", "_imported"),
    ]


def test_no_dead_private_names():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert _dead_names(sources) == []


def _unused_public(sources: dict[str, str], exported) -> list[tuple[str, str]]:
    """(module, name) for each public module-level name of ``sources`` that
    is not in ``exported`` and that no module of ``sources`` loads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    loaded = set().union(*map(_loaded, trees.values())) | set(exported)
    return sorted(
        (module, name)
        for module, tree in trees.items()
        for name in _bound(tree) - _defined(tree) - loaded
    )


def test_checker_finds_unused_public_names():
    sources = {
        "a": (
            "from .b import imported\n"
            "EXPORTED = 1\n"
            "DEAD = 2\n"
            "READ, HALF_DEAD = 3, 4\n"
            "_private = 5\n"
            "__version__ = '0'\n"
            "def exported():\n"
            "    return READ + b.ATTR\n"
            "def never_called():\n"
            "    local = 6\n"
            "class Unused:\n"
            "    field = 7\n"
        ),
        "b": "def imported(): pass\nATTR = 8\n",
    }
    assert _unused_public(sources, {"EXPORTED", "exported"}) == [
        ("a", "DEAD"),
        ("a", "HALF_DEAD"),
        ("a", "Unused"),
        ("a", "never_called"),
        ("b", "imported"),
    ]


def test_public_names_are_exported_or_read():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert _unused_public(sources, weylgate.__all__) == []
