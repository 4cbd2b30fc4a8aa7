"""Every private module-level name in the package is read somewhere in it.

A ``_``-prefixed function, class or constant at module level is internal to
the package, so if no code in ``src/weylgate/`` loads it, it is dead: kept
alive by tests alone, it would be a second copy of the math that nothing
runs.  Importing a name does not count as reading it.

A public module-level name must be exported by ``weylgate.__all__`` or read
in the package; otherwise it is the same dead code under a public name.
"""

import scan
import weylgate


def _defined(tree) -> set[str]:
    """The private names a module binds at module level."""
    return {n for n in scan.bound(tree) if n.startswith("_")}


def _dead_names(trees) -> list[tuple[str, str]]:
    """(module, name) for each private module-level name of ``trees`` that
    no module of ``trees`` loads."""
    loaded = set().union(*map(scan.loaded, trees.values()))
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
    assert _dead_names(scan.parse(sources)) == [
        ("a", "_DEAD"),
        ("a", "_Unused"),
        ("a", "_half_dead"),
        ("a", "_never_called"),
        ("b", "_imported"),
    ]


def test_no_dead_private_names():
    assert _dead_names(scan.package()) == []


def _unused_public(trees, exported) -> list[tuple[str, str]]:
    """(module, name) for each public module-level name of ``trees`` that
    is not in ``exported`` and that no module of ``trees`` loads."""
    loaded = set().union(*map(scan.loaded, trees.values())) | set(exported)
    return sorted(
        (module, name)
        for module, tree in trees.items()
        for name in scan.bound(tree) - _defined(tree) - loaded
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
    assert _unused_public(scan.parse(sources), {"EXPORTED", "exported"}) == [
        ("a", "DEAD"),
        ("a", "HALF_DEAD"),
        ("a", "Unused"),
        ("a", "never_called"),
        ("b", "imported"),
    ]


def test_public_names_are_exported_or_read():
    assert _unused_public(scan.package(), weylgate.__all__) == []
