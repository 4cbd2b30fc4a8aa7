"""The source scanner the lints share: the package ``src/weylgate/`` and the
test suite as syntax trees, each read and parsed once per session, and the
walkers the lints have in common.  The lints only walk the shared trees."""

import ast
from functools import cache
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "weylgate"


def parse(sources: dict[str, str]) -> dict[str, ast.Module]:
    """Each source of ``sources`` (name -> text) as a syntax tree."""
    return {name: ast.parse(source, name) for name, source in sources.items()}


@cache
def _load(directory: Path) -> dict[str, ast.Module]:
    return parse({p.name: p.read_text(encoding="utf-8") for p in sorted(directory.glob("*.py"))})


def package() -> dict[str, ast.Module]:
    """The modules of ``src/weylgate/``, by file name."""
    return _load(PACKAGE)


def suite() -> dict[str, ast.Module]:
    """The modules of ``tests/``, by file name."""
    return _load(TESTS)


def ref_name(node) -> str | None:
    """The name a reference reads: ``x``, or the ``x`` of ``a.x``."""
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def loaded(tree) -> set[str]:
    """Every name the code reads: ``x``, and the ``x`` of ``a.x``."""
    return {
        ref_name(node)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }


def bound(tree) -> set[str]:
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


def public_defs(tree) -> list[ast.FunctionDef]:
    """The public functions a module defines at module level."""
    return [n for n in tree.body if isinstance(n, ast.FunctionDef) and not n.name.startswith("_")]
