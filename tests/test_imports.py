"""Imports: each module of the package uses every name it imports, and no
test module imports another.

``__init__`` is exempt from the first rule: its imports are the package's
re-exports.  A helper two test modules need lives in the shared support,
``conftest`` or ``scan``, the only modules of ``tests/`` a module may import.
"""

import ast
from pathlib import Path

import pytest

import scan

SUPPORT = {"conftest", "scan"}


def _unused_imports(tree) -> list[str]:
    """Names bound by an import statement and never read as a name."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_checker_finds_unused_imports():
    source = "import os\nimport numpy as np\nfrom a import b, c\nnp.x(b)\n"
    assert _unused_imports(scan.parse({"a.py": source})["a.py"]) == ["c", "os"]


@pytest.mark.parametrize("module", [name for name in scan.package() if name != "__init__.py"])
def test_module_uses_every_import(module):
    assert _unused_imports(scan.package()[module]) == []


def _cross_test_imports(trees) -> list[tuple[str, str]]:
    """(module, imported) for each import, at any depth, of a module of
    ``trees`` (file name -> tree) other than the shared support."""
    local = {Path(name).stem for name in trees} - SUPPORT
    found = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                found += [(module, a.name) for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                found.append((module, node.module))
    return sorted((module, name) for module, name in found if name.split(".")[0] in local)


def test_checker_finds_cross_test_imports():
    sources = {
        "conftest.py": "import numpy as np\n",
        "scan.py": "import ast\n",
        "a.py": (
            "import conftest\n"
            "from conftest import rand_u4\n"
            "from scan import PACKAGE\n"
            "import numpy, weylgate.chamber\n"
            "from b import _helper\n"
            "def f():\n"
            "    import c as other\n"
        ),
        "b.py": "import a, os\n",
        "c.py": "from weylgate import d\n",
    }
    assert _cross_test_imports(scan.parse(sources)) == [("a.py", "b"), ("a.py", "c"), ("b.py", "a")]


def test_test_modules_import_only_the_shared_support():
    assert _cross_test_imports(scan.suite()) == []
