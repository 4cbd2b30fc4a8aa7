"""The committed mutant list, ``tools/mutants.py``, cannot go stale: each
mutant's text occurs exactly once under ``src/weylgate/``, in its own file,
the test it must kill is a test of ``tests/test_bounds.py``, and every test
there has its mutant.  Running the mutants is ``python tools/mutants.py``."""

import ast
import importlib.util

import pytest

import scan

_SPEC = importlib.util.spec_from_file_location("mutants", scan.TESTS.parent / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutants)

BOUND_TESTS = {
    node.name
    for node in scan.suite()["test_bounds.py"].body
    if isinstance(node, ast.FunctionDef) and node.name.startswith("test_")
}


@pytest.mark.parametrize("m", mutants.MUTANTS, ids=lambda m: m.kills)
def test_each_mutant_text_occurs_once_under_src(m):
    counts = {
        path.name: path.read_text(encoding="utf-8").count(m.old) for path in sorted(scan.PACKAGE.glob("*.py"))
    }
    assert {name: n for name, n in counts.items() if n} == {m.file: 1}
    assert m.new != m.old


def test_each_mutant_has_its_bound_test_and_each_bound_test_its_mutant():
    kills = {m.kills.split("[")[0] for m in mutants.MUTANTS}
    assert kills == BOUND_TESTS
