"""A single-gate analysis reaches its gate through the record alone.

``invariants._gate`` parses the gate and checks it on a memo miss, so a
public function of the gate analyses that also runs ``check_unitary`` (or
its core) before or after ``_gate`` checks the gate a second time on every
call, memo hit or not.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "weylgate"
ANALYSES = ("invariants.py", "chamber.py", "kak.py", "entangler.py")
CHECKS = {"check_unitary", "_check_unitary"}


def _called(node) -> set[str]:
    """The names the calls inside ``node`` read: ``f`` of ``f(...)`` and of ``a.f(...)``."""
    names = set()
    for call in ast.walk(node):
        if isinstance(call, ast.Call):
            func = call.func
            names.add(func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None))
    return names


def _checks_beside_the_record(sources: dict[str, str]) -> list[tuple[str, str]]:
    """(module, function) for each public module-level function that calls
    ``_gate`` and a unitarity check."""
    found = []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                called = _called(node)
                if "_gate" in called and called & CHECKS:
                    found.append((module, node.name))
    return sorted(found)


def test_checker_finds_a_check_beside_the_record():
    sources = {
        "a.py": (
            "def nested(u):\n"
            "    return _gate(check_unitary(u)).m\n"
            "def sequential(u):\n"
            "    u = linalg.check_unitary(u)\n"
            "    return _gate(u).spectrum\n"
            "def core(u):\n"
            "    return _gate(_check_unitary(_as_gate(u), 1e-9))\n"
            "def record_only(u):\n"
            "    return _gate(u).m\n"
            "def check_only(u):\n"
            "    return _magic(check_unitary(u))\n"
            "def _private(u):\n"
            "    return _gate(check_unitary(u))\n"
        ),
        "b.py": "def other(u):\n    return _Gate(check_unitary(u))\n",
    }
    assert _checks_beside_the_record(sources) == [
        ("a.py", "core"),
        ("a.py", "nested"),
        ("a.py", "sequential"),
    ]


def test_single_gate_analyses_check_through_the_record():
    sources = {name: (PACKAGE / name).read_text(encoding="utf-8") for name in ANALYSES}
    assert _checks_beside_the_record(sources) == []
