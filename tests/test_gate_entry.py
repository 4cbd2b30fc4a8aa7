"""A single-gate analysis reaches its gate through the record alone.

``invariants._gate`` parses the gate and checks it on a memo miss, so a
public function of the gate analyses that also runs ``check_unitary`` (or
its core) before or after ``_gate`` checks the gate a second time on every
call, memo hit or not.
"""

import ast

import scan

ANALYSES = ("invariants.py", "chamber.py", "kak.py", "entangler.py")
CHECKS = {"check_unitary", "_check_unitary"}


def _checks_beside_the_record(trees) -> list[tuple[str, str]]:
    """(module, function) for each public module-level function that calls
    ``_gate`` and a unitarity check."""
    found = []
    for module, tree in trees.items():
        for node in scan.public_defs(tree):
            called = {scan.ref_name(c.func) for c in ast.walk(node) if isinstance(c, ast.Call)}
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
            "    return _gate(_check_unitary(_as_gate(u)))\n"
            "def record_only(u):\n"
            "    return _gate(u).m\n"
            "def check_only(u):\n"
            "    return _magic(check_unitary(u))\n"
            "def _private(u):\n"
            "    return _gate(check_unitary(u))\n"
        ),
        "b.py": "def other(u):\n    return _Gate(check_unitary(u))\n",
    }
    assert _checks_beside_the_record(scan.parse(sources)) == [
        ("a.py", "core"),
        ("a.py", "nested"),
        ("a.py", "sequential"),
    ]


def test_single_gate_analyses_check_through_the_record():
    trees = {name: scan.package()[name] for name in ANALYSES}
    assert _checks_beside_the_record(trees) == []
