"""A result record that holds arrays compares and hashes by identity.

A frozen dataclass compares field by field, and hashes its fields, unless it
passes ``eq=False``.  On a field that holds an array, ``==`` raises NumPy's
"truth value of an array is ambiguous" and ``hash`` raises TypeError.  So
every dataclass of the package with a field annotated ``np.ndarray``, or a
type that contains one (``tuple[np.ndarray, ...]``, ``np.ndarray | None``),
passes ``eq=False``: ``r == r`` holds, ``r`` equals no other object, and
``hash(r)`` is its identity's.  Records of scalars keep value equality.
"""

import ast
import copy

import numpy as np
import pytest

import scan
import weylgate as wg
from weylgate.cartan import WEYL_REFLECTIONS


def _passes_eq_false(node: ast.ClassDef) -> bool | None:
    """Whether the class's ``@dataclass`` decorator passes ``eq=False``;
    None when the class is no dataclass."""
    for deco in node.decorator_list:
        call = deco if isinstance(deco, ast.Call) else None
        if scan.ref_name(call.func if call else deco) == "dataclass":
            keywords = call.keywords if call else []
            return any(k.arg == "eq" and getattr(k.value, "value", None) is False for k in keywords)
    return None


def _holds_array(annotation) -> bool:
    """The annotation names ``ndarray`` anywhere, as syntax or as text."""
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        annotation = ast.parse(annotation.value, mode="eval")
    return any(scan.ref_name(n) == "ndarray" for n in ast.walk(annotation))


def _array_records(tree) -> dict[str, bool]:
    """Each dataclass of ``tree`` with an array field -> whether it passes
    ``eq=False``."""
    found = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef) or (eq_false := _passes_eq_false(node)) is None:
            continue
        fields = [n.annotation for n in node.body if isinstance(n, ast.AnnAssign)]
        if any(map(_holds_array, fields)):
            found[node.name] = eq_false
    return found


def test_checker_finds_array_records_with_value_equality():
    source = (
        "import dataclasses\n"
        "from dataclasses import dataclass\n"
        "import numpy as np\n"
        "@dataclass(frozen=True)\nclass Plain:\n    x: np.ndarray\n"
        "@dataclass(frozen=True, eq=False)\nclass Identity:\n    x: np.ndarray\n    y: float\n"
        "@dataclass\nclass Bare:\n    x: tuple[np.ndarray, float]\n"
        "@dataclasses.dataclass(eq=True)\nclass Spelled:\n    x: np.ndarray | None\n"
        "@dataclass(frozen=True)\nclass Text:\n    x: 'np.ndarray'\n"
        "@dataclass(frozen=True)\nclass Scalars:\n    x: float\n    y: tuple[float, ...]\n"
        "class NotARecord:\n    x: np.ndarray\n"
    )
    found = _array_records(scan.parse({"a.py": source})["a.py"])
    assert found == {"Plain": False, "Identity": True, "Bare": False, "Spelled": False, "Text": False}


def _package_records() -> dict[str, bool]:
    return {name: ok for tree in scan.package().values() for name, ok in _array_records(tree).items()}


def test_every_array_record_compares_by_identity():
    assert [name for name, ok in _package_records().items() if not ok] == []


_H = wg.assemble_nonlocal(np.linspace(0.1, 0.9, 9))
_ISO = wg.HamiltonianSpec.isotropic()

# One instance of each record that holds arrays.
ARRAY_RECORDS = {
    "HamiltonianSplit": lambda: wg.split_hamiltonian(_H),
    "CartanTarget": lambda: wg.cartan_conjugate(_H),
    "WeylReflection": lambda: next(iter(WEYL_REFLECTIONS.values())),
    "PeVerdict": lambda: wg.is_perfect_entangler(wg.named_gate("cnot")),
    "MSpectrum": lambda: wg.m_spectrum(wg.named_gate("cnot")),
    "KakDecomposition": lambda: wg.kak_decompose(wg.named_gate("cnot")),
    "LocalFactors": lambda: wg.factor_local(np.eye(4)),
    "CircuitPlan": wg.cnot_from_isotropic,
    "TrajectorySample": lambda: wg.trajectory(_ISO, [0.5])[0],
    "Trajectory": lambda: wg.trajectory(_ISO, [0.5]),
}

# Records of scalars and specs, which keep value equality.
VALUE_RECORDS = {
    "HamiltonianSpec": lambda: wg.HamiltonianSpec.exchange(1.0, 0.5),
    "LocalInvariants": lambda: wg.local_invariants(wg.named_gate("cnot")),
    "VolumeReport": wg.pe_volume_exact,
    "JosephsonCnot": lambda: wg.JosephsonCnot(1.2, 2.7, 5, wg.LocalInvariants(0j, 1.0, 0.0)),
}


def test_every_array_record_has_an_instance():
    assert sorted(ARRAY_RECORDS) == sorted(_package_records())


@pytest.mark.parametrize("name", ARRAY_RECORDS)
def test_array_records_compare_and_hash_by_identity(name):
    r = ARRAY_RECORDS[name]()
    assert type(r).__name__ == name
    twin = copy.deepcopy(r)  # equal values, another object
    assert r == r
    assert (r == twin) is False and (r != twin) is True
    assert hash(r) == object.__hash__(r)
    assert len({r, twin, r}) == 2


@pytest.mark.parametrize("name", VALUE_RECORDS)
def test_scalar_records_keep_value_equality(name):
    r = VALUE_RECORDS[name]()
    assert type(r).__name__ == name
    twin = copy.deepcopy(r)
    assert r == twin and hash(r) == hash(twin)
