"""Input validation at the public boundary.

Each public function checks its own gate, Hamiltonian or coordinate
arguments once; the ``_`` cores below it take checked arrays.  The tests
here pin both halves of that rule: malformed input raises a typed error
(never a raw NumPy error or warning), and a valid call runs exactly one
check per matrix argument and none on matrices the library built itself.
"""

import json
import sys
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weylgate as wg
from conftest import rand_local, rand_u4
from weylgate import (
    CircuitPlan,
    DegenerateHamiltonianError,
    HamiltonianSpec,
    NotHermitianError,
    NotSymmetricError,
    NotUnitaryError,
)
from weylgate.cli import main

NAN = float("nan")


def _with(m, idx, val):
    m = np.array(m, dtype=complex)
    m[idx] = val
    return m


def _custom_params(m):
    """The (re, im) parameter tuple of a custom spec, without its check."""
    return tuple(float(x) for x in np.column_stack([m.real.ravel(), m.imag.ravel()]).ravel())


ISO_H = wg.cartan_element([0.5, 0.5, 0.5])
CNOT = wg.named_gate("cnot")

# kind -> (input, the error it must raise)
BAD_GATES = {
    "nan": (_with(wg.named_gate("iswap"), (3, 3), NAN), NotUnitaryError),
    "inf": (_with(CNOT, (1, 2), np.inf), NotUnitaryError),
    "3x3": (np.eye(3), ValueError),
    "vector": (np.ones(4), ValueError),
    "non-unitary": (1.01 * np.eye(4), NotUnitaryError),
}
BAD_HAMILTONIANS = {
    "nan": (_with(ISO_H, (0, 0), NAN), NotHermitianError),
    "4x3": (np.ones((4, 3)), ValueError),  # expm_i_hermitian takes any n x n, so not 3x3
    "vector": (np.ones(4), ValueError),
    "non-hermitian": (ISO_H + 1e-6j * np.eye(4), NotHermitianError),
}
BAD_SPECS = {
    "string": ("isotropic", ValueError),
    "none": (None, ValueError),
    "nan exchange": (HamiltonianSpec.exchange(NAN, 1.0), ValueError),
    "nan josephson": (HamiltonianSpec.josephson(NAN), ValueError),
    "nan custom": (HamiltonianSpec("custom", (NAN,) * 32), ValueError),
    "short custom": (HamiltonianSpec("custom", (0.0,) * 10), ValueError),
    "non-hermitian custom": (
        HamiltonianSpec("custom", _custom_params(ISO_H + 1e-6j * np.eye(4))),
        NotHermitianError,
    ),
    **{f"matrix {k}": v for k, v in BAD_HAMILTONIANS.items()},
}
BAD_COORDS = {
    "nan": ([NAN, 0.0, 0.0], ValueError),
    "inf": ([np.inf, 0.0, 0.0], ValueError),
    "short": ([1.0, 2.0], ValueError),
    "2d": ([[1.0, 2.0, 3.0]], ValueError),
}

_ISO = HamiltonianSpec.isotropic()
_PLAN = wg.cnot_from_isotropic()

GATE_FNS = {
    "check_unitary": wg.check_unitary,
    "m_matrix": wg.m_matrix,
    "local_invariants": wg.local_invariants,
    "m_spectrum": wg.m_spectrum,
    "gate_coords": wg.gate_coords,
    "kak_decompose": wg.kak_decompose,
    "is_local_gate": wg.is_local_gate,
    "factor_local": wg.factor_local,
    "is_perfect_entangler": wg.is_perfect_entangler,
    "entangling_input": wg.entangling_input,
    "locally_equivalent(u, .)": lambda u: wg.locally_equivalent(u, CNOT),
    "locally_equivalent(., v)": lambda v: wg.locally_equivalent(CNOT, v),
    "synthesize": lambda u: wg.synthesize(u, _ISO),
    "verify_plan": lambda u: wg.verify_plan(_PLAN, u),
}
HAMILTONIAN_FNS = {
    "check_hermitian": wg.check_hermitian,
    "expm_i_hermitian": wg.expm_i_hermitian,
    "split_hamiltonian": wg.split_hamiltonian,
    "cartan_conjugate": wg.cartan_conjugate,
    "HamiltonianSpec.custom": HamiltonianSpec.custom,
}
SPEC_FNS = {
    "realize": wg.realize,
    "trajectory": lambda s: wg.trajectory(s, [0.0, 0.5]),
    "synthesize": lambda s: wg.synthesize(CNOT, s),
    "fundamental_period": wg.fundamental_period,
    "plan_unitary": lambda s: wg.plan_unitary(CircuitPlan(_PLAN.locals, _PLAN.times, s)),
    "verify_plan": lambda s: wg.verify_plan(CircuitPlan(_PLAN.locals, _PLAN.times, s), CNOT),
    "with_nonnegative_times": lambda s: wg.with_nonnegative_times(
        CircuitPlan(_PLAN.locals, (-1.0, 0.5, 0.0), s)
    ),
}
SYMMETRIC_FNS = {
    "eig_real_symmetric": wg.eig_real_symmetric,
    "simdiag_commuting_symmetric": lambda s: wg.simdiag_commuting_symmetric(s, np.eye(4)),
}
BAD_SYMMETRIC = {
    "nan": (_with(np.eye(4), (0, 1), NAN).real, NotSymmetricError),
    "inf": (_with(np.eye(4), (2, 2), np.inf).real, NotSymmetricError),
    "4x3": (np.ones((4, 3)), ValueError),
    "asymmetric": (np.triu(np.ones((4, 4))), NotSymmetricError),
}
# Not in the tables: magic_transform, dist_up_to_phase, kron2, dagger,
# commutator, killing_form, kak_reconstruct and steps are plain matrix
# arithmetic on arrays their caller already holds, and check nothing.
COORD_FNS = {
    "canonicalize": wg.canonicalize,
    "canonical_gate": wg.canonical_gate,
    "coords_of_inverse": wg.coords_of_inverse,
    "weyl_orbit": wg.weyl_orbit,
    "in_chamber": wg.in_chamber,
    "invariants_from_coords": wg.invariants_from_coords,
    "pe_from_coords": wg.pe_from_coords,
    "cartan_element": wg.cartan_element,
    "controlled_gate": wg.controlled_gate,
    "solve_times(coeffs, .)": lambda c: wg.solve_times(c, [1.0, 0.5, 0.2]),
    "solve_times(., target)": lambda c: wg.solve_times([1.0, 0.5, 0.2], c),
}


def _table(fns, inputs):
    return [
        pytest.param(fn, bad, error, id=f"{name}-{kind}")
        for name, fn in fns.items()
        for kind, (bad, error) in inputs.items()
    ]


@pytest.mark.parametrize(
    "fn, bad, error",
    _table(GATE_FNS, BAD_GATES)
    + _table(HAMILTONIAN_FNS, BAD_HAMILTONIANS)
    + _table(SPEC_FNS, BAD_SPECS)
    + _table(SYMMETRIC_FNS, BAD_SYMMETRIC)
    + _table(COORD_FNS, BAD_COORDS)
    + _table(
        {"assemble_nonlocal": wg.assemble_nonlocal},
        {"nan": ([NAN] * 9, ValueError), "short": ([1.0] * 8, ValueError)},
    ),
)
def test_malformed_input_raises_typed_error(fn, bad, error):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error) as info:
            fn(bad)
    # NumPy's LinAlgError is a ValueError too; the library must not let one out.
    assert not isinstance(info.value, np.linalg.LinAlgError), info.value


def test_short_coords_message():
    for fn in (wg.canonicalize, wg.coords_of_inverse, wg.cartan_element):
        with pytest.raises(ValueError, match="coords must be a length-3 vector"):
            fn([1, 2])


# ---------------------------------------------------------------------------
# One check per public matrix argument

_COUNTED = ("check_unitary", "check_hermitian", "realize")


@pytest.fixture
def checks(monkeypatch):
    """Counts of the three checks, wrapped in every weylgate namespace."""
    counts = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in _COUNTED:
        fn = getattr(wg, name)
        wrapper = counting(name, fn)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "weylgate" and getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, wrapper)
    return counts


# Built before any counting starts: HamiltonianSpec.custom checks its matrix.
_CUSTOM = HamiltonianSpec.custom(wg.assemble_nonlocal([0.9, 0.1, -0.2, 0.3, 0.6, 0.0, 0.1, -0.4, 0.3]))
_RNG = np.random.default_rng(7)
_U = rand_u4(_RNG)
_LOCAL = rand_local(_RNG)
_NEGATIVE_PLAN = CircuitPlan(_PLAN.locals, (-1.0, 0.5, 0.0), _ISO)

# name -> (call, expected counts); a spec is realized once, and realizing a
# custom spec is its one Hermitian check.
COUNT_CASES = {
    "m_matrix": (lambda: wg.m_matrix(_U), {"check_unitary": 1}),
    "local_invariants": (lambda: wg.local_invariants(_U), {"check_unitary": 1}),
    "m_spectrum": (lambda: wg.m_spectrum(_U), {"check_unitary": 1}),
    "gate_coords": (lambda: wg.gate_coords(_U), {"check_unitary": 1}),
    "kak_decompose": (lambda: wg.kak_decompose(_U), {"check_unitary": 1}),
    "is_local_gate": (lambda: wg.is_local_gate(_LOCAL), {"check_unitary": 1}),
    "factor_local": (lambda: wg.factor_local(_LOCAL), {"check_unitary": 1}),
    "is_perfect_entangler": (lambda: wg.is_perfect_entangler(_U), {"check_unitary": 1}),
    "entangling_input": (lambda: wg.entangling_input(CNOT), {"check_unitary": 1}),
    "locally_equivalent": (lambda: wg.locally_equivalent(_U, CNOT), {"check_unitary": 2}),
    "expm_i_hermitian": (lambda: wg.expm_i_hermitian(ISO_H, 0.3), {"check_hermitian": 1}),
    "split_hamiltonian": (lambda: wg.split_hamiltonian(ISO_H), {"check_hermitian": 1}),
    "cartan_conjugate": (lambda: wg.cartan_conjugate(ISO_H), {"check_hermitian": 1}),
    "HamiltonianSpec.custom": (lambda: HamiltonianSpec.custom(ISO_H), {"check_hermitian": 1}),
    "realize(named)": (lambda: wg.realize(_ISO), {"realize": 1}),
    "realize(custom)": (lambda: wg.realize(_CUSTOM), {"realize": 1, "check_hermitian": 1}),
    "trajectory(named)": (lambda: wg.trajectory(_ISO, np.linspace(0, 3, 7)), {"realize": 1}),
    "trajectory(custom)": (
        lambda: wg.trajectory(_CUSTOM, np.linspace(0, 3, 7)),
        {"realize": 1, "check_hermitian": 1},
    ),
    "synthesize(named)": (lambda: wg.synthesize(_U, _ISO), {"check_unitary": 1, "realize": 1}),
    "synthesize(custom)": (
        lambda: wg.synthesize(_U, _CUSTOM),
        {"check_unitary": 1, "realize": 1, "check_hermitian": 1},
    ),
    "plan_unitary": (lambda: wg.plan_unitary(_PLAN), {"realize": 1}),
    # verify_plan checks its target and multiplies the plan out through the
    # public plan_unitary, which realizes the spec.
    "verify_plan": (lambda: wg.verify_plan(_PLAN, CNOT), {"check_unitary": 1, "realize": 1}),
    "fundamental_period": (lambda: wg.fundamental_period(_ISO), {"realize": 1}),
    "with_nonnegative_times": (lambda: wg.with_nonnegative_times(_NEGATIVE_PLAN), {"realize": 1}),
}


@pytest.mark.parametrize("call, expected", COUNT_CASES.values(), ids=COUNT_CASES.keys())
def test_one_check_per_matrix_argument(checks, call, expected):
    call()
    assert dict(+checks) == expected


def test_library_built_matrices_are_not_rechecked(checks):
    # No matrix argument at all: every matrix here is built by the library.
    wg.josephson_cnot_min_time(k_max=2)
    wg.cnot_from_isotropic()
    assert checks["check_unitary"] == 0
    assert checks["check_hermitian"] == 0


# ---------------------------------------------------------------------------
# Synthesis from random two-body generators

PROPERTY = settings(derandomize=True, max_examples=150, deadline=None, database=None)
# Tiny and zero couplings reach the singular and near-singular pulse-time systems.
coupling = st.one_of(st.floats(-1.0, 1.0), st.floats(-1e-5, 1e-5), st.just(0.0))


@PROPERTY
@given(st.lists(coupling, min_size=9, max_size=9), st.integers(0, 2**32 - 1))
def test_synthesis_meets_residual_or_reports_degenerate(coeffs, seed):
    spec = HamiltonianSpec.custom(wg.assemble_nonlocal(coeffs))
    target = rand_u4(np.random.default_rng(seed))
    try:
        plan = wg.synthesize(target, spec)
    except DegenerateHamiltonianError:
        return
    assert wg.verify_plan(plan, target) <= 1e-8


# ---------------------------------------------------------------------------
# The CLI parses gate files and leaves the one check to the library call


def _gate_file(tmp_path, m):
    doc = {"matrix": [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=complex)]}
    path = tmp_path / "gate.json"
    path.write_text(json.dumps(doc))  # json writes NaN as a literal and reads it back
    return str(path)


@pytest.mark.parametrize(
    "matrix, error",
    [
        (np.eye(3), "ValueError"),
        (_with(CNOT, (0, 0), NAN), "NotUnitaryError"),
        (CNOT + 5e-9 * np.eye(4), "NotUnitaryError"),
    ],
    ids=["3x3", "nan", "5e-9 off unitary"],
)
@pytest.mark.parametrize(
    "argv",
    [["invariants"], ["coords"], ["pe"], ["kak"], ["entangle-input"], ["synth", "isotropic"], ["equiv", "cnot"]],
    ids=lambda argv: argv[0],
)
def test_cli_bad_gate_file(capsys, tmp_path, matrix, error, argv):
    path = _gate_file(tmp_path, matrix)
    code = main([argv[0], path, *argv[1:]])
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"]["type"] == error
