"""Input validation at the public boundary.

Each public function checks its own gate, Hamiltonian or coordinate
arguments once; the ``_`` cores below it take checked arrays.  The tests
here pin both halves of that rule: malformed input raises a typed error
(never a raw NumPy error or warning), and a valid call runs exactly one
check per matrix argument and none on matrices the library built itself.
"""

import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weylgate as wg
from conftest import BAD_TIMES, PROPERTY, rand_local, rand_u4
from weylgate import (
    CircuitPlan,
    DegenerateHamiltonianError,
    HamiltonianSpec,
    InvalidInputError,
    NotHermitianError,
    NotNormalizedError,
    NotUnitaryError,
    WeylgateError,
)
from weylgate import invariants, linalg
from weylgate.chamber import _gate_coords
from weylgate.cli import main

NAN = float("nan")


def _with(m, idx, val):
    m = np.array(m, dtype=complex)
    m[idx] = val
    return m


def _with_object(m, idx, val):
    """m as an object array with one entry replaced by ``val``."""
    m = np.array(m, dtype=object)
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
    # u†u overflows to inf + NaN·i: its defect is NaN, which `defect > tol` let pass.
    "1e155": (1e155 * np.eye(4), NotUnitaryError),
    "1e308": (1e308 * np.eye(4), NotUnitaryError),
    "str": (np.eye(4, dtype=int).astype(str), NotUnitaryError),
    "object": (_with_object(CNOT, (0, 0), [1, 0]), NotUnitaryError),
    "ragged": ([[1, 0], [0]], InvalidInputError),
    "0-d": (1.0, InvalidInputError),
    # A bool is not a number, though NumPy casts it to one.
    "bool": (np.eye(4, dtype=bool), NotUnitaryError),
    "bool entry": (_with_object(np.eye(4), (0, 0), True), NotUnitaryError),
}
BAD_HAMILTONIANS = {
    "nan": (_with(ISO_H, (0, 0), NAN), NotHermitianError),
    "3x3": (np.eye(3), ValueError),
    "4x3": (np.ones((4, 3)), ValueError),
    "vector": (np.ones(4), ValueError),
    "non-hermitian": (ISO_H + 1e-6j * np.eye(4), NotHermitianError),
    "str": (np.eye(4, dtype=int).astype(str), NotHermitianError),
    "object": (_with_object(ISO_H, (0, 0), [1, 0]), NotHermitianError),
    "ragged": ([[1, 2], [3]], InvalidInputError),
    # h - h† overflows: the defect reads inf, not a RuntimeWarning.
    "1e200 triu": (1e200 * np.triu(np.ones((4, 4))), NotHermitianError),
    "1e308 pair": (_with(_with(np.zeros((4, 4)), (0, 1), 1e308), (1, 0), -1e308), NotHermitianError),
    # Hermitian, but ||h|| overflows: eigh would return NaN without a warning.
    "huge hermitian": (np.full((4, 4), 1e308), InvalidInputError),
    "bool": (np.eye(4, dtype=bool), NotHermitianError),
}
BAD_SPECS = {
    "string": ("isotropic", ValueError),
    "none": (None, ValueError),
    "nan exchange": (HamiltonianSpec.exchange(NAN, 1.0), ValueError),
    "nan josephson": (HamiltonianSpec.josephson(NAN), ValueError),
    "nan custom": (HamiltonianSpec("custom", (NAN,) * 32), ValueError),
    "short custom": (HamiltonianSpec("custom", (0.0,) * 10), ValueError),
    "list kind": (HamiltonianSpec(["xy"]), ValueError),
    "unknown kind": (HamiltonianSpec("foo"), InvalidInputError),
    # A named kind takes no parameters: these made a second spec of one coupling.
    "isotropic params": (HamiltonianSpec("isotropic", (1.0, 2.0)), InvalidInputError),
    # NumPy would promote the bool to 1.0 beside the numbers.
    "bool exchange": (HamiltonianSpec("exchange", (1, 0.5, True, 0)), InvalidInputError),
    "bool josephson": (HamiltonianSpec("josephson", (False, 1.0)), InvalidInputError),
    "non-hermitian custom": (
        HamiltonianSpec("custom", _custom_params(ISO_H + 1e-6j * np.eye(4))),
        NotHermitianError,
    ),
    # A coupling is a spec: a matrix, well-formed or not, is refused before any parse.
    "matrix": (ISO_H, ValueError),
    **{f"matrix {k}": (m, ValueError) for k, (m, _) in BAD_HAMILTONIANS.items()},
}
BAD_COORDS = {
    "nan": ([NAN, 0.0, 0.0], ValueError),
    "inf": ([np.inf, 0.0, 0.0], ValueError),
    "short": ([1.0, 2.0], ValueError),
    "2d": ([[1.0, 2.0, 3.0]], ValueError),
    "text": (["1", "0", "0"], InvalidInputError),
    "complex": ([1j, 0, 0], InvalidInputError),
    "complex array": (np.array([1 + 1j, 0, 0]), InvalidInputError),
    # Numbers all, so only the cast to float refuses them.
    "complex object": (np.array([1j, 0, 0], dtype=object), InvalidInputError),
    "object": (_with_object([1.0, 0.0, 0.0], 0, [1, 0]), InvalidInputError),
    "ragged": ([[1.0, 2.0], 3.0], InvalidInputError),
    "bool": ([True, False, False], InvalidInputError),
    "bool entry": ([0.5, True, 0.0], InvalidInputError),
}
BAD_STATES = {
    "nan": ([NAN, 1.0, 0.0, 0.0], NotNormalizedError),
    "short": ([1.0, 0.0, 0.0], ValueError),
    "text": (["1", "0", "0", "0"], NotNormalizedError),
    "object": (_with_object([1, 0, 0, 0], 1, [1, 0]), NotNormalizedError),
    "huge": ([1e308] * 4, NotNormalizedError),  # the norm overflows to inf
    "bool": ([True, False, False, False], NotNormalizedError),
}

_ISO = HamiltonianSpec.isotropic()
_PLAN = wg.cnot_from_isotropic()

GATE_FNS = {
    "check_unitary": wg.check_unitary,
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
    "CircuitPlan times": lambda t: CircuitPlan(_PLAN.locals, t, _ISO),
}
# Two 4x4 matrices.
PAIR_FNS = {
    "commutator(a, .)": lambda a: wg.commutator(a, ISO_H),
    "commutator(., b)": lambda b: wg.commutator(ISO_H, b),
    "killing_form(a, .)": lambda a: wg.killing_form(a, ISO_H),
    "killing_form(., b)": lambda b: wg.killing_form(ISO_H, b),
}
BAD_SQUARE = {
    "nan": (_with(ISO_H, (0, 0), NAN), InvalidInputError),
    "inf": (_with(ISO_H, (1, 2), np.inf), InvalidInputError),
    "3x3": (np.eye(3), InvalidInputError),  # square, but not 4x4
    "4x3": (np.ones((4, 3)), InvalidInputError),
    "vector": (np.ones(4), InvalidInputError),
    "str": (np.eye(4).astype(str), InvalidInputError),
    "object": (_with_object(ISO_H, (0, 0), [1, 0]), InvalidInputError),
    "ragged": ([[1, 2], [3]], InvalidInputError),
    "bool": (np.eye(4, dtype=bool), InvalidInputError),
}
# A scalar that is not a finite real number.
BAD_SCALARS = {
    "nan": (NAN, InvalidInputError),
    "inf": (-np.inf, InvalidInputError),
    "text": ("0.1", InvalidInputError),
    "complex": (0.1j, InvalidInputError),
    "vector": ([0.1, 0.2], InvalidInputError),
    "none": (None, InvalidInputError),
    "bool": (True, InvalidInputError),
}
SCALAR_FNS = {
    "expm_i_hermitian t": lambda t: wg.expm_i_hermitian(ISO_H, t),
    "closed_form_invariants t": lambda t: wg.closed_form_invariants("xy", t),
    "josephson_invariants alpha_ratio": lambda a: wg.josephson_invariants(a, 1.0, 0.5),
    "exchange_coords jxx": lambda j: wg.exchange_coords(j, 1.0),
    "josephson_cnot_min_time e_l": lambda e: wg.josephson_cnot_min_time(e_l=e),
}
# A tolerance a caller passes: a finite real ≥ 0.
TOL_FNS = {
    "in_chamber tol": lambda tol: wg.in_chamber([1.0, 0.5, 0.2], tol=tol),
    "locally_equivalent tol": lambda tol: wg.locally_equivalent(CNOT, CNOT, tol=tol),
}
BAD_TOLS = {**BAD_SCALARS, "negative": (-1e-9, InvalidInputError)}
TEXT_FNS = {
    "named_gate": wg.named_gate,
    "parse_hamiltonian": wg.parse_hamiltonian,
}
BAD_TEXT = {
    "none": (None, InvalidInputError),
    "int": (3, InvalidInputError),
    "bytes": (b"cnot", InvalidInputError),
    "list": (["cnot"], InvalidInputError),
    "unknown": ("nonsense", InvalidInputError),
}
# A plan is a CircuitPlan; its locals, times and coupling are parsed when it is built.
PLAN_FNS = {
    "plan_unitary": wg.plan_unitary,
    "verify_plan": lambda p: wg.verify_plan(p, CNOT),
    "steps": wg.steps,
    "with_nonnegative_times": wg.with_nonnegative_times,
}
BAD_PLANS = {
    "text": ("x", InvalidInputError),
    "no plan": (None, InvalidInputError),
    "tuple": ((_PLAN.locals, _PLAN.times, _ISO), InvalidInputError),
}

# Every public entry the tables below take, by table key (see _table).
TABLED: dict = {}


def _table(fns, inputs):
    TABLED.update(fns)
    return [
        pytest.param(fn, bad, error, id=f"{name}-{kind}")
        for name, fn in fns.items()
        for kind, (bad, error) in inputs.items()
    ]


MALFORMED = (
    _table(GATE_FNS, BAD_GATES)
    + _table(HAMILTONIAN_FNS, BAD_HAMILTONIANS)
    + _table(SPEC_FNS, BAD_SPECS)
    + _table(COORD_FNS, BAD_COORDS)
    + _table({"trajectory times": lambda times: wg.trajectory(_ISO, times)}, BAD_TIMES)
    + _table(
        {"assemble_nonlocal": wg.assemble_nonlocal},
        {
            "nan": ([NAN] * 9, ValueError),
            "short": ([1.0] * 8, ValueError),
            "text": (["1"] * 9, InvalidInputError),
            "complex": (1j * np.ones(9), InvalidInputError),
            "bool": ([1.0] * 8 + [True], InvalidInputError),
        },
    )
    + _table({"ent": wg.ent}, BAD_STATES)
    + _table(PAIR_FNS, BAD_SQUARE)
    + _table(SCALAR_FNS, BAD_SCALARS)
    + _table(TOL_FNS, BAD_TOLS)
    + _table(TEXT_FNS, BAD_TEXT)
    + _table(
        {"parse_hamiltonian": wg.parse_hamiltonian},
        {
            "bad number": ("exchange(1,x)", InvalidInputError),
            "exchange(1)": ("exchange(1)", InvalidInputError),
            "josephson(1,2,3)": ("josephson(1,2,3)", InvalidInputError),
            "exchange(1,,0.5)": ("exchange(1,,0.5)", InvalidInputError),
            "exchange(,1,0.5)": ("exchange(,1,0.5)", InvalidInputError),
            "exchange(1,0.5,)": ("exchange(1,0.5,)", InvalidInputError),
            "josephson(1.2,)": ("josephson(1.2,)", InvalidInputError),
        },
    )
    + _table(
        {"named_gate": wg.named_gate},
        {"cu(1,2)": ("cu(1,2)", InvalidInputError), "cu(a,b,c)": ("cu(a,b,c)", InvalidInputError)},
    )
    + _table(
        {"josephson_cnot_min_time e_l": SCALAR_FNS["josephson_cnot_min_time e_l"]},
        {
            "zero": (0.0, InvalidInputError),
            # Positive, but t = q/(α²·E_L) or α²·E_L overflows.
            "5e-324": (5e-324, InvalidInputError),
            "1.7e308": (1.7e308, InvalidInputError),
        },
    )
    # A seed is an integer in [0, 2**128), and a bool is not one.
    + _table(
        {"pe_fraction_mc seed": lambda seed: wg.pe_fraction_mc(10, seed)},
        {
            "negative": (-1, InvalidInputError),
            "float": (1.5, InvalidInputError),
            "bool": (True, InvalidInputError),
            "2**128": (2**128, InvalidInputError),
        },
    )
    + _table(PLAN_FNS, BAD_PLANS)
    + _table(
        {"CircuitPlan locals": lambda locals_: CircuitPlan(locals_, _PLAN.times, _ISO)},
        {
            "3x3": ((np.eye(3),) * 4, InvalidInputError),
            "text": ((np.eye(4).astype(str),) * 4, InvalidInputError),
            "three": (_PLAN.locals[:3], InvalidInputError),
            "five": (_PLAN.locals + (np.eye(4),), InvalidInputError),
            "nan": ((_with(CNOT, (0, 0), NAN),) * 4, InvalidInputError),
            "ragged": ((np.eye(4),) * 3 + (np.eye(3),), InvalidInputError),
            "bool": ((np.eye(4, dtype=bool),) * 4, InvalidInputError),
        },
    )
)

# Public callables that no bad-input table takes, each with the reason.
EXEMPT = {
    "cnot_from_isotropic": "takes no argument",
    "generator_basis": "takes no argument",
    "pe_volume_exact": "takes no argument",
    "invariant_distance": "takes two LocalInvariants that the library built",
    "kak_reconstruct": "takes a KakDecomposition that the library built",
    **dict.fromkeys(
        (
            "CartanTarget",
            "HamiltonianSplit",
            "JosephsonCnot",
            "KakDecomposition",
            "LocalFactors",
            "LocalInvariants",
            "MSpectrum",
            "PeVerdict",
            "Trajectory",
            "TrajectorySample",
            "VolumeReport",
        ),
        "a result record that the library builds",
    ),
    **{
        name: "an error class: raised, never called with input"
        for name in wg.__all__
        if isinstance(getattr(wg, name), type) and issubclass(getattr(wg, name), WeylgateError)
    },
}


@pytest.mark.parametrize("fn, bad, error", MALFORMED)
def test_malformed_input_raises_typed_error(fn, bad, error):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error) as info:
            fn(bad)
    # NumPy's LinAlgError is a ValueError too; the library must not let one out.
    assert not isinstance(info.value, np.linalg.LinAlgError), info.value


@pytest.mark.parametrize("fn", SPEC_FNS.values(), ids=SPEC_FNS.keys())
def test_a_matrix_is_not_a_coupling(fn):
    # The one accepted form is a spec; the error names the one that takes a matrix.
    with pytest.raises(InvalidInputError, match=r"HamiltonianSpec\.custom"):
        fn(ISO_H)


@pytest.mark.parametrize("fn, bad, error", _table(SPEC_FNS, BAD_SPECS))
def test_malformed_spec_raises_on_every_call(fn, bad, error):
    # A spec keeps what it derives, but not a failure.
    for _ in range(2):
        with pytest.raises(error):
            fn(bad)


@pytest.mark.parametrize("fn, bad, error", [p for p in MALFORMED if p.values[2] is ValueError])
def test_value_error_rows_are_invalid_input(fn, bad, error):
    # Shape faults, coordinates, coefficients or times that are not finite
    # reals, and a matrix where a spec is due raise the one typed class; it
    # is a ValueError too.
    with pytest.raises(InvalidInputError):
        fn(bad)


def _untabled(names, tabled, exempt) -> list[str]:
    """The callables among ``names`` (name -> object) that no table row calls
    and that ``exempt`` does not list.  A row calls the entry its key names by
    the key's leading identifier: the row is the entry, a function of the
    entry's class, or a lambda that reads the entry's name."""
    called = set()
    for key, fn in tabled.items():
        name = re.match(r"\w+", key).group()
        qual = getattr(fn, "__qualname__", "")
        if fn is names.get(name) or qual.split(".")[0] == name or name in fn.__code__.co_names:
            called.add(name)
    return sorted(n for n, obj in names.items() if callable(obj) and n not in called | set(exempt))


def test_untabled_finds_public_callables_without_a_row():
    def listed(x):
        return x

    def unlisted(x):
        return x

    names = {"listed": listed, "unlisted": unlisted, "by_lambda": abs, "mislabeled": len, "CONST": 1.0}
    tabled = {
        "listed": listed,
        "by_lambda x": lambda x: by_lambda(x),  # noqa: F821 - only its code is read
        "mislabeled": lambda x: listed(x),  # the key names an entry the row never calls
    }
    assert _untabled(names, tabled, {}) == ["mislabeled", "unlisted"]
    assert _untabled(names, tabled, {"unlisted": "why", "mislabeled": "why"}) == []


def test_every_public_callable_has_a_bad_input_row():
    names = {name: getattr(wg, name) for name in wg.__all__}
    assert set(EXEMPT) <= set(names)
    assert _untabled(names, TABLED, EXEMPT) == []


# The TOL_FNS calls with the default tolerance.
DEFAULT_TOL_CALLS = {
    "in_chamber tol": lambda: wg.in_chamber([1.0, 0.5, 0.2]),
    "locally_equivalent tol": lambda: wg.locally_equivalent(CNOT, CNOT),
}


@pytest.mark.parametrize("name", TOL_FNS)
def test_only_a_tolerance_the_caller_passes_is_parsed(monkeypatch, name):
    # The default is a constant the library trusts; parsing it would cost a
    # few microseconds on every call that keeps it.
    calls = []
    parse = linalg._as_real
    monkeypatch.setattr(linalg, "_as_real", lambda x, what: calls.append(what) or parse(x, what))
    DEFAULT_TOL_CALLS[name]()
    assert calls == []
    TOL_FNS[name](0.5)
    assert calls == ["tol"]


@pytest.mark.parametrize("n", [0, -3, 10.5, "10", None, True])
def test_pe_fraction_mc_needs_a_positive_integer(n):
    with pytest.raises(InvalidInputError):
        wg.pe_fraction_mc(n, 1)


def test_trajectory_of_no_times_is_empty():
    for times in ([], np.zeros(0)):
        table = wg.trajectory(_ISO, times)
        assert list(table) == []
        assert table.coords.shape == (0, 3)
        for column in (table.t, table.g1, table.g2, table.g2_imag_residual, table.is_pe):
            assert column.shape == (0,)


def test_short_coords_message():
    for fn in (wg.canonicalize, wg.coords_of_inverse, wg.cartan_element):
        with pytest.raises(ValueError, match="coords must be a length-3 vector"):
            fn([1, 2])


# ---------------------------------------------------------------------------
# One check per public matrix argument


@pytest.fixture
def checks(spy):
    """The calls of the gate check's core (run by check_unitary and by a memo miss of
    the record), check_hermitian and realize; with the memo cleared, each gate is a miss."""
    invariants._gate_of_bytes.cache_clear()
    yield spy("_check_unitary", "check_hermitian", "realize")
    invariants._gate_of_bytes.cache_clear()


_CUSTOM_H = wg.assemble_nonlocal([0.9, 0.1, -0.2, 0.3, 0.6, 0.0, 0.1, -0.4, 0.3])
_RNG = np.random.default_rng(7)
_U = rand_u4(_RNG)
_LOCAL = rand_local(_RNG)


# A spec keeps what it derives, so each counted call gets a spec no call has
# used yet.  The plain constructor builds a custom spec without checking it,
# so realizing it is its one Hermitian check.
def _iso():
    return HamiltonianSpec.isotropic()


def _custom():
    return HamiltonianSpec("custom", _custom_params(_CUSTOM_H))


def _plan():
    return CircuitPlan(_PLAN.locals, _PLAN.times, _iso())


def _negative_plan():
    return CircuitPlan(_PLAN.locals, (-1.0, 0.5, 0.0), _iso())


# name -> (call, expected counts); a spec is realized once, and realizing a
# custom spec is its one Hermitian check.
COUNT_CASES = {
    "local_invariants": (lambda: wg.local_invariants(_U), {"_check_unitary": 1}),
    "m_spectrum": (lambda: wg.m_spectrum(_U), {"_check_unitary": 1}),
    "gate_coords": (lambda: wg.gate_coords(_U), {"_check_unitary": 1}),
    "kak_decompose": (lambda: wg.kak_decompose(_U), {"_check_unitary": 1}),
    "is_local_gate": (lambda: wg.is_local_gate(_LOCAL), {"_check_unitary": 1}),
    "factor_local": (lambda: wg.factor_local(_LOCAL), {"_check_unitary": 1}),
    "is_perfect_entangler": (lambda: wg.is_perfect_entangler(_U), {"_check_unitary": 1}),
    "entangling_input": (lambda: wg.entangling_input(CNOT), {"_check_unitary": 1}),
    "locally_equivalent": (lambda: wg.locally_equivalent(_U, CNOT), {"_check_unitary": 2}),
    "expm_i_hermitian": (lambda: wg.expm_i_hermitian(ISO_H, 0.3), {"check_hermitian": 1}),
    "split_hamiltonian": (lambda: wg.split_hamiltonian(ISO_H), {"check_hermitian": 1}),
    "cartan_conjugate": (lambda: wg.cartan_conjugate(ISO_H), {"check_hermitian": 1}),
    "HamiltonianSpec.custom": (lambda: HamiltonianSpec.custom(ISO_H), {"check_hermitian": 1}),
    "realize(named)": (lambda: wg.realize(_iso()), {"realize": 1}),
    "realize(custom)": (lambda: wg.realize(_custom()), {"realize": 1, "check_hermitian": 1}),
    "trajectory(named)": (lambda: wg.trajectory(_iso(), np.linspace(0, 3, 7)), {"realize": 1}),
    "trajectory(custom)": (
        lambda: wg.trajectory(_custom(), np.linspace(0, 3, 7)),
        {"realize": 1, "check_hermitian": 1},
    ),
    "synthesize(named)": (lambda: wg.synthesize(_U, _iso()), {"_check_unitary": 1, "realize": 1}),
    "synthesize(custom)": (
        lambda: wg.synthesize(_U, _custom()),
        {"_check_unitary": 1, "realize": 1, "check_hermitian": 1},
    ),
    "plan_unitary": (lambda: wg.plan_unitary(_plan()), {"realize": 1}),
    # verify_plan checks its target and multiplies the plan out through the
    # public plan_unitary, which realizes the spec.
    "verify_plan": (lambda: wg.verify_plan(_plan(), CNOT), {"_check_unitary": 1, "realize": 1}),
    "fundamental_period": (lambda: wg.fundamental_period(_iso()), {"realize": 1}),
    "with_nonnegative_times": (lambda: wg.with_nonnegative_times(_negative_plan()), {"realize": 1}),
}

# name -> (spec factory, call on that spec, expected counts of a second call
# on the same spec object): the spec is checked by its first call only.
SECOND_CALL_CASES = {
    "trajectory": (_custom, lambda s: wg.trajectory(s, np.linspace(0, 3, 7)), {}),
    "synthesize(named)": (_iso, lambda s: wg.synthesize(_U, s), {"_check_unitary": 1}),
    "synthesize(custom)": (_custom, lambda s: wg.synthesize(_U, s), {"_check_unitary": 1}),
    "plan_unitary": (_custom, lambda s: wg.plan_unitary(CircuitPlan(_PLAN.locals, _PLAN.times, s)), {}),
    "verify_plan": (
        _custom,
        lambda s: wg.verify_plan(CircuitPlan(_PLAN.locals, _PLAN.times, s), CNOT),
        {"_check_unitary": 1},
    ),
    "fundamental_period": (_custom, wg.fundamental_period, {}),
    "with_nonnegative_times": (
        _iso,
        lambda s: wg.with_nonnegative_times(CircuitPlan(_PLAN.locals, (-1.0, 0.5, 0.0), s)),
        {},
    ),
}


@pytest.mark.parametrize("call, expected", COUNT_CASES.values(), ids=COUNT_CASES.keys())
def test_one_check_per_matrix_argument(checks, call, expected):
    call()
    assert checks.counts() == expected


@pytest.mark.parametrize(
    "make_spec, call, expected", SECOND_CALL_CASES.values(), ids=SECOND_CALL_CASES.keys()
)
def test_spec_checked_once_per_object(checks, make_spec, call, expected):
    spec = make_spec()
    call(spec)
    checks.clear()
    call(spec)
    assert checks.counts() == expected


STACK_CALLS = [
    lambda: wg.trajectory(_ISO, np.linspace(0, 3, 7)),
    lambda: _gate_coords(np.array([rand_u4(np.random.default_rng(k)) for k in range(5)])),
]


@pytest.mark.parametrize("call", STACK_CALLS, ids=["trajectory", "stacked _gate_coords"])
def test_one_fold_per_stack(spy, call):
    # A stack reads no KAK, so its coordinates are folded once, alone: no
    # _fold_element, which recovers the Weyl element and the translation, and
    # no canonicalize, which folds one triple at a time.
    folds = spy("_fold_element", "_fold_image", "canonicalize")
    call()
    assert folds.counts() == {"_fold_image": 1}


def test_one_fold_per_gate_for_coords_and_kak(spy):
    # gate_coords and kak_decompose share one gate's record: gate_coords
    # reads its image alone, and kak_decompose its fold, which recovers the
    # element and translation the KAK factors read from that same image.
    u = rand_u4(np.random.default_rng(2**40))
    invariants._gate_of_bytes.cache_clear()
    folds = spy("_fold_element", "_fold_image", "canonicalize")
    wg.gate_coords(u)
    assert folds.counts() == {"_fold_image": 1}
    wg.kak_decompose(u)
    invariants._gate_of_bytes.cache_clear()
    assert folds.counts() == {"_fold_image": 1, "_fold_element": 1}


@pytest.mark.parametrize(
    "call, expected",
    [
        # A two-body or Josephson flow within the certificate's reach forms no U(t).
        (STACK_CALLS[0], {}),
        (STACK_CALLS[1], {"_magic": 1, "_simdiag": 1}),
        (lambda: wg.trajectory(HamiltonianSpec.josephson(1.2), np.linspace(0, 3, 7)), {}),
    ],
    ids=["trajectory", "stacked _gate_coords", "trajectory josephson"],
)
def test_one_m_per_stack(spy, call, expected):
    # The spectrum and the invariant check read one record of the whole
    # stack: at most one magic transform for its m(U), and at most one joint
    # diagonalization.
    _ISO._generator.cartan  # derived once per spec, through a magic transform of its own
    calls = spy("_magic", "_simdiag")
    call()
    assert calls.counts() == expected


def test_library_built_matrices_are_not_rechecked(checks):
    # No matrix argument at all: every matrix here is built by the library.
    wg.josephson_cnot_min_time()
    wg.cnot_from_isotropic()
    assert len(checks["_check_unitary"]) == 0
    assert len(checks["check_hermitian"]) == 0


# ---------------------------------------------------------------------------
# Synthesis from random two-body generators

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
# Bad input of any shape, dtype and size: only WeylgateError escapes

_EXCHANGE = HamiltonianSpec.exchange(3.0, 1.0, 0.5, 0.2)
# name -> (entry, the shape it takes (None: any length), what it takes:
# "complex", "real", or a "hermitian" matrix)
ENTRIES = {
    **{f"gate {k}": (fn, (4, 4), "complex") for k, fn in GATE_FNS.items()},
    **{f"hamiltonian {k}": (fn, (4, 4), "hermitian") for k, fn in HAMILTONIAN_FNS.items()},
    # A spec function takes a matrix as the custom spec that wraps it.
    **{
        f"hamiltonian {k}": ((lambda fn: lambda h: fn(HamiltonianSpec.custom(h)))(fn), (4, 4), "hermitian")
        for k, fn in SPEC_FNS.items()
    },
    **{f"coords {k}": (fn, (3,), "real") for k, fn in COORD_FNS.items()},
    "coefficients assemble_nonlocal": (wg.assemble_nonlocal, (9,), "real"),
    "coefficients exchange": (lambda p: wg.realize(HamiltonianSpec("exchange", p)), (4,), "real"),
    "coefficients josephson": (lambda p: wg.realize(HamiltonianSpec("josephson", p)), (2,), "real"),
    "times": (lambda t: wg.trajectory(_EXCHANGE, t), (None,), "real"),
    "state": (wg.ent, (4,), "complex"),
    "matrix commutator": (lambda a: wg.commutator(a, a), (4, 4), "complex"),
    "matrix killing_form": (lambda a: wg.killing_form(a, a), (4, 4), "complex"),
    "matrix plan local": (
        lambda k: wg.plan_unitary(CircuitPlan((k,) * 4, _PLAN.times, _ISO)),
        (4, 4),
        "complex",
    ),
}
# list: an object array with one entry that is not a number.
_DTYPES = (bool, int, np.float32, float, np.complex64, complex, object, list, str)
_SHAPE_FAULTS = ("0-d", "ragged", "extra axis", "stack", "wrong length")
# (what differs from a well-formed argument, how): half the draws differ in
# their values alone, so that huge and tiny values reach the math behind
# the parse; the others in dtype or in shape.
_FAULTS = (
    (("values", None),) * 13
    + tuple(("dtype", d) for d in _DTYPES)
    + tuple(("shape", m) for m in _SHAPE_FAULTS)
)
# NaN, ±inf, and magnitudes from 1e-300 to 1e308.
_VALUES = (NAN, np.inf, -np.inf, 0.0, 1e-300, -1e-150, 1e-9, 0.5, -1.0, 1.7, 1e10)
_VALUES += (-1e100, 1e154, -1e200, 1e300, 1.7e308, -1e308)


@st.composite
def _argument(draw, shape, takes):
    """An argument for an entry that takes ``shape`` and ``takes``, whether
    its shape is one the entry takes, and whether the parse must reject it."""
    fault, how = draw(st.sampled_from(_FAULTS))
    taken = tuple(draw(st.integers(1, 4)) if k is None else k for k in shape)
    dims = {
        "0-d": (),
        "extra axis": taken + (1,),
        "stack": (2,) + taken,
        "wrong length": taken[:-1] + (taken[-1] + 1,),
    }.get(how, taken)
    # Entries from a few drawn values, placed by a seeded generator.
    pool = draw(st.lists(st.sampled_from(_VALUES), min_size=1, max_size=4))
    re, im = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).choice(pool, (2, *dims))
    dtype = how if fault == "dtype" else float if takes == "real" else complex
    with np.errstate(all="ignore"):  # casting NaN to int, for one
        if takes == "hermitian" and fault != "shape":
            re = np.triu(re) + np.triu(re, 1).T
            im = np.triu(im, 1) - np.triu(im, 1).T
        x = np.asarray(re).astype(object if dtype is list else dtype)
        if x.dtype.kind == "c":
            x.imag = im
        # Text, bools, a list entry, complex for reals, and NaN or ±inf: never well-formed.
        malformed = dtype in (bool, str, list) or x.dtype.kind == "c" and takes == "real"
        malformed |= x.dtype.kind in "fcO" and not np.isfinite(x.astype(complex)).all()
    if dtype is list:
        x[(0,) * x.ndim] = [1, 0]
    if how == "ragged":
        flat = x.ravel().tolist()
        x = [flat[:1], flat[:1] * 2]
    fits = how != "ragged" and len(dims) == len(shape) and all(k in (None, d) for k, d in zip(shape, dims))
    return x, fits, malformed


@pytest.mark.parametrize("entry, shape, takes", ENTRIES.values(), ids=ENTRIES.keys())
@pytest.mark.parametrize("size", [1e308, -1e308, 1e-300])
def test_extreme_finite_arguments_raise_only_typed_errors(entry, shape, takes, size):
    # Finite and well-formed but for their size: the math behind the parse
    # overflows (or underflows) and must say so with a typed error.
    x = np.full(tuple(3 if k is None else k for k in shape), size)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            entry(x)
        except WeylgateError:
            pass


@pytest.mark.parametrize("entry, shape, takes", ENTRIES.values(), ids=ENTRIES.keys())
def test_bad_input_raises_only_typed_errors(entry, shape, takes):
    # Warnings are errors; a malformed argument raises, and one of a shape
    # the entry does not take raises InvalidInputError.
    @settings(PROPERTY, max_examples=10)
    @given(_argument(shape, takes))
    def check(arg):
        x, fits, malformed = arg
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                entry(x)
            except WeylgateError as exc:
                assert fits or isinstance(exc, InvalidInputError), repr(exc)
            else:
                assert fits and not malformed, x

    check()


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
        (np.eye(3), "InvalidInputError"),
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


@pytest.mark.parametrize(
    "argv",
    [
        ["trajectory", "isotropic", "--t-max", "nan"],
        ["trajectory", "isotropic", "--t-max", "inf"],
        # A negative bound reported a gate as not equivalent to itself.
        ["equiv", "cnot", "cnot", "--equiv-tol", "-1"],
        ["equiv", "cnot", "cnot", "--equiv-tol", "nan"],
    ],
    ids=lambda argv: f"{argv[-2][2:]}={argv[-1]}",
)
def test_cli_rejects_a_bad_option(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "InvalidInputError"
