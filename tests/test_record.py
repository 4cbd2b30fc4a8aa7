"""One derivation record per gate.

The single-gate analyses read one record per checked gate, kept in a small
memo: U_B, m(U) and det U, and on first use the spectrum, the fold and the
perfect-entangler verdict.  A warm call must give exactly
what a cold one gives, nothing a caller does to its arrays may reach the
record, the README sequence checks the gate and derives each part once, a
gate the check rejects is rejected on every call, and the stacked paths
never touch the memo.
"""

from dataclasses import fields, is_dataclass

import numpy as np
import pytest

import weylgate as wg
from conftest import rand_u4
from weylgate import entangler, invariants
from weylgate.chamber import (
    VERTEX_A1,
    VERTEX_A2,
    VERTEX_A3,
    VERTEX_L,
    VERTEX_M,
    VERTEX_N,
    VERTEX_O,
    VERTEX_P,
    VERTEX_Q,
    _gate_coords,
)
from weylgate.errors import ConvergenceError, NotUnitaryError

NAMED = ["identity", "cnot", "cz", "swap", "sqrtswap", "sqrtswap_inv", "iswap"]
VERTICES = {
    "O": VERTEX_O, "A1": VERTEX_A1, "A2": VERTEX_A2, "A3": VERTEX_A3, "L": VERTEX_L,
    "M": VERTEX_M, "N": VERTEX_N, "P": VERTEX_P, "Q": VERTEX_Q,
}


def _gates() -> dict:
    rng = np.random.default_rng(90)
    gates = {f"haar{k}": np.exp(2j * np.pi * rng.random()) * rand_u4(rng) for k in range(8)}
    gates.update((name, wg.named_gate(name)) for name in NAMED)
    gates.update((name, wg.canonical_gate(c)) for name, c in VERTICES.items())
    return gates


GATES = _gates()

# Every single-gate public function that reads the record.
READERS = {
    "local_invariants": wg.local_invariants,
    "m_spectrum": wg.m_spectrum,
    "gate_coords": wg.gate_coords,
    "kak_decompose": wg.kak_decompose,
    "is_perfect_entangler": wg.is_perfect_entangler,
    "entangling_input": wg.entangling_input,
}


def _outcome(fn, u):
    """fn(u), or the type and message of what it raised."""
    try:
        return fn(u)
    except wg.WeylgateError as exc:
        return type(exc), str(exc)


def readme_sequence(u):
    """The analyses of the README quick start on one gate."""
    return [
        _outcome(wg.gate_coords, u),
        _outcome(wg.local_invariants, u),
        _outcome(wg.kak_decompose, u),
        _outcome(wg.is_perfect_entangler, u),
        _outcome(wg.entangling_input, u),
    ]


def assert_identical(a, b):
    """Bit-identical results: arrays by value and dtype, dataclasses field by
    field, sequences item by item."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        assert isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b, strict=True)
    elif is_dataclass(a):
        assert type(a) is type(b)
        for f in fields(a):
            assert_identical(getattr(a, f.name), getattr(b, f.name))
    elif isinstance(a, (tuple, list)):
        assert type(a) is type(b) and len(a) == len(b)
        for x, y in zip(a, b):
            assert_identical(x, y)
    else:
        assert a == b and type(a) is type(b)


@pytest.fixture
def cold():
    """The memo cleared before the test and after it."""
    invariants._gate_of_bytes.cache_clear()
    yield
    invariants._gate_of_bytes.cache_clear()


@pytest.mark.parametrize("name", READERS)
@pytest.mark.parametrize("gate", GATES, ids=str)
def test_cold_and_warm_calls_are_bit_identical(cold, name, gate):
    u = GATES[gate]
    first = _outcome(READERS[name], u)
    readme_sequence(u)
    assert invariants._gate_of_bytes.cache_info().currsize == 1
    assert_identical(first, _outcome(READERS[name], u))


def test_memo_is_bounded(cold):
    rng = np.random.default_rng(91)
    for _ in range(invariants._RECORDS + 3):
        wg.local_invariants(rand_u4(rng))
    assert invariants._gate_of_bytes.cache_info().currsize == invariants._RECORDS


def test_record_arrays_are_read_only(cold):
    g = invariants._gate(wg.check_unitary(GATES["haar0"]))
    verdict = invariants._keep(g, entangler._verdict)[0]
    arrays = [g.u, g.ub, g.m, g.spectrum.theta, g.spectrum.theta_balanced, g.spectrum.frame, g.raw, *g.fold]
    arrays += [verdict.phases, verdict.weights]
    assert not any(a.flags.writeable for a in arrays)


def test_mutating_the_input_after_a_call_changes_nothing_kept(cold):
    u, v = GATES["haar1"].copy(), GATES["haar2"]
    before = readme_sequence(u)
    u[...] = v  # the same array object, now another gate
    assert_identical(readme_sequence(u), readme_sequence(v.copy()))
    assert_identical(readme_sequence(GATES["haar1"].copy()), before)


@pytest.mark.parametrize("gate", ["haar3", "cnot", "sqrtswap"])
def test_writing_to_returned_arrays_changes_no_later_result(cold, gate):
    u = GATES[gate]
    before = readme_sequence(u) + [wg.m_spectrum(u)]
    s = wg.m_spectrum(u)
    c = wg.gate_coords(u)
    d = wg.kak_decompose(u)
    v = wg.is_perfect_entangler(u)
    psi_in, psi_out = wg.entangling_input(u)
    arrays = (s.theta, s.theta_balanced, s.frame, c, d.coords, d.k1, d.k2, d.a_factor)
    for a in arrays + (v.phases, v.weights, psi_in, psi_out):
        assert a.flags.writeable  # a fresh array, the caller's own
        a[...] = 7.0
    assert_identical(readme_sequence(u) + [wg.m_spectrum(u)], before)


@pytest.mark.parametrize("gate", ["haar4", "cnot", "sqrtswap", "iswap"])
def test_readme_sequence_derives_once_per_gate(cold, spy, gate):
    shapes = spy("_check_unitary", "_magic", "_simdiag", "_fold_image", "_fold_element", "_verdict")
    readme_sequence(GATES[gate])
    assert dict(shapes) == {
        "_check_unitary": [(4, 4)],
        # One magic transform of the gate, for U_B and m(U); the other is the
        # record of the stacked KAK factors k1, k2 for their locality check.
        "_magic": [(4, 4), (2, 4, 4)],
        "_simdiag": [(4, 4)],
        "_fold_image": [(3,)],
        "_fold_element": [(3,)],
        "_verdict": [()],  # its argument is the gate's record, which has no shape
    }


@pytest.mark.parametrize("gate", ["haar4", "cnot", "sqrtswap", "iswap"])
def test_gate_coords_alone_recovers_no_weyl_element(cold, spy, gate):
    # gate_coords reads the record's image; the element and translation of
    # the fold are kak_decompose's, derived when it asks, from that image.
    shapes = spy("_fold_image", "_fold_element")
    wg.gate_coords(GATES[gate])
    wg.gate_coords(GATES[gate])
    assert dict(shapes) == {"_fold_image": [(3,)]}
    wg.kak_decompose(GATES[gate])
    assert dict(shapes) == {"_fold_image": [(3,)], "_fold_element": [(3,)]}


@pytest.mark.parametrize("name", READERS)
def test_a_non_unitary_gate_is_rejected_on_every_call(cold, name):
    u = 1.001 * GATES["haar0"]
    for _ in range(3):
        with pytest.raises(NotUnitaryError):
            READERS[name](u)
    assert invariants._gate_of_bytes.cache_info().currsize == 0


@pytest.mark.parametrize("name", READERS)
def test_a_gate_near_a_memoized_one_is_checked(cold, name):
    u = GATES["cnot"]
    readme_sequence(u)
    near = u.copy()
    near[0, 1] += 1e-6  # other bytes: a memo miss, and the check fails it
    with pytest.raises(NotUnitaryError):
        READERS[name](near)
    assert invariants._gate_of_bytes.cache_info().currsize == 1


STACK_CALLS = {
    "trajectory": lambda: wg.trajectory(wg.HamiltonianSpec.isotropic(), np.linspace(0, 3, 7)),
    "stacked _gate_coords": lambda: _gate_coords(np.array(list(GATES.values()))),
}


@pytest.mark.parametrize("call", STACK_CALLS.values(), ids=STACK_CALLS.keys())
def test_stacked_paths_bypass_the_memo(cold, call):
    wg.local_invariants(GATES["haar5"])
    before = invariants._gate_of_bytes.cache_info()
    call()
    assert invariants._gate_of_bytes.cache_info() == before


def test_a_failed_derivation_is_not_kept(cold, monkeypatch):
    u = GATES["haar6"]
    expected = wg.m_spectrum(u)
    invariants._gate_of_bytes.cache_clear()
    simdiag = invariants._simdiag
    calls = []

    def fails_once(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise ConvergenceError("injected")
        return simdiag(*args, **kwargs)

    monkeypatch.setattr(invariants, "_simdiag", fails_once)
    with pytest.raises(ConvergenceError, match="injected"):
        wg.m_spectrum(u)
    assert_identical(wg.m_spectrum(u), expected)
    assert len(calls) == 2
