"""Local-invariant pair and the spectrum of m(U)."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import assert_m_frame, rand_local, rand_u4
from weylgate import (
    canonical_gate,
    invariant_distance,
    invariants_from_coords,
    local_invariants,
    locally_equivalent,
    m_spectrum,
    named_gate,
)
from weylgate.invariants import _Gate

# Frozen oracle: (g1, g2) for the named gates.
NAMED_INVARIANTS = {
    "identity": (1.0 + 0.0j, 3.0),
    "cnot": (0.0 + 0.0j, 1.0),
    "cz": (0.0 + 0.0j, 1.0),
    "swap": (-1.0 + 0.0j, -3.0),
    "sqrtswap": (0.25j, 0.0),
    "sqrtswap_inv": (-0.25j, 0.0),
    "iswap": (0.0 + 0.0j, -1.0),
}


def test_named_gate_invariants():
    for name, (g1, g2) in NAMED_INVARIANTS.items():
        inv = local_invariants(named_gate(name))
        assert abs(inv.g1 - g1) < 1e-10, name
        assert abs(inv.g2 - g2) < 1e-10, name
        assert inv.g2_imag_residual < 1e-10, name


def test_controlled_phase_family():
    # A controlled single-qubit rotation of angle γ sits at (cos²γ, 2cos²γ+1).
    for gamma in np.linspace(0.1, np.pi / 2, 12):
        u = named_gate(f"cu({gamma},0,0)")
        inv = local_invariants(u)
        assert abs(inv.g1 - np.cos(gamma) ** 2) < 1e-12
        assert abs(inv.g2 - (2.0 * np.cos(gamma) ** 2 + 1.0)) < 1e-12


def test_invariance_under_local_dressing():
    rng = np.random.default_rng(21)
    for _ in range(50):
        u = rand_u4(rng)
        base = local_invariants(u)
        dressed = local_invariants(rand_local(rng) @ u @ rand_local(rng))
        assert abs(base.g1 - dressed.g1) < 1e-10
        assert abs(base.g2 - dressed.g2) < 1e-10


def test_invariance_under_global_phase():
    rng = np.random.default_rng(22)
    u = rand_u4(rng)
    base = local_invariants(u)
    shifted = local_invariants(np.exp(0.37j) * u)
    assert abs(base.g1 - shifted.g1) < 1e-12
    assert abs(base.g2 - shifted.g2) < 1e-12


def test_closed_form_matches_gate_invariants():
    rng = np.random.default_rng(23)
    for _ in range(50):
        c = np.sort(rng.uniform(0, np.pi, size=3))[::-1]
        if c[0] + c[1] > np.pi:
            continue
        inv_gate = local_invariants(canonical_gate(c))
        inv_form = invariants_from_coords(c)
        assert abs(inv_gate.g1 - inv_form.g1) < 1e-12
        assert abs(inv_gate.g2 - inv_form.g2) < 1e-12


def test_m_matrix_symmetric_unitary():
    rng = np.random.default_rng(24)
    u = rand_u4(rng)
    m = _Gate(u).m
    assert_allclose(m, m.T, atol=1e-12)
    assert_allclose(m @ m.conj().T, np.eye(4), atol=1e-12)


def test_m_spectrum_reconstruction():
    rng = np.random.default_rng(25)
    for _ in range(20):
        u = rand_u4(rng)
        spec = m_spectrum(u)
        # Balanced phases sum to zero and stay within one winding of the
        # principal branch values.
        assert abs(np.sum(spec.theta_balanced)) < 1e-9
        assert np.max(np.abs(spec.theta_balanced - spec.theta)) <= 2 * np.pi + 1e-9
        assert_m_frame(u)


def test_locally_equivalent_named_pairs():
    rng = np.random.default_rng(26)
    cnot = named_gate("cnot")
    assert locally_equivalent(cnot, named_gate("cz"))
    assert locally_equivalent(cnot, rand_local(rng) @ cnot @ rand_local(rng))
    assert not locally_equivalent(cnot, named_gate("swap"))
    assert not locally_equivalent(named_gate("identity"), named_gate("iswap"))


def test_invariant_distance_properties():
    a = local_invariants(named_gate("cnot"))
    b = local_invariants(named_gate("swap"))
    assert invariant_distance(a, a) == 0.0
    assert invariant_distance(a, b) == invariant_distance(b, a)
    assert invariant_distance(a, b) > 1.0
