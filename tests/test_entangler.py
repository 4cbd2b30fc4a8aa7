"""Entanglement functional, perfect-entangler tests, witnesses, volumes."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import rand_chamber_point, rand_local, rand_su2, rand_u4
from weylgate import (
    NotNormalizedError,
    NotPerfectEntanglerError,
    P_ENT,
    canonical_gate,
    canonicalize,
    ent,
    entangling_input,
    gate_coords,
    is_perfect_entangler,
    kron2,
    named_gate,
    pe_fraction_mc,
    pe_from_coords,
    pe_volume_exact,
)

PI = np.pi


def test_ent_known_states():
    assert abs(ent([1, 0, 0, 0])) < 1e-15  # |00>
    bell = np.array([1, 0, 0, 1]) / np.sqrt(2)
    assert_allclose(ent(bell), 0.5, atol=1e-15)
    singlet = np.array([0, 1, -1, 0]) / np.sqrt(2)
    assert_allclose(ent(singlet), 0.5, atol=1e-15)


def test_ent_product_states_vanish():
    rng = np.random.default_rng(51)
    for _ in range(20):
        a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        psi = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
        assert abs(ent(psi)) < 1e-12


def test_ent_magnitude_local_invariant():
    rng = np.random.default_rng(52)
    psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    psi /= np.linalg.norm(psi)
    k = kron2(rand_su2(rng), rand_su2(rng))
    assert abs(abs(ent(k @ psi)) - abs(ent(psi))) < 1e-12


def test_ent_rejects_unnormalized():
    with pytest.raises(NotNormalizedError):
        ent([1.0, 1.0, 0.0, 0.0])


def test_named_gate_verdicts():
    assert is_perfect_entangler(named_gate("cnot")).is_pe
    assert is_perfect_entangler(named_gate("cz")).is_pe
    assert is_perfect_entangler(named_gate("iswap")).is_pe
    assert is_perfect_entangler(named_gate("sqrtswap")).is_pe  # boundary vertex
    assert is_perfect_entangler(named_gate("sqrtswap_inv")).is_pe
    assert not is_perfect_entangler(named_gate("identity")).is_pe
    assert not is_perfect_entangler(named_gate("swap")).is_pe


def test_interior_margin_positive():
    # Midpoint of the segment from the cnot class to the iswap class lies
    # strictly inside the polyhedron.
    u = canonical_gate([PI / 2, PI / 4, 0.0])
    verdict = is_perfect_entangler(u)
    assert verdict.is_pe
    assert verdict.margin > 0.05
    assert verdict.weights is not None
    assert abs(np.sum(verdict.weights) - 1.0) < 1e-9
    assert np.all(verdict.weights >= -1e-12)


def test_polyhedron_from_coords():
    assert pe_from_coords([PI / 2, 0.0, 0.0])
    assert pe_from_coords([PI / 4, PI / 4, PI / 4])  # vertex
    assert not pe_from_coords([PI / 5, 0.0, 0.0])
    assert not pe_from_coords([PI / 2, PI / 2, PI / 2])  # swap corner
    # Non-canonical input is reduced first.
    assert pe_from_coords([PI / 2 + PI, 0.0, 0.0])


def test_formulations_agree_on_random_gates():
    rng = np.random.default_rng(53)
    checked = 0
    for _ in range(300):
        c = rand_chamber_point(rng)
        margin = min(
            c[0] + c[1] - PI / 2, PI / 2 - (c[1] + c[2]), PI / 2 - (c[0] - c[1])
        )
        if abs(margin) < 1e-6:
            continue
        u = rand_local(rng) @ canonical_gate(c) @ rand_local(rng)
        verdict = is_perfect_entangler(u)
        expected = margin > 0
        assert verdict.is_pe == expected
        assert (verdict.margin > 0) == expected
        assert pe_from_coords(c) == expected
        checked += 1
    assert checked > 250


def test_witness_states():
    rng = np.random.default_rng(54)
    for name in ("cnot", "iswap", "sqrtswap"):
        u = rand_local(rng) @ named_gate(name) @ rand_local(rng)
        psi_in, psi_out = entangling_input(u)
        assert_allclose(np.linalg.norm(psi_in), 1.0, atol=1e-12)
        assert abs(ent(psi_in)) < 1e-9
        assert abs(abs(ent(psi_out)) - 0.5) < 1e-9
        assert_allclose(psi_out, u @ psi_in, atol=1e-12)


def test_witness_requires_perfect_entangler():
    with pytest.raises(NotPerfectEntanglerError):
        entangling_input(named_gate("swap"))


def test_exact_volumes():
    report = pe_volume_exact()
    assert_allclose(report.chamber, PI**3 / 24, atol=1e-12)
    assert_allclose(report.perfect_entanglers, PI**3 / 48, atol=1e-12)
    assert_allclose(report.fraction, 0.5, atol=1e-12)
    # The three complement corners: two congruent tetrahedra and the middle
    # piece, which together make up the other half of the chamber.
    corners = report.corner_l_q_p_o + report.corner_n_p_a2_a3 + report.corner_l_m_n_a1
    assert_allclose(corners, PI**3 / 48, atol=1e-12)
    assert_allclose(report.corner_l_q_p_o, PI**3 / 192, atol=1e-12)
    assert_allclose(report.corner_n_p_a2_a3, PI**3 / 96, atol=1e-12)
    assert_allclose(report.corner_l_m_n_a1, PI**3 / 192, atol=1e-12)


def test_mc_fraction_frozen():
    # Deterministic counter-based stream: exact value is reproducible.
    assert pe_fraction_mc(200_000, 7) == pytest.approx(0.498855, abs=1e-12)


def test_mc_fraction_converges():
    assert abs(pe_fraction_mc(400_000, 99) - 0.5) < 0.005


def test_boundary_named_gates_report_nonnegative_margin():
    # These classes sit on the polyhedron's boundary, where the margin is 0;
    # it must not come out negative while the verdict says True.
    for name in ("cnot", "cz", "iswap", "sqrtswap", "sqrtswap_inv"):
        verdict = is_perfect_entangler(named_gate(name))
        assert verdict.is_pe
        assert verdict.margin >= 0.0


def test_margin_is_builtin_float():
    # np.float64 subclasses float, so isinstance would not tell them apart.
    assert type(is_perfect_entangler(named_gate("identity")).margin) is float
