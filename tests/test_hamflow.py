"""Coordinate flows generated by two-body Hamiltonians."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from weylgate import (
    HamiltonianSpec,
    PAULIS,
    cartan_element,
    closed_form_invariants,
    exchange_coords,
    expm_i_hermitian,
    gate_coords,
    josephson_cnot_min_time,
    josephson_invariants,
    kron2,
    local_invariants,
    parse_hamiltonian,
    realize,
    split_hamiltonian,
    trajectory,
)

PI = np.pi


def test_realize_isotropic():
    h = realize(HamiltonianSpec.isotropic())
    assert_allclose(h, cartan_element([0.5, 0.5, 0.5]), atol=1e-15)
    assert_allclose(h, h.conj().T, atol=1e-15)


def test_realize_xy_and_ising():
    assert_allclose(realize(HamiltonianSpec.xy()), cartan_element([0.5, 0.5, 0.0]), atol=1e-15)
    assert_allclose(realize(HamiltonianSpec.ising()), cartan_element([0.0, 0.0, 0.5]), atol=1e-15)


def test_realize_exchange():
    h = realize(HamiltonianSpec.exchange(1.0, 0.5, 0.2, -0.1))
    s = split_hamiltonian(h)
    assert_allclose(s.nonlocal_coeffs[0], 1.0, atol=1e-15)  # xx
    assert_allclose(s.nonlocal_coeffs[1], 0.2, atol=1e-15)  # xy
    assert_allclose(s.nonlocal_coeffs[3], -0.1, atol=1e-15)  # yx
    assert_allclose(s.nonlocal_coeffs[4], 0.5, atol=1e-15)  # yy
    assert s.local_norm == 0.0


def test_realize_josephson():
    alpha, e_l = 1.2, 1.0
    h = realize(HamiltonianSpec.josephson(alpha, e_l))
    sx, sy = PAULIS["x"], PAULIS["y"]
    expected = -(alpha * e_l / 2.0) * (kron2(sx, np.eye(2)) + kron2(np.eye(2), sx))
    expected = expected + alpha**2 * e_l * kron2(sy, sy)
    assert_allclose(h, expected, atol=1e-13)


def test_realize_custom_roundtrip():
    rng = np.random.default_rng(61)
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = z + z.conj().T
    spec = HamiltonianSpec.custom(h)
    assert_allclose(realize(spec), h, atol=1e-12)


def test_parse_hamiltonian():
    assert parse_hamiltonian("isotropic").kind == "isotropic"
    assert parse_hamiltonian("heisenberg").kind == "isotropic"
    assert parse_hamiltonian("xy").kind == "xy"
    assert parse_hamiltonian("ising").kind == "ising"
    spec = parse_hamiltonian("exchange(1, 0.5)")
    assert spec.kind == "exchange"
    assert spec.params[:2] == (1.0, 0.5)
    spec = parse_hamiltonian("josephson(1.2)")
    assert spec.kind == "josephson"
    with pytest.raises(ValueError):
        parse_hamiltonian("donuts")


def test_isotropic_coordinate_flow():
    # Straight line along the chamber diagonal, then the reflected branch
    # back toward the swap-inverse wall.
    spec = HamiltonianSpec.isotropic()
    for t in np.linspace(0.05, PI - 0.05, 8):
        sample = trajectory(spec, [t])[0]
        assert_allclose(sample.coords, [t / 2, t / 2, t / 2], atol=1e-8)
    for t in np.linspace(PI + 0.05, 2 * PI - 0.05, 6):
        sample = trajectory(spec, [t])[0]
        assert_allclose(sample.coords, [t / 2, PI - t / 2, PI - t / 2], atol=1e-8)


def test_trajectory_samples_carry_invariants_and_pe():
    spec = HamiltonianSpec.isotropic()
    samples = trajectory(spec, np.linspace(0.0, PI, 9))
    assert samples[0].is_pe is False
    mid = samples[4]  # t = π/2: the square-root-of-swap class, a PE vertex
    assert mid.is_pe is True
    assert abs(mid.invariants.g1 - 0.25j) < 1e-9
    assert samples[-1].is_pe is False  # swap class


def test_closed_form_isotropic():
    h = realize(HamiltonianSpec.isotropic())
    for t in np.linspace(0.0, 2 * PI, 25):
        inv = closed_form_invariants("isotropic", t)
        ref = local_invariants(expm_i_hermitian(h, t))
        assert abs(inv.g1 - ref.g1) < 1e-10
        assert abs(inv.g2 - ref.g2) < 1e-10


def test_closed_form_xy():
    h = realize(HamiltonianSpec.xy())
    for t in np.linspace(0.0, 2 * PI, 25):
        inv = closed_form_invariants("xy", t)
        ref = local_invariants(expm_i_hermitian(h, t))
        assert abs(inv.g1 - (np.cos(t / 2) ** 4)) < 1e-12
        assert abs(inv.g1 - ref.g1) < 1e-10
        assert abs(inv.g2 - ref.g2) < 1e-10


def test_closed_form_ising():
    h = realize(HamiltonianSpec.ising())
    for t in np.linspace(0.0, 2 * PI, 25):
        inv = closed_form_invariants("ising", t)
        ref = local_invariants(expm_i_hermitian(h, t))
        assert abs(inv.g1 - np.cos(t / 2) ** 2) < 1e-12
        assert abs(inv.g2 - (2.0 + np.cos(t))) < 1e-12
        assert abs(inv.g1 - ref.g1) < 1e-10
        assert abs(inv.g2 - ref.g2) < 1e-10


def test_closed_form_unknown_kind():
    with pytest.raises(ValueError):
        closed_form_invariants("exchange", 1.0)


def test_exchange_coords_closed_form():
    rng = np.random.default_rng(62)
    for _ in range(15):
        jxx, jyy, jxy, jyx = rng.uniform(-0.8, 0.8, size=4)
        c = exchange_coords(jxx, jyy, jxy, jyx)
        r1 = np.hypot(jxx + jyy, jxy - jyx)
        r2 = np.hypot(jxx - jyy, jxy + jyx)
        assert_allclose(c, [(r1 + r2) / 2, abs(r1 - r2) / 2, 0.0], atol=1e-12)
        # Cross-check against the actual flow at t = 1.
        h = realize(HamiltonianSpec.exchange(jxx, jyy, jxy, jyx))
        from weylgate import canonicalize

        assert_allclose(gate_coords(expm_i_hermitian(h, 1.0)), canonicalize(c), atol=1e-8)


def test_josephson_invariants_match_matrix():
    alpha, e_l = 1.3, 1.0
    h = realize(HamiltonianSpec.josephson(alpha, e_l))
    for t in np.linspace(0.0, 4.0, 21):
        inv = josephson_invariants(alpha, e_l, t)
        ref = local_invariants(expm_i_hermitian(h, t))
        assert abs(inv.g1 - ref.g1) < 1e-9
        assert abs(inv.g2 - ref.g2) < 1e-9


def test_josephson_flow_stays_on_chamber_base():
    spec = HamiltonianSpec.josephson(1.2, 1.0)
    for sample in trajectory(spec, np.linspace(0.0, 3.0, 16)):
        assert abs(sample.coords[2]) < 1e-8


def test_josephson_cnot_min_time_frozen():
    result = josephson_cnot_min_time()
    assert abs(result.alpha_ratio - 1.199151) < 1e-5
    assert abs(result.t - 2.730939) < 1e-5
    assert result.pulse_index == 5
    assert abs(result.invariants.g1) < 1e-6
    assert abs(result.invariants.g2 - 1.0) < 1e-6


def test_josephson_cnot_scales_with_energy():
    fast = josephson_cnot_min_time(e_l=2.0)
    ref = josephson_cnot_min_time(e_l=1.0)
    assert abs(fast.alpha_ratio - ref.alpha_ratio) < 1e-9
    assert abs(fast.t - ref.t / 2.0) < 1e-9


def test_josephson_cnot_matches_gate_class():
    result = josephson_cnot_min_time()
    h = realize(HamiltonianSpec.josephson(result.alpha_ratio, 1.0))
    u = expm_i_hermitian(h, result.t)
    c = gate_coords(u)
    assert_allclose(c, [PI / 2, 0.0, 0.0], atol=1e-5)


def test_josephson_cnot_min_time_scales_with_e_l():
    # E_L only rescales time: the same root, the same pulse, t·E_L fixed.
    ref = josephson_cnot_min_time(1.0)
    for e_l in (0.5, 2.0):
        result = josephson_cnot_min_time(e_l)
        assert result.alpha_ratio == ref.alpha_ratio
        assert result.pulse_index == ref.pulse_index == 5
        assert abs(result.t * e_l - ref.t) <= 1e-12 * ref.t
