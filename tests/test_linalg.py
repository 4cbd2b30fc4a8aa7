"""Checks for the small linear-algebra toolkit and its eigen cores."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import rand_u4
from weylgate import (
    NotHermitianError,
    NotUnitaryError,
    check_hermitian,
    check_unitary,
    expm_i_hermitian,
    gate_coords,
    is_perfect_entangler,
    kak_decompose,
    local_invariants,
    named_gate,
)
from weylgate.linalg import _dist_up_to_phase, _eigh, _simdiag


def test_check_unitary_accepts_unitary():
    rng = np.random.default_rng(1)
    u = rand_u4(rng)
    out = check_unitary(u)
    assert_allclose(out, u)


def test_check_unitary_rejects_nonunitary():
    with pytest.raises(NotUnitaryError):
        check_unitary(np.eye(4) * 1.01)


def test_check_unitary_rejects_wrong_shape():
    with pytest.raises(ValueError):
        check_unitary(np.eye(3))


def test_check_hermitian():
    rng = np.random.default_rng(2)
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = z + z.conj().T
    assert_allclose(check_hermitian(h), h)
    with pytest.raises(NotHermitianError):
        check_hermitian(h + 1e-6 * 1j * np.eye(4))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_checks_reject_nonfinite(bad):
    # nan > tol is False, so a defect-only test would let these through.
    u = named_gate("cnot")
    u[1, 2] = bad
    with pytest.raises(NotUnitaryError):
        check_unitary(u)
    h = np.eye(4, dtype=complex)
    h[0, 0] = bad
    with pytest.raises(NotHermitianError):
        check_hermitian(h)


@pytest.mark.parametrize(
    "fn", [local_invariants, gate_coords, kak_decompose, is_perfect_entangler]
)
def test_entry_points_reject_nan_gate(fn):
    u = named_gate("iswap")
    u[3, 3] = complex(np.nan, 0.0)
    with pytest.raises(NotUnitaryError):
        fn(u)


def test_eig_real_symmetric_roundtrip():
    rng = np.random.default_rng(4)
    for _ in range(20):
        s = rng.standard_normal((4, 4))
        s = s + s.T
        w, o = _eigh(s)
        assert_allclose(o @ np.diag(w) @ o.T, s, atol=1e-12)
        assert_allclose(o @ o.T, np.eye(4), atol=1e-12)
        assert np.linalg.det(o) > 0.5  # proper rotation, det +1
        assert np.all(np.diff(w) <= 1e-12)  # descending


def test_expm_diagonal_oracle():
    h = np.diag([0.3, -0.7, 1.1, 2.0])
    t = 0.9
    assert_allclose(expm_i_hermitian(h, t), np.diag(np.exp(1j * t * np.diag(h))), atol=1e-13)


def test_expm_group_law():
    rng = np.random.default_rng(5)
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = z + z.conj().T
    u1 = expm_i_hermitian(h, 0.4)
    u2 = expm_i_hermitian(h, 1.3)
    assert_allclose(u1 @ u2, expm_i_hermitian(h, 1.7), atol=1e-12)
    assert_allclose(u1 @ u1.conj().T, np.eye(4), atol=1e-12)


def test_simdiag_commuting_pair():
    rng = np.random.default_rng(6)
    for _ in range(10):
        s = rng.standard_normal((4, 4))
        _, frame = _eigh(s + s.T)
        a = frame @ np.diag(rng.standard_normal(4)) @ frame.T
        b = frame @ np.diag(rng.standard_normal(4)) @ frame.T
        da, db, vecs = _simdiag(a, b)
        assert_allclose(vecs @ np.diag(da) @ vecs.T, a, atol=1e-10)
        assert_allclose(vecs @ np.diag(db) @ vecs.T, b, atol=1e-10)
        assert_allclose(vecs @ vecs.T, np.eye(4), atol=1e-12)


def test_simdiag_degenerate_first_matrix():
    # a = I is maximally degenerate; the blend must fall back to b's frame.
    rng = np.random.default_rng(7)
    s = rng.standard_normal((4, 4))
    b = s + s.T
    da, db, vecs = _simdiag(np.eye(4), b)
    assert_allclose(da, np.ones(4), atol=1e-12)
    assert_allclose(vecs @ np.diag(db) @ vecs.T, b, atol=1e-10)


def test_dist_up_to_phase_ignores_phase():
    rng = np.random.default_rng(8)
    u = rand_u4(rng)
    assert _dist_up_to_phase(u, np.exp(0.7j) * u) < 1e-13


def test_dist_up_to_phase_cnot_identity():
    # |tr(CNOT)| = 2, so the best phase alignment leaves a distance of
    # sqrt(8 - 2*2) = 2 exactly.
    assert_allclose(_dist_up_to_phase(np.eye(4), named_gate("cnot")), 2.0, atol=1e-12)


def test_dist_up_to_phase_no_float_floor():
    # Machine-precision-equal inputs must score ~1e-15, not the ~1e-7 floor
    # of the naive sqrt(8 - 2|tr|) cancellation.
    rng = np.random.default_rng(9)
    u = rand_u4(rng)
    assert _dist_up_to_phase(u, u * np.exp(1j * 1e-15)) < 1e-12


def test_dist_up_to_phase_near_orthogonal_gates():
    # |tr(u†v)| ≈ 1e-9 is far above the 1e-12 below which no phase is
    # better than another: the distance still reads the trace and falls
    # short of √8.
    u = np.eye(4, dtype=complex)
    v = np.diag(np.exp(1j * np.array([1e-9, np.pi / 2, np.pi, 3 * np.pi / 2])))
    tr = abs(np.trace(v))
    d = _dist_up_to_phase(u, v)
    assert abs(d - np.sqrt(8.0 - 2.0 * tr)) <= 1e-15
    assert d < np.sqrt(8.0)


def test_dist_up_to_phase_matches_grid_minimum():
    rng = np.random.default_rng(10)
    u, v = rand_u4(rng), rand_u4(rng)
    grid = np.linspace(0.0, 2.0 * np.pi, 20001)
    brute = min(np.linalg.norm(u - np.exp(1j * p) * v) for p in grid)
    assert abs(_dist_up_to_phase(u, v) - brute) < 1e-6
