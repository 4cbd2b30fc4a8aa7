"""Full decomposition U = e^{iα}·k1·A(c)·k2 and local-gate factorization."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import rand_chamber_point, rand_local, rand_su2, rand_u4
from weylgate import (
    NotLocalError,
    canonical_gate,
    canonicalize,
    factor_local,
    gate_coords,
    in_chamber,
    is_local_gate,
    kak_decompose,
    kak_reconstruct,
    kron2,
    named_gate,
)


def test_roundtrip_named_gates():
    for name in ("identity", "cnot", "cz", "swap", "iswap", "sqrtswap", "sqrtswap_inv"):
        u = named_gate(name)
        d = kak_decompose(u)
        assert_allclose(kak_reconstruct(d), u, atol=1e-12, err_msg=name)
        assert d.residual < 1e-12


def test_roundtrip_random():
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(200):
        u = rand_u4(rng)
        d = kak_decompose(u)
        worst = max(worst, float(np.linalg.norm(kak_reconstruct(d) - u)))
        assert d.residual < 1e-9
    assert worst < 1e-9


def test_structure_of_factors():
    rng = np.random.default_rng(42)
    for _ in range(25):
        u = rand_u4(rng)
        d = kak_decompose(u)
        assert is_local_gate(d.k1)
        assert is_local_gate(d.k2)
        assert in_chamber(d.coords, tol=1e-9)
        # The phase carries the whole determinant: det(k1·A·k2) = 1.
        assert abs(np.exp(4j * d.alpha) - np.linalg.det(u)) < 1e-9
        assert_allclose(d.a_factor, canonical_gate(d.coords), atol=1e-9)


def test_coords_match_independent_route():
    rng = np.random.default_rng(43)
    for _ in range(25):
        u = rand_u4(rng)
        assert_allclose(kak_decompose(u).coords, gate_coords(u), atol=1e-7)


def test_near_degenerate_coordinates():
    # Two nearly equal inner coordinates collapse two eigenphases of m;
    # the joint-diagonalization fallback must keep the roundtrip exact.
    rng = np.random.default_rng(44)
    for _ in range(50):
        base = np.sort(rng.uniform(0.1, 1.4, size=2))[::-1]
        delta = rng.uniform(0.0, 1e-6)
        c = canonicalize([base[0], base[1], base[1] - delta])
        u = rand_local(rng) @ canonical_gate(c) @ rand_local(rng)
        u = np.exp(1j * rng.uniform(0, 2 * np.pi)) * u
        d = kak_decompose(u)
        assert d.residual < 1e-9
        assert np.max(np.abs(d.coords - c)) < 1e-6


def test_local_gate_decomposes_to_origin():
    rng = np.random.default_rng(45)
    u = np.exp(0.3j) * rand_local(rng)
    d = kak_decompose(u)
    assert_allclose(d.coords, [0.0, 0.0, 0.0], atol=1e-9)
    assert d.residual < 1e-9


def test_factor_local_recovers_tensor_factors():
    rng = np.random.default_rng(46)
    for _ in range(25):
        a, b = rand_su2(rng), rand_su2(rng)
        phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
        k = phase * kron2(a, b)
        f = factor_local(k)
        assert_allclose(np.exp(1j * f.phase) * kron2(f.a, f.b), k, atol=1e-10)
        assert abs(np.linalg.det(f.a) - 1.0) < 1e-10
        assert abs(np.linalg.det(f.b) - 1.0) < 1e-10


def test_factor_local_rejects_entangling_gate():
    with pytest.raises(NotLocalError):
        factor_local(named_gate("cnot"))


def test_is_local_gate():
    # Recognizes SU(2)⊗SU(2) exactly: a sign flip stays inside, any other
    # global phase does not (its magic-frame image turns complex).
    rng = np.random.default_rng(47)
    assert is_local_gate(rand_local(rng))
    assert is_local_gate(-rand_local(rng))
    assert not is_local_gate(np.exp(1.1j) * rand_local(rng))
    assert not is_local_gate(named_gate("cnot"))
    assert not is_local_gate(named_gate("sqrtswap"))


def test_decomposition_factors_multiply_back():
    # Explicit product check, not just the stored residual.
    rng = np.random.default_rng(48)
    u = rand_u4(rng)
    d = kak_decompose(u)
    rebuilt = np.exp(1j * d.alpha) * d.k1 @ d.a_factor @ d.k2
    assert_allclose(rebuilt, u, atol=1e-9)


def test_swap_is_not_local():
    # m(SWAP) = I, but SWAP's magic-basis conjugate is a reflection (det -1),
    # not a rotation; no phase or local dressing makes it a tensor product.
    rng = np.random.default_rng(12)
    for u in (named_gate("swap"), np.exp(0.7j) * rand_local(rng) @ named_gate("swap")):
        assert not is_local_gate(u)
        with pytest.raises(NotLocalError):
            factor_local(u)
