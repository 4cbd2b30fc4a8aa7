"""Entanglement functional, perfect-entangler tests, witnesses, volumes."""

import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import PI, rand_chamber_point, rand_local, rand_su2, rand_u4
from weylgate import (
    NotNormalizedError,
    NotPerfectEntanglerError,
    P_ENT,
    VerificationError,
    canonical_gate,
    canonicalize,
    check_unitary,
    ent,
    entangler,
    entangling_input,
    gate_coords,
    is_perfect_entangler,
    named_gate,
    pe_fraction_mc,
    pe_from_coords,
    pe_volume_exact,
)
from weylgate.chamber import VERTEX_A2, VERTEX_L, VERTEX_M, VERTEX_N, VERTEX_P, VERTEX_Q
from weylgate.entangler import TOL_HULL
from weylgate.invariants import _Gate


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
    k = np.kron(rand_su2(rng), rand_su2(rng))
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


# Vertices of the perfect-entangler polyhedron nudged by ε, where the widest
# gap is π within about ε: the margin band's ½ and ½ on its ends, or closed-form
# weights whose tan(g/2) terms reach about 1/ε and send those ends toward ½.
# Gates whose eigenphases form two antipodal pairs: on the boundary (the
# widest-gap pair) or inside it at B (a square: every weight ¼).  On the L-A2
# edge near cnot, (π/2, t, 0), two pairs of phases 2t apart straddle ±π/2, so
# two gaps are 2t and two are π - 2t: every weight is about ¼.
_WITNESS_CASES = [
    pytest.param(vertex, eps, id=f"{name}-{eps:g}")
    for name, vertex in (
        ("L", VERTEX_L), ("A2", VERTEX_A2), ("P", VERTEX_P),
        ("M", VERTEX_M), ("Q", VERTEX_Q), ("N", VERTEX_N),
    )
    for eps in (1e-9, 3e-9, 1e-8, 3e-8, 1e-7)
] + [pytest.param(name, 0.0, id=name) for name in ("cnot", "cz", "iswap", "sqrtswap")] + [
    pytest.param(np.array([PI / 2, PI / 4, 0.0]), 0.0, id="B")
] + [pytest.param(np.array([PI / 2, t, 0.0]), 0.0, id=f"L-A2-{t:g}") for t in (1e-8, 1e-6, 1e-4)]


@pytest.mark.parametrize("point, eps", _WITNESS_CASES)
def test_witness_weights_near_the_boundary(point, eps):
    # The bare gate, then seven dressed with random locals and a phase; the
    # nudge direction is random, so some of them leave the polyhedron.
    checked = 0
    for seed in range(8):
        rng = np.random.default_rng(seed)
        core = named_gate(point) if isinstance(point, str) else canonical_gate(point + eps * rng.uniform(-1, 1, 3))
        u = core if seed == 0 else np.exp(1j * rng.uniform(0, 2 * PI)) * rand_local(rng) @ core @ rand_local(rng)
        verdict = is_perfect_entangler(u)
        if not verdict.is_pe:
            continue
        w = verdict.weights
        assert np.all(w >= 0.0)
        assert abs(w.sum() - 1.0) <= 1e-12
        assert abs(w @ verdict.phases) <= TOL_HULL
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            psi_in, psi_out = entangling_input(u)
        assert abs(ent(psi_in)) <= 1e-9
        assert abs(abs(ent(psi_out)) - 0.5) <= 1e-9
        assert_allclose(psi_out, u @ psi_in, atol=1e-12)
        checked += 1
    assert checked >= 3


@pytest.mark.parametrize("name", ["cnot", "cz", "iswap", "sqrtswap", "sqrtswap_inv"])
def test_zero_hull_tol_keeps_verdict_without_weights(monkeypatch, name):
    # Each margin is 6e-17.  At TOL_HULL = 0 that leaves the band, and the
    # closed form's residual, of rounding size, fails a bound of exactly 0:
    # no weights pass the check.  The verdict and margin do not need them;
    # the witness states do.
    # Each call reads a fresh record, so no verdict kept at the real bound is read.
    u = named_gate(name)
    margin = is_perfect_entangler(u).margin
    monkeypatch.setattr(entangler, "TOL_HULL", 0.0)
    monkeypatch.setattr(entangler, "_gate", lambda u: _Gate(check_unitary(u)))
    verdict = is_perfect_entangler(u)
    assert verdict.is_pe
    assert verdict.margin == margin
    assert verdict.weights is None
    with pytest.raises(VerificationError, match="hull witness"):
        entangling_input(u)


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


def test_mc_fraction_independent_of_chunk_size(monkeypatch):
    # The estimate reads the first n accepted rows of the stream, whatever
    # the size of each draw; the cases need one, two and many draws.
    from weylgate import entangler

    cases = [(1, 3), (1000, 5), (123_457, 11), (1_000_000, 20260814)]
    reference = [pe_fraction_mc(n, seed) for n, seed in cases]
    monkeypatch.setattr(entangler, "_MC_CHUNK", 1000)
    assert pe_fraction_mc(200_000, 7) == pytest.approx(0.498855, abs=1e-12)
    assert [pe_fraction_mc(n, seed) for n, seed in cases] == reference


def test_mc_fraction_memory_flat_in_n():
    # The first block of n = 10⁶ has 4·10⁶ rows, about 100 MB drawn at once.
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        pe_fraction_mc(1_000_000, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


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
