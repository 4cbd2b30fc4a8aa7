"""Each self-check of the one-gate analysis chain, of synthesis and of the
Josephson CNOT search, and the certificates of two-body and Josephson
trajectory rows, pinned at its bound.

A perturbation of the checked quantity is injected, through a monkeypatched
core or an edited derivation record, at (1 + 1e-6)× the bound, where the
typed error must be raised, and at (1 - 1e-6)×, where the call must pass.
The certificate is met by a row's time instead: past its bound the row
reads the spectrum, and inside it the closed form.  The single-qubit part
that δ holds is pinned on the row's certified bound itself.
The gap, 1e-6 of the bound, is far above the rounding of each injected
quantity, so a bound loosened or tightened by more than that fails here.
A bound relative to ||h|| is pinned at unit scale and at ||h|| = 1e8.
``tools/mutants.py`` loosens each bound in a copy of the sources and runs
the test here that must then fail.
"""

import numpy as np
import pytest

from conftest import certified_bound, rand_local, rand_u4
from weylgate import (
    MAGIC,
    PAULIS,
    CartanTarget,
    CircuitPlan,
    ConvergenceError,
    DegenerateHamiltonianError,
    HamiltonianSpec,
    NotHermitianError,
    NotLocalError,
    NotNonlocalError,
    VerificationError,
    assemble_nonlocal,
    cartan_conjugate,
    chamber,
    entangler,
    gate_coords,
    hamflow,
    kak,
    linalg,
    realize,
    synth,
)
from weylgate.cartan import _WORDS
from weylgate.invariants import _Gate

E00 = np.diag([1.0, 0.0, 0.0, 0.0])  # the (0, 0) unit matrix
FACTORS = pytest.mark.parametrize("factor", [1 + 1e-6, 1 - 1e-6], ids=["past", "inside"])


def _outcome(factor, error, call):
    """Run ``call``: past the bound it must raise ``error``, inside it must pass."""
    if factor > 1:
        with pytest.raises(error):
            call()
    else:
        call()


def _haar_record(seed=11) -> _Gate:
    """A fresh record of a Haar gate with its spectrum and fold derived."""
    g = _Gate(rand_u4(np.random.default_rng(seed)))
    kak._kak(g)
    return g


@FACTORS
def test_simdiag_off_diagonal_bound(monkeypatch, factor):
    # Every blend weight returns the identity frame, so the off-diagonal test
    # reads a's own off-diagonal pair e: √2·|e| against TOL_EIG·scale, with
    # scale = ||a|| = 2 (e² is far below 4's rounding).
    eye = np.eye(4)
    monkeypatch.setattr(linalg, "_eigh", lambda s: (np.zeros(s.shape[:-1]), np.broadcast_to(eye, s.shape).copy()))
    a = np.diag([0.0, 0.0, 0.0, 2.0])
    a[0, 1] = a[1, 0] = factor * linalg.TOL_EIG * 2.0 / np.sqrt(2.0)
    _outcome(factor, ConvergenceError, lambda: linalg._simdiag(a[None], np.zeros((1, 4, 4))))


@FACTORS
def test_eigh_residual_bound(monkeypatch, factor):
    # LAPACK answers with an eigenvalue off by δ, so the residual is δ against
    # 1e-10·max(1, ||s||) = 2e-10.
    s = np.diag([0.0, 0.5, 1.0, np.sqrt(2.75)])  # ||s|| = 2
    delta = factor * 1e-10 * 2.0
    monkeypatch.setattr(np.linalg, "eigh", lambda m: (np.diag(m) + [delta, 0.0, 0.0, 0.0], np.eye(4)))
    _outcome(factor, ConvergenceError, lambda: linalg._eigh(s))


def _hermitian_outcome(factor, scale):
    # scale·E00 gains δ at (0, 1) alone: ||h - h†||_F = √2·δ against
    # TOL_HERMITIAN·max(1, ||h||_F), and ||h||_F = scale (δ² is far below
    # the rounding of scale²).
    h = scale * E00.astype(complex)
    h[0, 1] = factor * linalg.TOL_HERMITIAN * scale / np.sqrt(2.0)
    _outcome(factor, NotHermitianError, lambda: linalg.check_hermitian(h))


@FACTORS
def test_hermitian_bound(factor):
    _hermitian_outcome(factor, 1.0)


@FACTORS
def test_hermitian_bound_at_1e8(factor):
    _hermitian_outcome(factor, 1e8)


def _single_qubit_outcome(factor, scale):
    # The isotropic coupling (||h||_F = 0.87) at ``scale`` gains a·σx⊗I, whose
    # entries sit where the coupling's are zero: its one single-qubit
    # coefficient tr(σx⊗I·h)/2 is 2a exactly, and so is the single-qubit
    # norm, against 1e-9·max(1, ||h||_F).
    h = scale * realize(HamiltonianSpec.isotropic())
    a = factor * 1e-9 * max(1.0, np.linalg.norm(h)) / 2.0
    h = h + a * np.kron(PAULIS["x"], np.eye(2))
    if factor > 1:
        with pytest.raises(NotNonlocalError):
            cartan_conjugate(h)
    else:
        assert isinstance(cartan_conjugate(h), CartanTarget)


@FACTORS
def test_conjugate_single_qubit_bound(factor):
    _single_qubit_outcome(factor, 1.0)


@FACTORS
def test_conjugate_single_qubit_bound_at_1e8(factor):
    _single_qubit_outcome(factor, 1e8)


@FACTORS
def test_kak_real_frame_bound(factor):
    # U_B gains i·ε·E·F·o2 with E the (0, 0) unit, so the left frame
    # o1 = U_B·o2ᵀ·F̄ gains i·ε on entry (0, 0) alone: its real part, and with
    # it the factors and the residual, stay as they were.
    g = _haar_record()
    eps = factor * 1e-8
    f = np.exp(1j * (float(g.alpha) + 0.5 * g.spectrum.theta_balanced))
    g.ub = g.ub + 1j * eps * f[0] * E00 @ g.spectrum.frame
    _outcome(factor, VerificationError, lambda: kak._kak(g))


@FACTORS
def test_kak_reconstruction_bound(factor):
    # The record's gate moves by δ on one entry away from the product the
    # factors rebuild, so the residual is δ, rounded once.
    g = _haar_record()
    g.u = kak.kak_reconstruct(kak._kak(g)) + factor * 1e-9 * E00
    _outcome(factor, VerificationError, lambda: kak._kak(g))


@FACTORS
def test_kak_outer_factor_locality_bound(monkeypatch, factor):
    # The outer factors' λ = m(k)[0, 0] moves by t off 1.
    g = _haar_record()
    m_scalar = kak._m_scalar
    monkeypatch.setattr(kak, "_m_scalar", lambda u: m_scalar(u) + factor * kak._TOL_LOCAL)
    _outcome(factor, VerificationError, lambda: kak._kak(g))


@FACTORS
def test_factor_local_residual_bound(monkeypatch, factor):
    # k = exp(i·ε·σz⊗σz) is not local: its rank-one factorization leaves the
    # residual √12·ε, to within a relative ε².  The locality test is patched
    # to pass k, so the residual alone decides.
    eps = factor * kak._TOL_LOCAL / np.sqrt(12.0)
    k = np.diag(np.exp(1j * eps * np.array([1.0, -1.0, -1.0, 1.0])))
    monkeypatch.setattr(kak, "_m_scalar", lambda u: 1.0)
    _outcome(factor, NotLocalError, lambda: kak.factor_local(k))


@FACTORS
def test_gate_coords_verify_bound(monkeypatch, factor):
    monkeypatch.setattr(chamber, "_miss", lambda c, g1, g2c: np.full(c.shape[:-1], factor * chamber._TOL_VERIFY))
    _outcome(factor, VerificationError, lambda: gate_coords(rand_u4(np.random.default_rng(12))))


@FACTORS
def test_trajectory_certificate_bound(spy, factor):
    # One row's time puts its certified bound, |t|·slope + _FLOOR, at
    # factor·_TOL_VERIFY; every other row's bound is below 1e-9.  Past the
    # bound that row alone forms U(t) and reads its spectrum; inside it,
    # every row is the closed form of t·c.
    spec = HamiltonianSpec.exchange(1.0, 0.5, 0.2, 0.0)
    g = spec._generator
    row = 3
    times = np.array([0.1, 0.7, -1.5, 0.0, 2.0])
    times[row] = (factor * chamber._TOL_VERIFY - hamflow._FLOOR) / g.slope
    calls = spy("_simdiag")
    table = hamflow.trajectory(spec, times)
    folded = hamflow._folded(g, times)[0]
    if factor > 1:
        assert calls["_simdiag"] == [(1, 4, 4)]
        folded[row] = chamber._gate_coords(g.flow(times[row]))[0]
    else:
        assert calls["_simdiag"] == []
    np.testing.assert_array_equal(table.coords, folded)


@FACTORS
def test_trajectory_certificate_single_qubit_bound(factor):
    # A dressed two-body coupling at ‖h‖ ≈ 1e-4 with a single-qubit part of
    # Frobenius norm 5e-10, which _conjugate's absolute bound, 1e-9, lets
    # pass: δ holds that part, and the rest of the slope, near 1e-19, is
    # below 1e-9 of it.  So at the time where L·|t|·5e-10 + _FLOOR is
    # factor·_TOL_VERIFY, a row's certified bound lies past _TOL_VERIFY, or
    # inside it.  Which rows such a bound sends to the spectrum is pinned
    # above, on the slope as derived.
    rng = np.random.default_rng(35)
    k = rand_local(rng)
    part = 0.5 * np.tensordot(rng.standard_normal(6), _WORDS[:6], 1)
    h = 1e-4 * k @ assemble_nonlocal(rng.uniform(-1.0, 1.0, 9)) @ k.conj().T + 5e-10 * part / np.linalg.norm(part)
    g = HamiltonianSpec.custom(h)._generator
    assert g.two_body is not None and g.josephson is None
    t = (factor * chamber._TOL_VERIFY - hamflow._FLOOR) / (hamflow._L * 5e-10)
    assert (certified_bound(g, t) > chamber._TOL_VERIFY) == (factor > 1)


@FACTORS
def test_josephson_certificate_bound(spy, factor):
    # As above, on the Josephson coupling, with its slope derived here from
    # the matrix: L·Ω·_ROUND_JOSEPHSON, Ω = hypot(β, E_J), β = -Re h03 and
    # E_J = -2·Re h01.
    spec = HamiltonianSpec.josephson(1.2)
    h = realize(spec)
    slope = hamflow._L * np.hypot(h[0, 3].real, 2.0 * h[0, 1].real) * hamflow._ROUND_JOSEPHSON
    g = spec._generator
    row = 3
    times = np.array([0.1, 0.7, -1.5, 0.0, 2.0])
    times[row] = (factor * chamber._TOL_VERIFY - hamflow._FLOOR) / slope
    calls = spy("_simdiag")
    table = hamflow.trajectory(spec, times)
    folded = hamflow._folded(g, times)[0]
    if factor > 1:
        assert calls["_simdiag"] == [(1, 4, 4)]
        folded[row] = chamber._gate_coords(g.flow(times[row]))[0]
    else:
        assert calls["_simdiag"] == []
    np.testing.assert_array_equal(table.coords, folded)


@FACTORS
@pytest.mark.parametrize("state", ["in", "out"])
def test_witness_self_check_bound(monkeypatch, factor, state):
    # Ent of the product state moves by t off 0, or Ent of the output scales
    # by 1 + 2t, so |Ent| moves by t off 1/2.
    ent, t = entangler._ent, factor * 1e-9

    def moved(psi):
        value = ent(psi)
        if abs(value) < 0.25:
            return value + t if state == "in" else value
        return value * (1 + 2 * t) if state == "out" else value

    u = rand_u4(np.random.default_rng(13))
    assert entangler.is_perfect_entangler(u).is_pe
    monkeypatch.setattr(entangler, "_ent", moved)
    _outcome(factor, VerificationError, lambda: entangler.entangling_input(u))


@FACTORS
@pytest.mark.parametrize("check", ["residual", "floor"])
def test_hull_witness_check_bound(monkeypatch, factor, check):
    # The closed-form weights move: δ on the first sorted point, so Σ w·z
    # moves by δ, rounded at 1e-16.  Or every weight scales by s < 0, so the
    # least is s·max(w) and |Σ w·z| stays at rounding.  Past either bound the
    # perfect entangler keeps its verdict and margin, and its witness fails.
    u = rand_u4(np.random.default_rng(13))  # the witness test's gate
    monkeypatch.setattr(entangler, "_gate", _Gate)  # a fresh record per call: no kept verdict
    v = entangler.is_perfect_entangler(u)
    assert v.is_pe and v.margin > entangler.TOL_HULL and v.weights.min() > 0  # the closed form's weights
    hull_weights = entangler._hull_weights

    def moved_weights(gaps):
        w = hull_weights(gaps)
        if check == "residual":
            return w + factor * entangler.TOL_HULL * np.eye(4)[0]
        return w * (-factor * 1e-12 / w.max())

    monkeypatch.setattr(entangler, "_hull_weights", moved_weights)
    moved = entangler.is_perfect_entangler(u)
    assert (moved.is_pe, moved.margin) == (True, v.margin)
    assert (moved.weights is None) == (factor > 1)
    if factor > 1:
        with pytest.raises(VerificationError, match="hull witness"):
            entangler.entangling_input(u)
    elif check == "residual":
        entangler.entangling_input(u)


@FACTORS
@pytest.mark.parametrize("invariant", ["g1", "g2"])
def test_josephson_root_check_bound(monkeypatch, factor, invariant):
    # Each root's G1 or G2 moves by δ on the stacked record that checks all
    # roots, and it is verified at |G1| ≤ 1e-6 and |G2 - 1| ≤ 1e-6; unmoved,
    # every root meets both within 1e-15.  Past the bound no root is
    # verified, and the search finds nothing.
    delta = factor * 1e-6

    class Moved(_Gate):
        @property
        def invariant_pair(self):
            g1, g2c = super().invariant_pair
            return (g1 + delta, g2c) if invariant == "g1" else (g1, g2c + delta)

    monkeypatch.setattr(hamflow, "_Gate", Moved)
    _outcome(factor, ConvergenceError, hamflow.josephson_cnot_min_time)


def _negative_plan(t0, spec):
    """The isotropic CNOT plan on ``spec`` with its first time set to ``t0`` < 0."""
    plan = synth.cnot_from_isotropic()
    return CircuitPlan(plan.locals, (t0, *plan.times[1:]), spec)


@FACTORS
def test_synthesize_residual_bound(monkeypatch, factor):
    monkeypatch.setattr(synth, "_dist_up_to_phase", lambda u, v: factor * synth._TOL_RESIDUAL)
    target = rand_u4(np.random.default_rng(14))
    _outcome(factor, VerificationError, lambda: synth.synthesize(target, HamiltonianSpec.isotropic()))


@FACTORS
def test_nonnegative_rewrite_residual_bound(monkeypatch, factor):
    # One segment is shifted by one period, so the miss is that segment's alone.
    monkeypatch.setattr(synth, "_dist_up_to_phase", lambda u, v: factor * synth._TOL_RESIDUAL)
    rewritten = synth.with_nonnegative_times(_negative_plan(-0.5, HamiltonianSpec.isotropic()))
    assert (rewritten is None) == (factor > 1)


@FACTORS
def test_nonnegative_rewrite_compensator_locality_bound(monkeypatch, factor):
    # Shifted by three periods, the compensator is tested as a local gate.  It
    # is read as Q·(I + ε·E)·Q† with E the symmetric (0, 1) pair, whose m is
    # I + 2ε·E + ε²·E²: the off-diagonal entry 2ε against the bound 1e-8.
    eps = factor * kak._TOL_LOCAL / 2.0
    pair = np.eye(4)
    pair[0, 1] = pair[1, 0] = eps
    moved = MAGIC @ pair @ MAGIC.conj().T
    spec = HamiltonianSpec.isotropic()
    period = synth.fundamental_period(spec)  # kept by the spec before the locality test moves
    m_scalar = kak._m_scalar
    monkeypatch.setattr(synth, "_m_scalar", lambda u: m_scalar(np.broadcast_to(moved, u.shape)))
    rewritten = synth.with_nonnegative_times(_negative_plan(-2.5 * period, spec))
    assert (rewritten is None) == (factor > 1)


@FACTORS
def test_period_commensurability_bound(factor):
    # The ising record's coefficients are set to (1, 1/2 + δ, 0): the
    # candidate T = π·2 misses a multiple of π on c2 by π·2·δ.  Rounding
    # 1/2 + δ moves δ by at most 4e-7 of itself.  Inside the bound, U(2π)
    # of the ising flow is local, and T is the period.
    g = HamiltonianSpec.ising()._generator
    delta = factor * synth._TOL_PERIOD / (2 * np.pi)
    g.two_body = CartanTarget(np.array([1.0, 0.5 + delta, 0.0]), g.cartan.k)
    assert (synth._period(g) is None) == (factor > 1)


@FACTORS
def test_pulse_time_matrix_det_bound(factor):
    # det M is cubic in the coefficients, so scaling them by s scales it by s³:
    # det = 1e-12 / factor, at or below the bound past it.
    c = np.array([1.0, 0.5, 0.2])
    det = np.linalg.det(synth._pulse_time_matrix(c))
    c = c * np.cbrt(1e-12 / factor / det)
    _outcome(factor, DegenerateHamiltonianError, lambda: synth._pulse_time_matrix(c))
