"""Generator basis, Killing form, Hamiltonian splitting, Cartan rotation."""

from functools import partial

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import rand_local
from weylgate import (
    BASIS_LABELS,
    MAGIC,
    PAULIS,
    WEYL_REFLECTIONS,
    ConvergenceError,
    HamiltonianSpec,
    InvalidInputError,
    NotNonlocalError,
    VerificationError,
    assemble_nonlocal,
    cartan,
    cartan_conjugate,
    cartan_element,
    commutator,
    expm_i_hermitian,
    generator_basis,
    killing_form,
    local_invariants,
    named_gate,
    realize,
    split_hamiltonian,
    synthesize,
    trajectory,
)

SX, SY, SZ = PAULIS["x"], PAULIS["y"], PAULIS["z"]
I2 = np.eye(2)


def test_magic_matrix_is_unitary():
    assert_allclose(MAGIC @ MAGIC.conj().T, np.eye(4), atol=1e-15)


def test_magic_diagonalizes_two_body_words():
    # The double Pauli words become signed diagonals in the magic frame.
    expected = {
        "xx": np.array([1.0, 1.0, -1.0, -1.0]),
        "yy": np.array([-1.0, 1.0, -1.0, 1.0]),
        "zz": np.array([1.0, -1.0, -1.0, 1.0]),
    }
    for pair, diag in expected.items():
        w = np.kron(PAULIS[pair[0]], PAULIS[pair[1]])
        assert_allclose(MAGIC.conj().T @ w @ MAGIC, np.diag(diag), atol=1e-15)


def test_generator_basis_shape_and_labels():
    basis = generator_basis()
    assert len(basis) == 15
    assert len(BASIS_LABELS) == 15
    for w in basis:
        assert_allclose(w + w.conj().T, np.zeros((4, 4)), atol=1e-15)  # anti-Hermitian
        assert abs(np.trace(w)) < 1e-15


def test_killing_form_orthogonality():
    basis = generator_basis()
    for j, a in enumerate(basis):
        for k, b in enumerate(basis):
            expected = -8.0 if j == k else 0.0
            assert abs(killing_form(a, b) - expected) < 1e-12


@pytest.mark.parametrize("fn", [killing_form, commutator])
def test_su2_elements_are_refused(fn):
    # 8·tr is su(4)'s Killing form: on iσx/2 it read -4, where su(2)'s is -2.
    x = 0.5j * SX
    with pytest.raises(InvalidInputError, match="must be 4x4"):
        fn(x, x)


def test_commutator_single_qubit_block():
    # [(i/2)σa⊗I, (i/2)σb⊗I] = -(i/2)σc⊗I for (a,b,c) cyclic, and the two
    # single-qubit blocks commute with each other.
    basis = generator_basis()
    idx = {lbl: j for j, lbl in enumerate(BASIS_LABELS)}
    for q in ("1", "2"):
        for a, b, c in (("x", "y", "z"), ("y", "z", "x"), ("z", "x", "y")):
            lhs = commutator(basis[idx[a + q]], basis[idx[b + q]])
            assert_allclose(lhs, -basis[idx[c + q]], atol=1e-15)
    for a in ("x", "y", "z"):
        for b in ("x", "y", "z"):
            lhs = commutator(basis[idx[a + "1"]], basis[idx[b + "2"]])
            assert_allclose(lhs, np.zeros((4, 4)), atol=1e-15)


def test_commutator_mixed_block_samples():
    # [(i/2)σx⊗I, (i/2)σy⊗σy] = -(i/2)σz⊗σy, and a Cartan pair that lands
    # back on a single-qubit word: [(i/2)σx⊗σx, (i/2)σy⊗σx] = -(i/2)σz⊗I.
    basis = generator_basis()
    idx = {lbl: j for j, lbl in enumerate(BASIS_LABELS)}
    assert_allclose(
        commutator(basis[idx["x1"]], basis[idx["yy"]]), -basis[idx["zy"]], atol=1e-15
    )
    assert_allclose(
        commutator(basis[idx["xx"]], basis[idx["yx"]]), -basis[idx["z1"]], atol=1e-15
    )


def test_commutator_closure_full_table():
    # Every [W_j, W_k] expands exactly in the basis; coefficients recovered
    # through the Killing form rebuild the commutator to near machine zero.
    basis = generator_basis()
    for a in basis:
        for b in basis:
            lhs = commutator(a, b)
            rebuilt = sum(
                (killing_form(lhs, w) / -8.0) * w for w in basis
            )
            assert np.max(np.abs(lhs - rebuilt)) < 1e-12


def test_split_roundtrip_random_hermitian():
    rng = np.random.default_rng(11)
    basis_words = [np.kron(p, I2) for p in (SX, SY, SZ)]
    basis_words += [np.kron(I2, p) for p in (SX, SY, SZ)]
    basis_words += [np.kron(a, b) for a in (SX, SY, SZ) for b in (SX, SY, SZ)]
    for _ in range(10):
        z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = z + z.conj().T
        s = split_hamiltonian(h)
        coeffs = np.concatenate([s.local_coeffs, s.nonlocal_coeffs])
        rebuilt = s.identity_coeff * np.eye(4) + 0.5 * sum(
            c * w for c, w in zip(coeffs, basis_words)
        )
        assert_allclose(rebuilt, h, atol=1e-12)


def test_split_reads_exchange_couplings_directly():
    h = 0.5 * (1.3 * np.kron(SX, SX) + 0.4 * np.kron(SY, SY))
    s = split_hamiltonian(h)
    assert_allclose(s.local_coeffs, np.zeros(6), atol=1e-15)
    assert_allclose(s.nonlocal_coeffs[0], 1.3, atol=1e-15)  # xx
    assert_allclose(s.nonlocal_coeffs[4], 0.4, atol=1e-15)  # yy
    assert s.identity_coeff == 0.0
    assert s.local_norm == 0.0


def test_assemble_nonlocal_inverts_split():
    rng = np.random.default_rng(12)
    coeffs = rng.uniform(-1, 1, size=9)
    h = assemble_nonlocal(coeffs)
    assert_allclose(split_hamiltonian(h).nonlocal_coeffs, coeffs, atol=1e-12)


def test_cartan_element_matches_assembly():
    c = [0.7, 0.4, -0.2]
    expected = 0.5 * (
        c[0] * np.kron(SX, SX) + c[1] * np.kron(SY, SY) + c[2] * np.kron(SZ, SZ)
    )
    assert_allclose(cartan_element(c), expected, atol=1e-15)


def test_cartan_conjugate_recovers_cartan_input():
    target = cartan_conjugate(cartan_element([0.9, 0.5, 0.1]))
    assert_allclose(target.coeffs, [0.9, 0.5, 0.1], atol=1e-12)


def test_cartan_conjugate_random_nonlocal():
    rng = np.random.default_rng(13)
    for _ in range(25):
        h = assemble_nonlocal(rng.uniform(-1, 1, size=9))
        target = cartan_conjugate(h)
        k = target.k
        assert_allclose(k @ k.conj().T, np.eye(4), atol=1e-10)
        assert_allclose(k @ h @ k.conj().T, cartan_element(target.coeffs), atol=1e-9)
        assert np.all(np.diff(target.coeffs) <= 1e-12)  # sorted descending
        # k must itself be a tensor product of single-qubit gates.
        from weylgate import is_local_gate

        assert is_local_gate(k)


def test_cartan_conjugate_ignores_a_large_identity_offset():
    # At E = 2^27 the diagonal E ± a of E·I + h rounds to different ulps on
    # the two sides of the binade boundary, so tr(Re s) keeps 3e-8 of E's
    # rounding in 5 of these 10 draws, which no trace-free Cartan form
    # rebuilds: the frame is measured against the eigenvalues it diagonalizes.
    rng = np.random.default_rng(15)
    for _ in range(10):
        loc = rand_local(rng)
        h = loc @ assemble_nonlocal(rng.uniform(-1, 1, size=9)) @ loc.conj().T
        target = cartan_conjugate(2.0**27 * np.eye(4) + h)
        assert_allclose(target.coeffs, cartan_conjugate(h).coeffs, atol=1e-7)
        assert_allclose(target.k @ h @ target.k.conj().T, cartan_element(target.coeffs), atol=1e-7)


def test_each_reader_checks_the_cartan_frame(monkeypatch):
    # _eigh checks no frame, so one turned by 1e-6 in one plane reaches every
    # reader of the Cartan form, and each checks it where it reads it:
    # cartan_conjugate by the frame's residual, synthesis by the plan's, and
    # a trajectory's certificate by δ, which holds the frame's residual, so
    # the reach shrinks and the rows past it read the spectrum.
    spec = partial(HamiltonianSpec.exchange, 1.0, 0.5, 0.2, 0.0)  # a fresh spec derives afresh
    reach = spec()._generator.reach
    eigh, turn = cartan._eigh, np.eye(4)
    turn[:2, :2] = [[np.cos(1e-6), -np.sin(1e-6)], [np.sin(1e-6), np.cos(1e-6)]]

    def turned(s):
        mu, v = eigh(s)
        return mu, v @ turn

    monkeypatch.setattr(cartan, "_eigh", turned)
    h = realize(spec())
    with pytest.raises(ConvergenceError):
        cartan_conjugate(h)
    with pytest.raises(VerificationError):
        synthesize(named_gate("cnot"), spec())
    fresh = spec()
    times = np.linspace(0.0, 2 * np.pi, 41)
    table = trajectory(fresh, times)
    assert fresh._generator.reach < 1e-7 * reach < times[1]
    for t, g1, g2 in zip(times, table.g1, table.g2):
        ref = local_invariants(expm_i_hermitian(h, t))
        assert abs(g1 - ref.g1) < 1e-8 and abs(g2 - ref.g2) < 1e-8


def test_cartan_conjugate_rejects_local_terms():
    h = assemble_nonlocal(np.ones(9) * 0.2) + 0.3 * np.kron(SX, I2)
    with pytest.raises(NotNonlocalError):
        cartan_conjugate(h)


def test_weyl_reflection_actions():
    # Each listed reflection is a local gate realizing its advertised
    # coordinate action by conjugation of Cartan elements.
    rng = np.random.default_rng(14)
    for label, refl in WEYL_REFLECTIONS.items():
        gate = refl.gate
        c = rng.uniform(-1.0, 1.0, size=3)
        lhs = gate @ cartan_element(c) @ gate.conj().T
        assert_allclose(lhs, cartan_element(refl.action @ c), atol=1e-12, err_msg=label)
