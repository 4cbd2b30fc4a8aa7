"""The one Cartan table and the frames the synthesis steers with.

``cartan._PATTERN`` is written once; the canonical gate's phases, the raw
coordinates of a spectrum, the Cartan coefficients of a conjugation and the
pulse-time matrix are all read from it or from the frames' Weyl actions.
Each reading is checked here against the physics it stands for, and against
a copy of the hand-written formula it replaced: bit for bit, except that a
matrix product may give 0.0 where the formula gave -0.0.
"""

import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from weylgate import PAULIS, canonical_gate, cartan_element
from weylgate.cartan import MAGIC, Q_DAG, _PATTERN, _raw_coords
from weylgate.chamber import _canonical_gate
from weylgate.synth import _A2, _A3, _L2, _L3, _STEER_INDEX, _STEER_SIGN, cnot_from_isotropic

# Seeded generic triples plus every triple of signed zeros, tiny and large values.
_SPECIAL = (0.0, -0.0, 1e-300, -1e-300, 1e8, -1e8, 0.7)
_RNG = np.random.default_rng(1414)
TRIPLES = [np.array(t) for t in itertools.product(_SPECIAL, repeat=3)]
TRIPLES += list(_RNG.uniform(-4.0, 4.0, (300, 3)))
SPECTRA = [np.array(s) for s in itertools.product(_SPECIAL, repeat=4)]
SPECTRA += list(np.sort(_RNG.uniform(-2.0, 2.0, (300, 4)))[:, ::-1])


def _old_phases(c):
    """The magic-basis phase sums as chamber.py wrote them by hand."""
    c1, c2, c3 = (float(x) for x in c)
    return np.array([c1 - c2 + c3, c1 + c2 - c3, -(c1 + c2 + c3), -c1 + c2 + c3])


def _old_canonical_gate(c):
    return (MAGIC * np.exp(1j * (_old_phases(c) / 2.0))) @ Q_DAG


def _old_pairing(mu):
    """The Cartan coefficients of descending eigenvalues, as cartan.py paired them."""
    return np.array([mu[0] + mu[1], mu[0] + mu[2], mu[1] + mu[2]])


def _old_steering(c):
    """The pulse-time matrix as synth.py wrote it by hand."""
    c1, c2, c3 = c
    return np.array([[c1, -c3, c3], [c2, -c1, -c2], [c3, c2, -c1]])


@pytest.mark.parametrize("j, axis", enumerate("xyz"))
def test_pattern_is_the_magic_diagonal_of_each_cartan_word(j, axis):
    word = Q_DAG @ np.kron(PAULIS[axis], PAULIS[axis]) @ MAGIC
    assert_allclose(word, np.diag(_PATTERN[:, j]), atol=1e-15)


def test_raw_coords_invert_the_pattern():
    for c in _RNG.uniform(-4.0, 4.0, (200, 3)):
        assert_allclose(_raw_coords(_PATTERN @ c), c, rtol=0, atol=1e-14)
    # Exactly, on a stack of small integers.
    c = _RNG.integers(-9, 10, (50, 3)).astype(float)
    assert np.array_equal(_raw_coords(c @ _PATTERN.T), c)


def test_pattern_phases_match_the_hand_written_ones():
    for c in TRIPLES:
        new, old = _PATTERN @ c, _old_phases(c)
        assert np.array_equal(new, old), c
        # Bit for bit, but for the sign of a zero, which the gate never sees:
        # it only reaches the real part of 0.5j·θ, and exp(±0) = 1.
        assert (old == 0).any() or new.tobytes() == old.tobytes(), c
        assert _canonical_gate(c).tobytes() == _old_canonical_gate(c).tobytes(), c
        assert canonical_gate(c).tobytes() == _old_canonical_gate(c).tobytes(), c


def test_pairing_matches_the_hand_written_one():
    for mu in SPECTRA:
        new, old = _raw_coords(2 * mu[[1, 0, 3, 2]]), _old_pairing(mu)
        assert np.array_equal(new, old), mu
        # Bit for bit, but for the sign of a zero: the product's two 0·θ
        # terms can turn a -0.0 sum into 0.0.
        assert (old == 0).any() or new.tobytes() == old.tobytes(), mu


def test_raw_coords_match_the_previous_table_bit_for_bit():
    raw = np.array([[1, 0, 1], [1, 1, 0], [0, 0, 0], [0, 1, 1]]) / 2.0
    for theta in SPECTRA:
        assert _raw_coords(theta).tobytes() == (theta @ raw).tobytes(), theta


def test_steering_matrix_matches_the_hand_written_one_bit_for_bit():
    for c in TRIPLES:
        assert (_STEER_SIGN * c[_STEER_INDEX]).T.tobytes() == _old_steering(c).tobytes(), c


@pytest.mark.parametrize("gate, action", [(_L2, _A2), (_L3, _A3)], ids=["l2", "l3"])
def test_each_frame_realizes_its_action(gate, action):
    assert_allclose(gate @ gate.conj().T, np.eye(4), atol=1e-15)
    for c in _RNG.uniform(-2.0, 2.0, (20, 3)):
        h = gate @ cartan_element(c) @ gate.conj().T
        assert_allclose(h, cartan_element(action @ c), rtol=0, atol=1e-12)
        a = gate @ canonical_gate(c) @ gate.conj().T
        assert_allclose(a, canonical_gate(action @ c), rtol=0, atol=1e-12)


def test_steering_columns_are_the_frames_actions():
    c = np.array([0.9, 0.4, 0.1])
    m = (_STEER_SIGN * c[_STEER_INDEX]).T
    assert_allclose(m, np.column_stack([c, _A2 @ c, _A3 @ c]), rtol=0, atol=0)


def test_cnot_plan_flip_is_sigma_x_on_qubit_one():
    k_x = cnot_from_isotropic().locals[2]
    assert_allclose(k_x, 1j * np.kron(PAULIS["x"], np.eye(2)), atol=1e-15)
