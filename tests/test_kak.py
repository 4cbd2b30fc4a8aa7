"""Full decomposition U = e^{iα}·k1·A(c)·k2 and local-gate factorization."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import (
    PROPERTY,
    TIE_BOUND,
    gate_at,
    rand_chamber_point,
    rand_local,
    rand_su2,
    rand_u4,
    weyl_misses,
)
from weylgate import (
    MAGIC,
    NotLocalError,
    NotUnitaryError,
    canonical_gate,
    canonicalize,
    chamber,
    factor_local,
    gate_coords,
    in_chamber,
    is_local_gate,
    kak_decompose,
    kak_reconstruct,
    named_gate,
)
from weylgate.cartan import _WEYL_GATES, Q_DAG
from weylgate.invariants import _gate
from weylgate.kak import _PARITY_WORDS

UNIT_ROUNDOFF = 2.0**-53


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


def test_exact_ties_take_the_first_element():
    # At the identity the raw coordinates and the image are 0, which every
    # element maps to 0: the first in table order, the identity, is taken.
    _, p, n = _gate(np.eye(4, dtype=complex)).fold
    assert p == 0 and (n == 0).all()
    # Several elements map these gates' raw coordinates to the image
    # exactly; the one taken still gives local outer factors.
    for name in ("sqrtswap", "iswap"):
        u = named_gate(name)
        g = _gate(u)
        assert (weyl_misses(g.raw, g.fold[0]) <= TIE_BOUND).sum() > 1, name
        d = kak_decompose(u)
        assert np.linalg.norm(kak_reconstruct(d) - u) <= 1e-9, name
        assert is_local_gate(d.k1) and is_local_gate(d.k2), name


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
        k = phase * np.kron(a, b)
        f = factor_local(k)
        assert_allclose(np.exp(1j * f.phase) * np.kron(f.a, f.b), k, atol=1e-10)
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


def test_local_gate_entries_read_unitarity_at_one_bound():
    # u†u - I has the entry (1 + 4e-9)² - 1 = 8e-9: past the 1e-9 of every
    # gate entry, inside the locality test's 1e-8.
    u = np.diag([1.0 + 4e-9, 1.0, 1.0, 1.0])
    for fn in (is_local_gate, factor_local):
        with pytest.raises(NotUnitaryError):
            fn(u)


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


# kak_decompose checks its outer factors local on their real magic-basis
# frames o1 and o2 alone.  That rests on the Weyl-group gates and the parity
# words, which k1 and k2 also absorb, being exact rotations in the magic basis.


def _magic_rounded(gates):
    """Q†·g·Q for each gate, its entries rounded to integers, and the largest
    distance of an entry from its rounding."""
    s = Q_DAG @ gates @ MAGIC
    r = np.rint(s.real)
    return r, np.abs(s - r).max()


def test_weyl_gates_are_signed_permutations_in_the_magic_basis():
    r, miss = _magic_rounded(_WEYL_GATES)
    assert len(r) == 24 and miss <= 4 * UNIT_ROUNDOFF
    assert (np.abs(r).sum(-1) == 1).all() and (np.abs(r).sum(-2) == 1).all()
    assert (np.linalg.det(r) == 1.0).all()


def test_parity_words_are_sign_diagonals_in_the_magic_basis():
    r, miss = _magic_rounded(_PARITY_WORDS)
    assert len(r) == 8 and miss <= 4 * UNIT_ROUNDOFF
    assert (np.abs(r) == np.eye(4)).all()
    assert (np.linalg.det(r) == 1.0).all()


_VERTICES = [getattr(chamber, f"VERTEX_{name}") for name in "O A1 A2 A3 L M N P Q".split()]


@st.composite
def kak_gates(draw):
    """A Haar gate, or a chamber vertex dressed with random locals and a
    global phase."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return rand_u4(rng)
    return gate_at(draw(st.sampled_from(_VERTICES)), rng, phase=rng.uniform(0.0, 2 * np.pi))


@PROPERTY
@given(kak_gates())
def test_frame_defect_is_the_outer_factors_locality_defect(u):
    d = kak_decompose(u)
    g = _gate(u)
    o2 = g.spectrum.frame
    o1 = g.ub @ (o2.T * np.exp(-1j * (float(g.alpha) + 0.5 * g.spectrum.theta_balanced)))
    o = np.array([o1.real, o2])
    kb = Q_DAG @ np.array([d.k1, d.k2]) @ MAGIC
    frame_defect = np.abs(o.swapaxes(-1, -2) @ o - np.eye(4)).max()
    factor_defect = np.abs(kb.swapaxes(-1, -2) @ kb - np.eye(4)).max()  # max|m(k) - I|
    assert abs(frame_defect - factor_defect) <= 1e-14
