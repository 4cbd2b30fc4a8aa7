"""Canonical coordinates: symmetry reduction, named gates, inverses."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import PI, rand_chamber_point, rand_local, rand_u4
from weylgate import (
    InvalidInputError,
    canonical_gate,
    canonicalize,
    controlled_gate,
    coords_of_inverse,
    gate_coords,
    in_chamber,
    invariants_from_coords,
    local_invariants,
    named_gate,
    pe_from_coords,
    weyl_orbit,
)

# Frozen oracle: canonical coordinates of the named gates.
NAMED_COORDS = {
    "identity": [0.0, 0.0, 0.0],
    "cnot": [PI / 2, 0.0, 0.0],
    "cz": [PI / 2, 0.0, 0.0],
    "iswap": [PI / 2, PI / 2, 0.0],
    "swap": [PI / 2, PI / 2, PI / 2],
    "sqrtswap": [PI / 4, PI / 4, PI / 4],
    "sqrtswap_inv": [3 * PI / 4, PI / 4, PI / 4],
}


def test_named_gate_coords():
    for name, c in NAMED_COORDS.items():
        assert_allclose(gate_coords(named_gate(name)), c, atol=1e-8, err_msg=name)


def test_controlled_rotation_coords():
    for gamma in np.linspace(0.05, PI / 2, 15):
        u = controlled_gate([gamma, 0.0, 0.0])
        assert_allclose(gate_coords(u), [gamma, 0.0, 0.0], atol=1e-8)


def test_controlled_gate_axis_free():
    # The rotation axis is a local detail: only the angle shows up.
    rng = np.random.default_rng(31)
    for _ in range(10):
        axis = rng.standard_normal(3)
        axis *= 0.9 / np.linalg.norm(axis)
        gamma = np.linalg.norm(axis)
        u = controlled_gate(axis)
        assert_allclose(gate_coords(u), [gamma, 0.0, 0.0], atol=1e-8)


def test_named_gate_unknown():
    with pytest.raises(ValueError, match="UnknownGate"):
        named_gate("frobnicator")


def test_vertices_in_chamber():
    for c in NAMED_COORDS.values():
        assert in_chamber(c)
    assert not in_chamber([PI / 2 + 0.2, PI / 2 + 0.1, 0.0])  # c1+c2 > π
    assert not in_chamber([0.5, 0.7, 0.1])  # not sorted
    assert not in_chamber([0.5, 0.3, -0.1])  # negative


def test_canonicalize_lands_in_chamber():
    rng = np.random.default_rng(32)
    for _ in range(200):
        c = rng.uniform(-2 * PI, 2 * PI, size=3)
        out = canonicalize(c)
        assert in_chamber(out, tol=1e-9)
        # Same local-equivalence class: closed-form invariants must agree.
        a = invariants_from_coords(c)
        b = invariants_from_coords(out)
        assert abs(a.g1 - b.g1) < 1e-9
        assert abs(a.g2 - b.g2) < 1e-9


@pytest.mark.parametrize("fn", [canonicalize, coords_of_inverse, pe_from_coords, weyl_orbit])
def test_fold_refuses_coordinates_from_two_to_the_53(fn):
    # From 2^53 on, neighboring floats are 2 apart and c mod π is noise:
    # canonicalize([1e18, 0.3, 0.2]) once returned [2.84, 0.805, 0.2],
    # outside the chamber, and weyl_orbit 24 images built on 1e18 mod π.
    for c in ([1e18, 0.3, 0.2], [0.3, -(2.0**53), 0.2], [0.3, 0.2, 2.0**53]):
        with pytest.raises(InvalidInputError, match="2\\^53"):
            fn(c)


def test_fold_takes_the_largest_float_below_two_to_the_53():
    below = np.nextafter(2.0**53, 0.0)
    for c in ([below, 0.3, 0.2], [0.3, -below, 0.2], [0.3, 0.2, below]):
        assert in_chamber(canonicalize(c)), c
        assert all(((0.0 <= p) & (p <= PI)).all() for p in weyl_orbit(c)), c


def test_fold_keeps_a_coordinate_reduced_past_pi_in_the_chamber():
    # At this magnitude c mod π rounds by about 1e-4, and one coordinate
    # reduces to just above π.  The reflection across c1 + c2 = π adds π to
    # its two axes; a re-reduction mod π once added 2π to that one, and the
    # point came back with c1 + c2 near 2π.
    c = [-401474416905.8347, 549877854374.7069, -473059334399.8623]
    assert in_chamber(canonicalize(c))


def test_canonicalize_idempotent():
    rng = np.random.default_rng(33)
    for _ in range(100):
        out = canonicalize(rng.uniform(-PI, PI, size=3))
        assert_allclose(canonicalize(out), out, atol=1e-12)


def test_canonicalize_constant_on_orbit():
    rng = np.random.default_rng(34)
    for _ in range(20):
        c = rand_chamber_point(rng)
        ref = canonicalize(c)
        for image in weyl_orbit(c):
            assert_allclose(canonicalize(image), ref, atol=1e-9)


def test_base_mirror_rule():
    # On the chamber base (c3 = 0) the two mirror-image points are the same
    # gate class; the smaller first coordinate is the canonical one.
    assert_allclose(canonicalize([3 * PI / 4, 0.0, 0.0]), [PI / 4, 0.0, 0.0], atol=1e-12)
    c = canonicalize([2.0, 0.0, 0.0])
    assert c[0] <= PI / 2 + 1e-12
    # Off the base, first coordinates above π/2 survive.
    out = canonicalize([3 * PI / 4, PI / 4, PI / 4])
    assert_allclose(out, [3 * PI / 4, PI / 4, PI / 4], atol=1e-12)


def test_orbit_size_and_duplicates():
    rng = np.random.default_rng(35)
    generic = canonicalize([0.9, 0.6, 0.2])
    orbit = weyl_orbit(generic)
    assert len(orbit) == 24
    assert len(weyl_orbit([0.0, 0.0, 0.0])) == 1


def test_gate_coords_inverts_canonical_gate():
    rng = np.random.default_rng(36)
    for _ in range(50):
        c = canonicalize(rand_chamber_point(rng))
        assert_allclose(gate_coords(canonical_gate(c)), c, atol=1e-8)


def test_gate_coords_ignores_dressing_and_phase():
    rng = np.random.default_rng(37)
    for _ in range(25):
        c = canonicalize(rand_chamber_point(rng))
        u = np.exp(1j * rng.uniform(0, 2 * PI)) * (
            rand_local(rng) @ canonical_gate(c) @ rand_local(rng)
        )
        assert_allclose(gate_coords(u), c, atol=1e-7)


def test_gate_coords_consistent_with_invariants():
    rng = np.random.default_rng(38)
    for _ in range(25):
        u = rand_u4(rng)
        c = gate_coords(u)
        assert in_chamber(c, tol=1e-7)
        inv_u = local_invariants(u)
        inv_c = invariants_from_coords(c)
        assert abs(inv_u.g1 - inv_c.g1) < 1e-8
        assert abs(inv_u.g2 - inv_c.g2) < 1e-8


def test_coords_of_inverse():
    rng = np.random.default_rng(39)
    for _ in range(25):
        u = rand_u4(rng)
        expected = gate_coords(u.conj().T)
        assert_allclose(coords_of_inverse(gate_coords(u)), expected, atol=1e-7)


def test_coords_of_inverse_named():
    # The inverse class mirrors the first coordinate through π/2 (then
    # re-canonicalizes); the square-root-of-swap pair is the standard example.
    assert_allclose(
        coords_of_inverse(NAMED_COORDS["sqrtswap"]), NAMED_COORDS["sqrtswap_inv"], atol=1e-12
    )
    assert_allclose(
        coords_of_inverse(NAMED_COORDS["cnot"]), NAMED_COORDS["cnot"], atol=1e-12
    )
    assert_allclose(
        coords_of_inverse(NAMED_COORDS["swap"]), NAMED_COORDS["swap"], atol=1e-12
    )


def test_canonical_gate_determinant_one():
    rng = np.random.default_rng(40)
    for _ in range(10):
        c = rand_chamber_point(rng)
        u = canonical_gate(c)
        assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-12)
        assert abs(np.linalg.det(u) - 1.0) < 1e-12


def test_named_gate_keeps_a_negative_cu_angle():
    u = named_gate("cu(0.3,0,-0.2)")
    assert np.array_equal(u, controlled_gate([0.3, 0.0, -0.2]))
    assert np.array_equal(named_gate(" CU(-0.3, 0, 0) "), controlled_gate([-0.3, 0.0, 0.0]))
    assert np.array_equal(named_gate("sqrtswap-inv"), named_gate("sqrtswap_inv"))
