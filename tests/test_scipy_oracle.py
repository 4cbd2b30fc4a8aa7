"""Flows and the perfect-entangler polyhedron against oracles outside the
library's numerics.

The library forms exp(i·t·H) from the eigendecomposition of H.  scipy's
``expm`` takes another route, Padé approximation with scaling and squaring
(Al-Mohy and Higham, SIAM J. Matrix Anal. Appl. 31, 2009), so agreement
checks the flow, the invariants ``trajectory`` reads along it, and the
products ``plan_unitary`` multiplies out in the flow's eigenbasis, against
arithmetic the library does not share.  scipy's Delaunay triangulation of
the polyhedron's vertices L, M, N, P, Q and A2 (Qhull) checks its exact volume
and the coordinate membership test.
"""

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.spatial import ConvexHull, Delaunay

import weylgate as wg
from conftest import rand_chamber_point, rand_local, rand_nonlocal_hamiltonian, rand_u4
from weylgate import chamber

# The couplings of the flow benchmark, by kind.
FLOWS = {
    "isotropic": wg.HamiltonianSpec.isotropic,
    "xy": wg.HamiltonianSpec.xy,
    "ising": wg.HamiltonianSpec.ising,
    "exchange": lambda: wg.HamiltonianSpec.exchange(1.0, 0.5, 0.2, 0.0),
    "josephson": lambda: wg.HamiltonianSpec.josephson(1.2),
}


def test_expm_i_hermitian_matches_scipy():
    rng = np.random.default_rng(20261019)
    for _ in range(200):
        z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h, t = (z + z.conj().T) / 2, rng.uniform(-20.0, 20.0)
        assert np.abs(wg.expm_i_hermitian(h, t) - expm(1j * t * h)).max() <= 1e-12


@pytest.mark.parametrize("kind", FLOWS)
def test_trajectory_invariants_match_scipy_flow(kind):
    spec = FLOWS[kind]()
    h = wg.realize(spec)
    times = np.linspace(-2.0, 2.2 * np.pi, 61)
    for row in wg.trajectory(spec, times):
        ref = wg.local_invariants(expm(1j * row.t * h))
        assert abs(row.invariants.g1 - ref.g1) <= 1e-12
        assert abs(row.invariants.g2 - ref.g2) <= 1e-12


def _expm_product(plan, h):
    """locals[3]·U(t3)·locals[2]·U(t2)·locals[1]·U(t1)·locals[0], U(t) from scipy."""
    u = plan.locals[0]
    for t, k in zip(plan.times, plan.locals[1:]):
        u = k @ expm(1j * t * h) @ u
    return u


def _synth_specs():
    rng = np.random.default_rng(20261020)
    return {
        "isotropic": wg.HamiltonianSpec.isotropic(),
        "exchange": wg.HamiltonianSpec.exchange(1.0, 0.5, 0.2, 0.0),
        "custom-0": wg.HamiltonianSpec.custom(rand_nonlocal_hamiltonian(rng)),
        "custom-1": wg.HamiltonianSpec.custom(rand_nonlocal_hamiltonian(rng)),
    }


@pytest.mark.parametrize("name", list(_synth_specs()))
def test_synthesized_plan_products_match_scipy(name):
    spec = _synth_specs()[name]
    h = wg.realize(spec)
    rng = np.random.default_rng(7)
    for _ in range(20):
        plan = wg.synthesize(rand_u4(rng), spec)
        assert np.abs(wg.plan_unitary(plan) - _expm_product(plan, h)).max() <= 1e-12


def test_random_local_plan_products_match_scipy():
    spec = wg.HamiltonianSpec.josephson(1.2)
    h = wg.realize(spec)
    rng = np.random.default_rng(8)
    for _ in range(20):
        locals_ = tuple(rand_local(rng) for _ in range(4))
        plan = wg.CircuitPlan(locals_, tuple(rng.uniform(-5.0, 5.0, 3).tolist()), spec)
        assert np.abs(wg.plan_unitary(plan) - _expm_product(plan, h)).max() <= 1e-12


# The vertices of the perfect-entangler polyhedron.
PE_VERTICES = np.array([getattr(chamber, f"VERTEX_{name}") for name in ("L", "M", "N", "P", "Q", "A2")])


def test_pe_volume_is_the_delaunay_volume():
    tri = Delaunay(PE_VERTICES)
    corners = PE_VERTICES[tri.simplices]  # (simplices, 4, 3)
    volume = np.abs(np.linalg.det(corners[:, 1:] - corners[:, :1])).sum() / 6.0
    assert abs(volume - np.pi**3 / 48) <= 1e-12
    assert abs(wg.pe_volume_exact().perfect_entanglers - volume) <= 1e-12


def test_pe_from_coords_matches_delaunay_membership():
    tri = Delaunay(PE_VERTICES)
    faces = ConvexHull(PE_VERTICES).equations  # unit normal n and offset d: n·x + d ≤ 0 inside
    rng = np.random.default_rng(20261022)
    checked = inside = 0
    while checked < 2000:
        c = rand_chamber_point(rng)
        if np.abs(faces[:, :3] @ c + faces[:, 3]).min() <= 1e-6:
            continue
        checked += 1
        inside += bool(tri.find_simplex(c) >= 0)
        assert wg.pe_from_coords(c) == (tri.find_simplex(c) >= 0), c
    assert 0 < inside < checked
