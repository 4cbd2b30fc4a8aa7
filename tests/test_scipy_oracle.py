"""Flows against an oracle outside the library's numerics.

The library forms exp(i·t·H) from the eigendecomposition of H.  scipy's
``expm`` takes another route, Padé approximation with scaling and squaring
(Al-Mohy and Higham, SIAM J. Matrix Anal. Appl. 31, 2009), so agreement
checks the flow, and the invariants ``trajectory`` reads along it, against
arithmetic the library does not share.
"""

import numpy as np
import pytest
from scipy.linalg import expm

import weylgate as wg

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
