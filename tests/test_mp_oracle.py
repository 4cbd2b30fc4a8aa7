"""Canonical coordinates and local invariants against a 40-digit oracle.

The corpus records what the library returned, and the scipy oracles run the
same double-precision LAPACK: neither says how far an answer is from the true
one.  Here mpmath carries 40 significant digits through the paper's route
(Sec. III, the spectrum of m gives the coordinates): m = U_Bᵀ·U_B with U_B
in the magic basis, scaled to det 1, its eigenvalues (``mp.eig``), their
phases balanced to sum zero, the raw coordinates and the fold to the chamber
point, as ``gate_coords`` reads them; and g1 = tr²m / (16 det U),
g2 = Re (tr²m - tr m²) / (4 det U).  The double-precision input is taken as
exact, so the difference is the library's forward error (Higham, *Accuracy
and Stability of Numerical Algorithms*, 2nd ed., SIAM 2002, ch. 1).

The inputs are a fixed slice of the corpus gates: the first 100 Haar rows,
and the nine chamber vertices dressed with random locals at ε = 0, 1e-12,
1e-9 and 1e-7.  Each output must lie within 1e-13 of the oracle; the worst
measured over all 600 Haar rows and the 36 dressed vertices is 6.7e-16 on
the coordinates, 1.0e-15 on g1 and 3.1e-15 on g2, all on this slice.
"""

from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import weylgate as wg
from weylgate import chamber
from weylgate.cartan import _TOL_CHAMBER, TOL_BASE

with np.load(Path(__file__).resolve().parent / "data" / "corpus.npz") as _file:
    GATES = _file["gate_u"]

BOUND = 1e-13
HAAR = 100  # of the corpus's 600 Haar rows, which come first
# After the Haar rows and the eight named gates: each vertex at each ε.
VERTICES = ("O", "A1", "A2", "A3", "L", "M", "N", "P", "Q")
EPSILONS = (0.0, 1e-12, 1e-9, 1e-7)
FIRST_VERTEX_ROW = 608
ROWS = {f"haar{i}": i for i in range(HAAR)} | {
    f"{v}-{eps:g}": FIRST_VERTEX_ROW + len(EPSILONS) * j + k
    for j, v in enumerate(VERTICES)
    for k, eps in enumerate(EPSILONS)
}
DIGITS = 40


def _fold(c):
    """The chamber point of raw coordinates ``c``: the moves of
    ``cartan._fold``, then magnitudes sorted descending."""
    pi = mp.pi
    c = sorted((x - pi * mp.floor(x / pi) for x in c), reverse=True)
    if c[0] + c[1] > pi:
        c = sorted([pi - c[1], pi - c[0], c[2]], reverse=True)
    if c[2] <= TOL_BASE and c[0] > pi / 2 + _TOL_CHAMBER:
        c = [pi - c[0], c[1], -c[2]]
    return sorted((abs(x) for x in c), reverse=True)


def _oracle(u):
    """(chamber point, g1, g2) of ``u`` at DIGITS significant digits."""
    with mp.workdps(DIGITS):
        q = mp.matrix(np.rint(np.sqrt(2.0) * wg.MAGIC).tolist()) / mp.sqrt(2)  # exact
        u = mp.matrix(u.tolist())
        ub = q.H * u * q
        m = ub.T * ub
        det = mp.det(u)
        tr, tr_m2 = (sum(x[i, i] for i in range(4)) for x in (m, m * m))
        g1 = tr * tr / (16 * det)
        g2 = ((tr * tr - tr_m2) / (4 * det)).real
        # e^{-2iα}·m is m of the det-one gate e^{-iα}·U, α = arg(det U)/4.
        scaled = mp.exp(-1j * mp.arg(det) / 2) * m
        theta = sorted(mp.arg(z) for z in mp.eig(scaled, left=False, right=False))
        # Phases summing to 2πk: the k largest lose 2π, or the -k smallest gain it.
        k = int(mp.nint(sum(theta) / (2 * mp.pi)))
        if k > 0:
            theta = theta[: 4 - k] + [t - 2 * mp.pi for t in theta[4 - k :]]
        elif k < 0:
            theta = [t + 2 * mp.pi for t in theta[:-k]] + theta[-k:]
        raw = [(theta[0] + theta[1]) / 2, (theta[1] + theta[3]) / 2, (theta[0] + theta[3]) / 2]
        return _fold(raw), g1, g2


@pytest.mark.parametrize("row", ROWS.values(), ids=ROWS.keys())
def test_coordinates_and_invariants_match_the_oracle(row):
    u = GATES[row]
    coords, g1, g2 = _oracle(u)
    inv = wg.local_invariants(u)
    assert np.abs(wg.gate_coords(u) - np.array(coords, dtype=float)).max() <= BOUND
    assert abs(inv.g1 - complex(g1)) <= BOUND
    assert abs(inv.g2 - float(g2)) <= BOUND


def test_undressed_vertex_rows_are_the_vertices():
    # The slice reads the rows it names: at ε = 0 each dressed vertex is its
    # vertex's chamber point.
    for j, vertex in enumerate(VERTICES):
        u = GATES[FIRST_VERTEX_ROW + len(EPSILONS) * j]
        target = wg.canonicalize(getattr(chamber, f"VERTEX_{vertex}"))
        assert np.abs(wg.gate_coords(u) - target).max() <= 1e-12, vertex
