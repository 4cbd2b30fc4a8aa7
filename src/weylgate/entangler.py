"""Perfect entanglers: the gates that can take some product state to a
maximally entangled state.

Two equivalent tests are provided side by side and are kept independent on
purpose (they cross-check each other):

* the convex-hull test on the spectrum of m(U): U is a perfect entangler iff
  the convex hull of the eigenvalues e^{iθ_k} of m(U) (four points on the
  unit circle) contains 0, i.e. iff no arc wider than π is free of them;
* the chamber polyhedron: in canonical coordinates the perfect entanglers
  are exactly the points with c1+c2 ≥ π/2, c2+c3 ≤ π/2 and c1-c2 ≤ π/2
  (a polyhedron spanned by L, M, N, P, Q, A2).

The same spectrum gives the witness: m's real eigenframe and the hull's
convex weights build a product state that U maximally entangles.

The entanglement measure on states is Ent(ψ) = ψᵀ·P·ψ with
P = -(1/2)·σy⊗σy; |Ent| = 0 on product states and 1/2 on maximally
entangled ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .cartan import MAGIC
from .chamber import (
    VERTEX_A1,
    VERTEX_A2,
    VERTEX_A3,
    VERTEX_L,
    VERTEX_M,
    VERTEX_N,
    VERTEX_O,
    VERTEX_P,
    VERTEX_Q,
    canonicalize,
)
from .errors import (
    NotNormalizedError,
    NotPerfectEntanglerError,
    VerificationError,
)
from .invariants import MSpectrum, _spectrum
from .linalg import check_unitary

TOL_HULL = 1e-9

# Ent(ψ) = ψᵀ P ψ; P = -(1/2) σy⊗σy.
P_ENT = np.array(
    [
        [0, 0, 0, 0.5],
        [0, 0, -0.5, 0],
        [0, -0.5, 0, 0],
        [0.5, 0, 0, 0],
    ],
    dtype=complex,
)


def ent(psi, tol: float = 1e-9) -> complex:
    """The quadratic entanglement form ψᵀ·P·ψ of a normalized state."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if psi.shape != (4,):
        raise ValueError("state must have 4 amplitudes")
    norm = np.linalg.norm(psi)
    if not abs(norm - 1.0) <= tol:  # also rejects a NaN norm
        raise NotNormalizedError(f"state norm {norm} is not 1 within {tol:.1e}")
    return complex(psi @ P_ENT @ psi)


@dataclass(frozen=True)
class PeVerdict:
    """Outcome of the convex-hull perfect-entangler test.

    ``margin`` is the signed distance from 0 to the hull boundary (positive
    inside): cos(g/2) with g the widest gap between neighboring eigenphases,
    since the chord across that arc is the hull edge nearest 0 (and, when 0
    is outside, the chord's midpoint is the hull point nearest 0).
    ``weights``, present when the test passes, are convex weights
    w on the squared eigenphases z with |Σ w·z| < 1e-9, ordered like
    ``phases``.
    """

    is_pe: bool
    margin: float
    phases: np.ndarray
    weights: np.ndarray | None


def _hull_weights(z: np.ndarray, tol: float = TOL_HULL) -> np.ndarray | None:
    """Convex weights w ≥ 0, Σw = 1, with |Σ w·z| ≤ tol, or None.

    Tries an antipodal pair first, then each triangle (Carathéodory: if 0 is
    in the hull of four points it is in the hull of some three).
    """
    best_pair = None
    best_val = np.inf
    for i, j in combinations(range(4), 2):
        v = abs(z[i] + z[j]) / 2.0
        if v < best_val:
            best_val = v
            best_pair = (i, j)
    if best_val <= tol:
        w = np.zeros(4)
        w[list(best_pair)] = 0.5
        return w
    for tri in combinations(range(4), 3):
        a = np.array(
            [
                [z[k].real for k in tri],
                [z[k].imag for k in tri],
                [1.0, 1.0, 1.0],
            ]
        )
        try:
            sol = np.linalg.solve(a, np.array([0.0, 0.0, 1.0]))
        except np.linalg.LinAlgError:
            continue
        if np.all(sol >= -1e-12):
            w = np.zeros(4)
            w[list(tri)] = np.clip(sol, 0.0, None)
            w /= w.sum()
            if abs(np.dot(w, z)) <= tol:
                return w
    return None


def is_perfect_entangler(u, tol: float = TOL_HULL) -> PeVerdict:
    """Convex-hull test on the squared eigenphases of m(U).

    U is a perfect entangler iff no arc of length > π is free of
    eigenphases, i.e. iff 0 lies in the convex hull of the four points
    e^{iθ_k}.  The verdict carries the hull margin and, when the test
    passes, the convex weights that witness it.  ``tol`` is the hull's.
    """
    return _verdict(_spectrum(check_unitary(u)), tol)


def _verdict(spec: MSpectrum, tol: float) -> PeVerdict:
    theta = np.sort(spec.theta)
    gaps = np.diff(np.concatenate([theta, [theta[0] + 2 * np.pi]]))
    max_gap = float(np.max(gaps))
    is_pe = max_gap <= np.pi + tol
    z = np.exp(1j * spec.theta)
    margin = float(np.cos(max_gap / 2))
    weights = _hull_weights(z, tol=tol) if is_pe else None
    if is_pe and weights is None:
        raise VerificationError("hull test passed but no convex witness found")
    return PeVerdict(is_pe=is_pe, margin=margin, phases=z, weights=weights)


def pe_from_coords(coords, tol: float = TOL_HULL) -> bool:
    """Polyhedron membership in canonical coordinates (canonicalizes first):
    c1+c2 ≥ π/2, c2+c3 ≤ π/2, c1-c2 ≤ π/2."""
    return bool(_in_pe(canonicalize(coords), tol))


def _in_pe(c, tol: float = TOL_HULL) -> np.ndarray:
    """The polyhedron test on a stack (..., 3) of chamber coordinates."""
    c1, c2, c3 = c[..., 0], c[..., 1], c[..., 2]
    return (c1 + c2 >= np.pi / 2 - tol) & (c2 + c3 <= np.pi / 2 + tol) & (c1 - c2 <= np.pi / 2 + tol)


def entangling_input(u, tol: float = TOL_HULL):
    """A product state that the perfect entangler ``u`` maximally entangles.

    Returns ``(psi_in, psi_out)`` with |Ent(psi_in)| < 1e-9 and
    |Ent(psi_out)| = 1/2 within 1e-9, psi_out = u·psi_in.

    Construction: the spectrum gives m(e^{-iα}·U) = Oᵀ·diag(e^{iθ})·O with
    det U = e^{4iα} and O real orthogonal, and the hull gives weights w with
    Σ w·e^{iθ} = 0.  The magic-frame vector φ_k = sqrt(w_k)·e^{-iθ_k/2}
    gives ψ = Q·Oᵀ·φ.  In the magic basis Ent(Q·x) = xᵀx/2, so
    Ent(ψ) = Σ w·e^{-iθ}/2 = 0 and Ent(U·ψ) = e^{2iα}·φᵀ·diag(e^{iθ})·φ/2
    = e^{2iα}/2, on any branch of θ/2.

    Raises
    ------
    NotPerfectEntanglerError
        If the hull test fails.
    """
    u = check_unitary(u)
    spec = _spectrum(u)
    verdict = _verdict(spec, tol)
    if not verdict.is_pe:
        raise NotPerfectEntanglerError(
            f"gate is not a perfect entangler (hull margin {verdict.margin:.3e})"
        )
    phi = np.sqrt(verdict.weights) * np.exp(-0.5j * spec.theta)
    psi_in = MAGIC @ spec.frame.T @ phi
    psi_out = u @ psi_in
    if abs(ent(psi_in)) > 1e-9 or abs(abs(ent(psi_out)) - 0.5) > 1e-9:
        raise VerificationError("entangling input failed its self-check")
    return psi_in, psi_out


# ---------------------------------------------------------------------------
# Volumes


@dataclass(frozen=True)
class VolumeReport:
    """Euclidean volumes in coordinate space, exact (no sampling)."""

    chamber: float
    corner_l_q_p_o: float
    corner_n_p_a2_a3: float
    corner_l_m_n_a1: float
    perfect_entanglers: float

    @property
    def fraction(self) -> float:
        return self.perfect_entanglers / self.chamber


def _tetra_volume(a, b, c, d) -> float:
    return float(abs(np.linalg.det(np.stack([b - a, c - a, d - a]))) / 6.0)


def pe_volume_exact() -> VolumeReport:
    """The perfect-entangler polyhedron volume by exact tetrahedra.

    The chamber splits into the PE polyhedron plus three corner tetrahedra
    (at the identity, at SWAP, and at the far identity corner A1); the PE
    volume is π³/48, exactly half the chamber's π³/24.
    """
    chamber = _tetra_volume(VERTEX_O, VERTEX_A1, VERTEX_A2, VERTEX_A3)
    t1 = _tetra_volume(VERTEX_L, VERTEX_Q, VERTEX_P, VERTEX_O)
    t2 = _tetra_volume(VERTEX_N, VERTEX_P, VERTEX_A2, VERTEX_A3)
    t3 = _tetra_volume(VERTEX_L, VERTEX_M, VERTEX_N, VERTEX_A1)
    return VolumeReport(
        chamber=chamber,
        corner_l_q_p_o=t1,
        corner_n_p_a2_a3=t2,
        corner_l_m_n_a1=t3,
        perfect_entanglers=chamber - t1 - t2 - t3,
    )


def pe_fraction_mc(n: int, seed: int) -> float:
    """Monte-Carlo estimate of the perfect-entangler fraction of the chamber.

    Samples uniformly in the chamber (sort three uniforms on [0, π]
    descending, reject when c1+c2 > π) using a counter-based generator, so
    the result is a pure function of (n, seed).  The polyhedron test is the
    three closed inequalities, applied directly (samples are already
    canonical with probability 1).
    """
    if n <= 0:
        raise ValueError("sample count must be positive")
    rng = np.random.Generator(np.random.Philox(key=seed))
    accepted = 0
    hits = 0
    while accepted < n:
        block = rng.uniform(0.0, np.pi, size=(max(4 * (n - accepted), 1024), 3))
        block.sort(axis=1)
        block = block[:, ::-1]  # descending per row
        block = block[block[:, 0] + block[:, 1] <= np.pi]
        if block.shape[0] > n - accepted:
            block = block[: n - accepted]
        accepted += block.shape[0]
        hits += int(np.count_nonzero(_in_pe(block, 0.0)))
    return hits / n
