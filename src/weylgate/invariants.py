"""Local invariants of two-qubit gates.

Two 4x4 unitaries differ only by single-qubit gates (and a global phase) iff
they share the invariant pair (G1, G2), computed from the symmetric matrix
m = (Q†UQ)ᵀ(Q†UQ) formed in the magic basis:

    G1 = tr²(m) / (16·det U)
    G2 = (tr²(m) - tr(m²)) / (4·det U)

G1 is complex, G2 is real for unitary input (the imaginary residue is
reported as a diagnostic).  Division by det U makes both insensitive to
global phase, so any U(4) representative may be passed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cartan import MAGIC
from .linalg import TOL_UNITARY, _as_triple, check_unitary, simdiag_commuting_symmetric

Q_DAG = MAGIC.conj().T


def magic_transform(u) -> np.ndarray:
    """Conjugate a gate into the magic basis: Q† u Q."""
    return Q_DAG @ np.asarray(u, dtype=complex) @ MAGIC


def m_matrix(u, tol: float = TOL_UNITARY) -> np.ndarray:
    """The complex symmetric matrix m = u_Bᵀ u_B, u_B the magic transform."""
    return _m(check_unitary(u, tol=tol))


def _m(u) -> np.ndarray:
    ub = magic_transform(u)
    return ub.T @ ub


@dataclass(frozen=True)
class LocalInvariants:
    """The pair (g1, g2) plus the size of g2's imaginary part (should be ~0)."""

    g1: complex
    g2: float
    g2_imag_residual: float

    def as_tuple(self) -> tuple[complex, float]:
        return (self.g1, self.g2)


def local_invariants(u, tol: float = TOL_UNITARY) -> LocalInvariants:
    """Local-equivalence invariants of a two-qubit gate (phase insensitive)."""
    return _invariants(check_unitary(u, tol=tol))


def _invariants(u) -> LocalInvariants:
    m = _m(u)
    det_u = np.linalg.det(u)
    tr = np.trace(m)
    g1 = tr * tr / (16.0 * det_u)
    g2c = (tr * tr - np.trace(m @ m)) / (4.0 * det_u)
    return LocalInvariants(
        g1=complex(g1), g2=float(g2c.real), g2_imag_residual=float(abs(g2c.imag))
    )


def invariants_from_coords(coords) -> LocalInvariants:
    """Closed-form invariants of the canonical gate at coordinates (c1,c2,c3).

    For A = exp((i/2)(c1 σxσx + c2 σyσy + c3 σzσz)):

        G1 = cos²c1 cos²c2 cos²c3 - sin²c1 sin²c2 sin²c3
             + (i/4) sin 2c1 sin 2c2 sin 2c3
        G2 = 4 cos²c1 cos²c2 cos²c3 - 4 sin²c1 sin²c2 sin²c3
             - cos 2c1 cos 2c2 cos 2c3
    """
    c = _as_triple(coords)
    cos2 = np.cos(c) ** 2
    sin2 = np.sin(c) ** 2
    prod_cos = float(np.prod(cos2))
    prod_sin = float(np.prod(sin2))
    g1 = prod_cos - prod_sin + 0.25j * float(np.prod(np.sin(2 * c)))
    g2 = 4 * prod_cos - 4 * prod_sin - float(np.prod(np.cos(2 * c)))
    return LocalInvariants(g1=complex(g1), g2=float(g2), g2_imag_residual=0.0)


def invariant_distance(a: LocalInvariants, b: LocalInvariants) -> float:
    """Euclidean distance on (Re g1, Im g1, g2)."""
    return float(
        np.sqrt(abs(a.g1 - b.g1) ** 2 + (a.g2 - b.g2) ** 2)
    )


def locally_equivalent(u, v, tol: float = 1e-8) -> bool:
    """True iff u and v differ only by single-qubit gates and a phase."""
    return invariant_distance(local_invariants(u), local_invariants(v)) <= tol


@dataclass(frozen=True)
class MSpectrum:
    """Eigenphases of m(U) with U normalized to det = 1.

    ``theta`` holds the principal-branch phases in (-π, π], ordered to match
    the rows of ``frame``; ``theta_balanced`` is the same list with 2π
    subtracted/added from the largest/smallest entries so that the sum is 0
    (the 2π·k defect of the principal branches is removed).  ``frame`` is
    the real orthogonal matrix with m = frameᵀ · diag(e^{iθ}) · frame.
    """

    theta: np.ndarray
    theta_balanced: np.ndarray
    frame: np.ndarray


def m_spectrum(u, tol: float = TOL_UNITARY) -> MSpectrum:
    """Joint eigenphases and eigenframe of the symmetric unitary m(U).

    The gate is first scaled to determinant one (principal quarter root of
    det U), making det m = 1 so the balanced phases sum to zero exactly.
    Re(m) and Im(m) are commuting real symmetric matrices; they are
    diagonalized simultaneously and the phases recovered per joint
    eigenvalue pair.
    """
    return _spectrum(check_unitary(u, tol=tol))


def _spectrum(u) -> MSpectrum:
    alpha = np.angle(np.linalg.det(u)) / 4.0
    u1 = np.exp(-1j * alpha) * u
    m = _m(u1)
    dre, dim, vecs = simdiag_commuting_symmetric(m.real, m.imag)
    theta = np.arctan2(dim, dre)
    balanced = theta.copy()
    k = int(round(balanced.sum() / (2 * np.pi)))
    if k != 0:
        order = np.argsort(balanced)  # ascending
        if k > 0:
            for idx in order[::-1][:k]:
                balanced[idx] -= 2 * np.pi
        else:
            for idx in order[: -k]:
                balanced[idx] += 2 * np.pi
    return MSpectrum(theta=theta, theta_balanced=balanced, frame=vecs.T)
