"""KAK (Cartan) decomposition of two-qubit gates.

Any U in U(4) factors as

    U = e^{iα} · k1 · A(c) · k2,

with k1, k2 tensor products of single-qubit gates, c the canonical
coordinates reduced to the Weyl chamber, and A(c) the canonical gate.  The
factorization here is exact by construction: the chamber reduction is done
with explicit reflection gates and π-translation gates folded into k1, k2
and α, never by replacing coordinates numerically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cartan import MAGIC, PAULIS, WEYL_REFLECTIONS
from .chamber import _fold, canonical_gate, coordinate_phase_pattern
from .errors import BranchSearchError, NotLocalError, VerificationError
from .invariants import _m, _spectrum, magic_transform
from .linalg import TOL_UNITARY, check_unitary, kron2

# σa⊗σa words: conjugating A(c) by nothing, they implement the π translations
# A(c + π·e_j) = A(c)·(i·W_j); the i goes into the global phase, W_j into a
# neighboring local factor.
_TRANSLATION_WORDS = (
    kron2(PAULIS["x"], PAULIS["x"]),
    kron2(PAULIS["y"], PAULIS["y"]),
    kron2(PAULIS["z"], PAULIS["z"]),
)


@dataclass(frozen=True)
class KakDecomposition:
    """U = e^{iα}·k1·a_factor·k2 with coords in the Weyl chamber.

    ``alpha`` is arg(det U)/4 plus the exact π/2 multiples absorbed while
    reducing to the chamber, wrapped to (-π, π].  ``a_factor`` equals
    canonical_gate(coords).  ``residual`` is the Frobenius reconstruction
    error actually measured.  Within TOL_BASE of the base, ``coords`` is
    the base mirror's exact image, with -TOL_BASE ≤ c3 ≤ 0; canonicalize
    maps it to the chamber point gate_coords reports.
    """

    alpha: float
    k1: np.ndarray
    k2: np.ndarray
    coords: np.ndarray
    a_factor: np.ndarray
    residual: float


def kak_reconstruct(d: KakDecomposition) -> np.ndarray:
    return np.exp(1j * d.alpha) * (d.k1 @ d.a_factor @ d.k2)


def _m_scalar(u, tol: float) -> complex | None:
    """λ when m(u) = λ·I within ``tol`` and det u = λ², else None (u checked).

    That is exactly u = e^{iφ}·(a⊗b), with λ = e^{2iφ}; SWAP has det u = -λ².
    """
    m = _m(u)
    lam = m[0, 0]
    if abs(abs(lam) - 1.0) > tol or np.max(np.abs(m - lam * np.eye(4))) > tol:
        return None
    return complex(lam) if abs(np.linalg.det(u) - lam * lam) < 1.0 else None


def is_local_gate(u, tol: float = 1e-8) -> bool:
    """True iff m(u) = I and det u = 1, i.e. the magic-basis conjugate of
    ``u`` is a rotation (real orthogonal with det +1).

    This recognizes exactly SU(2)⊗SU(2): a tensor product dressed with a
    global phase other than ±1 does NOT pass (its m is e^{2iφ}·I).
    """
    lam = _m_scalar(check_unitary(u, tol=max(tol, TOL_UNITARY)), tol)
    return lam is not None and abs(lam - 1.0) <= tol


@dataclass(frozen=True)
class LocalFactors:
    """k = e^{i·phase}·(a ⊗ b) with a, b single-qubit gates of det 1."""

    a: np.ndarray
    b: np.ndarray
    phase: float


def factor_local(k, tol: float = 1e-8) -> LocalFactors:
    """Split a local gate into its single-qubit factors and a global phase.

    Accepts any e^{iφ}·(a⊗b); the test, m(k) = λ·I with det k = λ², is
    phase-blind (strictly local gates come back with phase 0 or π).

    Raises
    ------
    NotLocalError
        If m(k) is not λ·I with det k = λ² within ``tol``, or the
        rank-one factorization leaves a residual above ``tol``.
    """
    k = check_unitary(k)
    if _m_scalar(k, tol) is None:
        raise NotLocalError("gate is not a tensor product of single-qubit gates")

    # Reshuffle k[(i,k),(j,l)] -> M[(i,j),(k,l)]; a tensor product becomes
    # the rank-one matrix vec(a)·vec(b)ᵀ.
    mm = k.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    p, q = np.unravel_index(np.argmax(np.abs(mm)), (4, 4))
    col = mm[:, q]
    row = mm[p, :] / mm[p, q]
    a = col.reshape(2, 2)
    b = row.reshape(2, 2)
    a = a / np.sqrt(np.linalg.det(a))
    b = b / np.sqrt(np.linalg.det(b))
    ab = kron2(a, b)
    phase = float(np.angle(np.trace(ab.conj().T @ k) / 4.0))
    resid = np.linalg.norm(k - np.exp(1j * phase) * ab)
    if resid > tol:
        raise NotLocalError(f"tensor factorization residual {resid:.3e} > {tol:.1e}")
    return LocalFactors(a=a, b=b, phase=phase)


def kak_decompose(u, tol: float = TOL_UNITARY) -> KakDecomposition:
    """Factor a two-qubit gate as e^{iα}·k1·A(c)·k2 with c in the chamber.

    Algorithm: scale to SU(4); in the magic basis, jointly diagonalize the
    real and imaginary parts of m = u_Bᵀu_B to get the eigenframe and
    balanced eigenphases; solve the phase pattern for raw coordinates; with
    F the square root of the diagonal factor, the left frame u_B·o2ᵀ·F̄ is
    real (complex orthogonal and unitary); finally fold the raw coordinates
    into the chamber (the moves canonicalize makes) and absorb each move
    exactly: a π-translation as a σa⊗σa word in k2 and a phase in α, a
    reflection as its local gate in k1 and k2.

    Raises
    ------
    BranchSearchError
        If the left frame is not real within 1e-8.
    VerificationError
        If the reconstruction residual exceeds 1e-9.
    """
    return _kak(check_unitary(u, tol=tol))


def _kak(u) -> KakDecomposition:
    """kak_decompose's core."""
    alpha = float(np.angle(np.linalg.det(u)) / 4.0)
    u1 = np.exp(-1j * alpha) * u

    spec = _spectrum(u)
    theta = spec.theta_balanced
    o2 = spec.frame
    ub = magic_transform(u1)

    c_raw = np.array(
        [
            (theta[0] + theta[1]) / 2.0,
            (theta[1] + theta[3]) / 2.0,
            (theta[0] + theta[3]) / 2.0,
        ]
    )
    f = np.exp(0.5j * coordinate_phase_pattern(c_raw))
    o1 = ub @ (o2.T * f.conj())
    if np.max(np.abs(o1.imag)) >= 1e-8:
        raise BranchSearchError("the square-root branch did not produce a real frame")

    k1 = MAGIC @ o1.real @ MAGIC.conj().T
    k2 = MAGIC @ o2 @ MAGIC.conj().T

    # Each move keeps u = e^{iα}·k1·A(c)·k2 for the running c:
    # A(c) = A(c - πn·e_axis)·(i·W_axis)^n and A(c) = g†·A(action·c)·g.
    coords, moves = _fold(c_raw)
    for move in moves:
        if isinstance(move, str):
            g = WEYL_REFLECTIONS[move].gate
            k1 = k1 @ g.conj().T
            k2 = g @ k2
        else:
            axis, n = move
            alpha += n * np.pi / 2.0
            if n % 2:
                k2 = _TRANSLATION_WORDS[axis] @ k2
    alpha_out = float(np.angle(np.exp(1j * alpha)))  # wrap to (-π, π]
    a_factor = canonical_gate(coords)

    rec = np.exp(1j * alpha_out) * (k1 @ a_factor @ k2)
    residual = float(np.linalg.norm(u - rec))
    if residual > 1e-9:
        raise VerificationError(f"reconstruction residual {residual:.3e} > 1e-9")
    lams = (_m_scalar(k1, 1e-8), _m_scalar(k2, 1e-8))
    if any(lam is None or abs(lam - 1.0) > 1e-8 for lam in lams):
        raise VerificationError("a reduced outer factor failed local recognition")

    return KakDecomposition(
        alpha=alpha_out,
        k1=k1,
        k2=k2,
        coords=coords,
        a_factor=a_factor,
        residual=residual,
    )
