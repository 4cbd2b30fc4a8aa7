"""KAK (Cartan) decomposition of two-qubit gates.

Any U in U(4) factors as

    U = e^{iα} · k1 · A(c) · k2,

with k1, k2 tensor products of single-qubit gates, c the canonical
coordinates reduced to the Weyl chamber, and A(c) the canonical gate.  The
factorization here is exact by construction: the chamber reduction is one
Weyl-group element and one π-translation, absorbed into k1, k2 and α as a
local gate, a Pauli word and a phase, never by replacing coordinates
numerically.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .cartan import _CARTAN_WORDS, _WEYL_GATES, MAGIC, Q_DAG
from .chamber import _canonical_gate
from .errors import NotLocalError, VerificationError
from .invariants import _Gate, _gate
from .linalg import check_unitary

__all__ = [
    "KakDecomposition",
    "LocalFactors",
    "factor_local",
    "is_local_gate",
    "kak_decompose",
    "kak_reconstruct",
]

# The σj⊗σj words W_j implement the π translations A(c + π·e_j) = A(c)·(i·W_j);
# the i goes into the global phase, W_j into a neighboring local factor.
# _PARITY_WORDS holds Π_j W_j^(b_j) for each parity vector b, indexed by
# b·(1, 2, 4): each word doubles the table, multiplying the words before it
# from the left.
_PARITY_WORDS = reduce(
    lambda ws, w: np.concatenate([ws, w @ ws]), _CARTAN_WORDS, np.eye(4, dtype=complex)[None]
)
_PARITY_KEY = np.array([1, 2, 4])
_WEYL_GATES_Q = _WEYL_GATES @ MAGIC  # g_P·Q: k1 and k2 absorb g_P with the basis change
_WEYL_GATES_Q_DAG = _WEYL_GATES_Q.conj().swapaxes(-1, -2)  # (g_P·Q)†, which k1 absorbs
_EYE = np.eye(4)
_TOL_LOCAL = 1e-8  # the locality test's bound on m = λ·I and on a tensor factorization


@dataclass(frozen=True, eq=False)
class KakDecomposition:
    """U = e^{iα}·k1·a_factor·k2 with coords in the Weyl chamber.

    ``alpha`` is arg(det U)/4 minus (π/2)·Σn for the fold's translation n,
    wrapped to (-π, π].  Where several Weyl-group elements map the raw
    coordinates to the fold's image equally exactly (a tie, as at the
    identity or sqrt-SWAP), the first in the group's table is taken, and
    k1, k2 and α follow it.  ``a_factor`` equals canonical_gate(coords).
    ``residual`` is the Frobenius reconstruction
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


def _m_scalar(u) -> np.ndarray:
    """Per gate of a stack (..., 4, 4) of checked gates: λ where m(u) = λ·I
    within _TOL_LOCAL and det u = λ², NaN elsewhere.

    That is exactly u = e^{iφ}·(a⊗b), with λ = e^{2iφ}; SWAP has det u = -λ².
    """
    g = _Gate(u)
    lam = g.m[..., 0, 0]
    off = np.abs(g.m - lam[..., None, None] * _EYE).max((-2, -1))
    ok = (np.abs(np.abs(lam) - 1.0) <= _TOL_LOCAL) & (off <= _TOL_LOCAL)
    ok &= np.abs(g.det - lam * lam) < 1.0
    return np.where(ok, lam, np.nan)


def is_local_gate(u) -> bool:
    """True iff m(u) = I and det u = 1 within 1e-8 (u unitary within 1e-9), i.e.
    the magic-basis conjugate of ``u`` is a rotation (real orthogonal, det +1).

    This recognizes exactly SU(2)⊗SU(2): a tensor product dressed with a
    global phase other than ±1 does NOT pass (its m is e^{2iφ}·I).
    """
    lam = _m_scalar(check_unitary(u))
    return bool(abs(lam - 1.0) <= _TOL_LOCAL)  # False for NaN


@dataclass(frozen=True, eq=False)
class LocalFactors:
    """k = e^{i·phase}·(a ⊗ b) with a, b single-qubit gates of det 1."""

    a: np.ndarray
    b: np.ndarray
    phase: float


def factor_local(k) -> LocalFactors:
    """Split a local gate into its single-qubit factors and a global phase.

    Accepts any e^{iφ}·(a⊗b); the test, m(k) = λ·I with det k = λ², is
    phase-blind (strictly local gates come back with phase 0 or π).

    Raises
    ------
    NotLocalError
        If m(k) is not λ·I with det k = λ² within 1e-8, or the
        rank-one factorization leaves a residual above 1e-8.
    """
    k = check_unitary(k)
    if np.isnan(_m_scalar(k)):
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
    ab = np.kron(a, b)
    phase = float(np.angle(np.trace(ab.conj().T @ k) / 4.0))
    resid = np.linalg.norm(k - np.exp(1j * phase) * ab)
    if resid > _TOL_LOCAL:
        raise NotLocalError(f"tensor factorization residual {resid:.3e} > {_TOL_LOCAL:.1e}")
    return LocalFactors(a=a, b=b, phase=phase)


def kak_decompose(u) -> KakDecomposition:
    """Factor a two-qubit gate as e^{iα}·k1·A(c)·k2 with c in the chamber.

    Algorithm: with α = arg(det U)/4, the det-one gate e^{-iα}·U has
    m = e^{-2iα}·u_Bᵀu_B in the magic basis; jointly diagonalize its real
    and imaginary parts to get the eigenframe o2 and balanced eigenphases θ;
    with F = diag(e^{iθ/2}) the left frame e^{-iα}·u_B·o2ᵀ·F̄ is real
    (complex orthogonal and unitary); finally fold the raw coordinates the
    phases give into the chamber (the moves canonicalize makes) and absorb
    their composite c -> P·c + π·n exactly: P as its local gate g_P in k1
    and k2, n as a σa⊗σa word per odd n_j in k2 and a phase -(π/2)·Σn in α.
    The gate's record (``invariants._Gate``) holds u_B, m, det U, the
    spectrum and the fold, so the other single-gate analyses of the same
    gate share them.

    Raises
    ------
    VerificationError
        If the left frame is not real within 1e-8, the real frames o1
        and o2 of the outer factors are not rotations (max|oᵀo - I| above
        5e-9, or det o ≤ 0), or the reconstruction residual exceeds 1e-9.
    """
    return _kak(_gate(u))


def _kak(g: _Gate) -> KakDecomposition:
    """kak_decompose's core on a gate's record.  It forms no m or det of a
    gate: α comes from the record, the frames from its U_B and spectrum,
    and the coordinates, P and n from its fold.  The outer factors k1 and
    k2 are checked local on their real magic-basis frames o1 and o2, in
    one stacked rotation test."""
    alpha = float(g.alpha)
    theta, o2 = g.spectrum.theta_balanced, g.spectrum.frame
    # The det-one gate's U_B is e^{-iα}·U_B, and F = diag(e^{iθ/2}).
    o1 = g.ub @ (o2.T * np.exp(-1j * (alpha + 0.5 * theta)))
    if np.abs(o1.imag).max() >= 1e-8:
        raise VerificationError("the square-root branch did not produce a real frame")
    # The outer factors are local iff o1 and o2 are rotations.  Below,
    # k1 = Q·o1·Sᵀ·Q† and k2 = Q·D·S·o2·Q†, with S = Q†·g_P·Q a signed
    # permutation and D = Q†·W·Q a ±1 diagonal, both of det +1
    # (tests/test_kak.py).  So m(k1) = S·o1ᵀo1·Sᵀ, m(k2) = o2ᵀo2 and
    # det k = det o: m(k) - I holds the entries of oᵀo - I, signed and
    # permuted.  A defect d = max|oᵀo - I| ≤ _TOL_LOCAL/2 with det o > 0
    # implies _m_scalar's test at λ = m(k)[0, 0] = 1 ± d: max|m(k) - λ·I|
    # ≤ 2·d ≤ _TOL_LOCAL (two diagonal entries differ by at most 2·d), and
    # det k = +√det(oᵀo) lies within about 2·d of 1, as λ² does.  So this
    # test is never looser than that one, up to the rounding of m(k) itself
    # (about 1e-15).
    o = np.array([o1.real, o2])
    defect = np.abs(o.swapaxes(-1, -2) @ o - _EYE).max()
    if not (defect <= _TOL_LOCAL / 2 and (np.linalg.det(o) > 0).all()):  # NaN fails
        raise VerificationError("a reduced outer factor failed local recognition")

    # Before the fold, k1 = Q·o1·Q† and k2 = Q·o2·Q†.  With
    # coords = P·c_raw + π·n: A(c) = g_P†·A(P·c)·g_P, and
    # A(y) = A(y + π·n)·Π_j (-i·W_j)^(n_j), the W_j commuting and squaring to I.
    coords, p, n = g.fold
    k1 = MAGIC @ o1.real @ _WEYL_GATES_Q_DAG[p]
    k2 = _PARITY_WORDS[(n % 2) @ _PARITY_KEY] @ _WEYL_GATES_Q[p] @ o2 @ Q_DAG
    alpha -= np.pi / 2.0 * n.sum(-1)
    turn = np.exp(1j * alpha)
    alpha_out = float(np.arctan2(turn.imag, turn.real))  # wrap to (-π, π], as np.angle does
    a_factor = _canonical_gate(coords)

    rec = np.exp(1j * alpha_out) * (k1 @ a_factor @ k2)
    residual = float(np.linalg.norm(g.u - rec))
    if residual > 1e-9:
        raise VerificationError(f"reconstruction residual {residual:.3e} > 1e-9")

    return KakDecomposition(
        alpha=alpha_out,
        k1=k1,
        k2=k2,
        coords=coords.copy(),
        a_factor=a_factor,
        residual=residual,
    )
