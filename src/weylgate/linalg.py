"""Small dense linear-algebra utilities shared by the rest of the package.

Everything here works on explicit 4x4 (or 2x2) complex matrices.  Eigen
problems are delegated to LAPACK via numpy; the wrappers fix conventions
(descending eigenvalue order, right-handed eigenvector frames) and enforce
the pre/postconditions the higher layers rely on.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    ConvergenceError,
    NotHermitianError,
    NotSymmetricError,
    NotUnitaryError,
)

TOL_UNITARY = 1e-9
TOL_HERMITIAN = 1e-9
TOL_SYMMETRIC = 1e-9
TOL_EIG = 1e-10

# Blend weights tried when jointly diagonalizing a commuting symmetric pair.
# The first value is the default; the rest are fallbacks with no small
# rational relations between them, so an eigenvalue collision at one weight
# is broken at the next.
_SIMDIAG_WEIGHTS = (0.42671, 0.9650714257, 1.6180339887, 0.2231435513, 2.7182818284)


def _as_square(a, n: int, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a)
    if a.shape != (n, n):
        raise ValueError(f"{name} must be {n}x{n}, got shape {a.shape}")
    return a


def check_unitary(u, tol: float = TOL_UNITARY, n: int = 4) -> np.ndarray:
    """Return ``u`` as a complex array after checking u†u = I within ``tol``
    (non-finite entries fail the check)."""
    u = _as_square(u, n).astype(complex)
    if not np.isfinite(u).all():
        raise NotUnitaryError("matrix has non-finite entries")
    defect = np.linalg.norm(u.conj().T @ u - np.eye(n))
    if defect > tol:
        raise NotUnitaryError(f"matrix is not unitary: ||u†u - I|| = {defect:.3e} > {tol:.1e}")
    return u


def check_hermitian(h, tol: float = TOL_HERMITIAN, n: int = 4) -> np.ndarray:
    """Return ``h`` as a complex array after checking h = h† within ``tol``
    (non-finite entries fail the check)."""
    h = _as_square(h, n).astype(complex)
    if not np.isfinite(h).all():
        raise NotHermitianError("matrix has non-finite entries")
    defect = np.linalg.norm(h - h.conj().T)
    if defect > tol:
        raise NotHermitianError(f"matrix is not Hermitian: ||h - h†|| = {defect:.3e} > {tol:.1e}")
    return h


def kron2(a, b) -> np.ndarray:
    """Tensor product of two single-qubit operators (first factor = qubit 1)."""
    a = _as_square(a, 2, "first factor")
    b = _as_square(b, 2, "second factor")
    return np.kron(a, b)


def dagger(a) -> np.ndarray:
    return np.asarray(a).conj().T


def eig_real_symmetric(s, tol: float = TOL_SYMMETRIC):
    """Eigendecomposition of a real symmetric matrix with fixed conventions.

    Returns ``(evals, vecs)`` with eigenvalues sorted in descending order and
    ``vecs`` orthogonal with det +1 (a column sign is flipped if needed), so
    that `s = vecs @ diag(evals) @ vecs.T`.

    Raises
    ------
    NotSymmetricError
        If ``s`` has an imaginary part or s != s.T beyond ``tol``.
    """
    s = np.asarray(s)
    n = s.shape[0]
    s = _as_square(s, n)
    if np.linalg.norm(np.imag(s)) > tol:
        raise NotSymmetricError("matrix has a nonreal part")
    s = np.real(s).astype(float)
    if np.linalg.norm(s - s.T) > tol:
        raise NotSymmetricError(f"matrix is not symmetric within {tol:.1e}")
    evals, vecs = np.linalg.eigh(s)
    evals = evals[::-1].copy()
    vecs = vecs[:, ::-1].copy()
    if np.linalg.det(vecs) < 0:
        vecs[:, -1] = -vecs[:, -1]
    resid = np.linalg.norm(vecs @ np.diag(evals) @ vecs.T - s)
    if resid > 1e-10 * max(1.0, np.linalg.norm(s)):
        raise ConvergenceError(f"eigendecomposition residual {resid:.3e} too large")
    return evals, vecs


def expm_i_hermitian(h, t: float = 1.0, tol: float = TOL_HERMITIAN) -> np.ndarray:
    """exp(i·h·t) for Hermitian ``h`` via its spectral decomposition."""
    h = check_hermitian(h, tol=tol, n=np.asarray(h).shape[0])
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * t * w)) @ v.conj().T


def simdiag_commuting_symmetric(a, b, tol: float = TOL_EIG):
    """Jointly diagonalize two commuting real symmetric matrices.

    Diagonalizes ``a + w·b`` for a fixed blend weight ``w`` and checks that
    the resulting frame diagonalizes both inputs; if a weight produces an
    accidental eigenvalue collision that mixes non-joint eigenvectors, the
    next weight from a fixed fallback list is tried.  Deterministic: no
    randomness, same output for the same input.

    Returns ``(da, db, vecs)`` with ``a = vecs @ diag(da) @ vecs.T`` and
    ``b = vecs @ diag(db) @ vecs.T``; ``vecs`` is orthogonal with det +1.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = max(1.0, np.linalg.norm(a), np.linalg.norm(b))
    for w in _SIMDIAG_WEIGHTS:
        _, vecs = eig_real_symmetric(a + w * b)
        da_full = vecs.T @ a @ vecs
        db_full = vecs.T @ b @ vecs
        off = max(
            np.linalg.norm(da_full - np.diag(np.diag(da_full))),
            np.linalg.norm(db_full - np.diag(np.diag(db_full))),
        )
        if off <= tol * scale:
            return np.diag(da_full).copy(), np.diag(db_full).copy(), vecs
    raise ConvergenceError(
        "simultaneous diagonalization failed for every blend weight; "
        "inputs may not commute"
    )


def dist_up_to_phase(u, v) -> float:
    """Frobenius distance between 4x4 unitaries minimized over a global phase.

    min over φ of ||u - e^{iφ} v||_F, equal to sqrt(8 - 2|tr(u†v)|); computed
    by subtracting at the optimal phase e^{iφ} = conj(tr(u†v))/|tr(u†v)|,
    which stays accurate when the distance is near zero (the closed form
    loses half the significant digits there).
    """
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    t = np.trace(u.conj().T @ v)
    if abs(t) < 1e-12:
        return float(np.sqrt(8.0))
    return float(np.linalg.norm(u - (t.conjugate() / abs(t)) * v))
