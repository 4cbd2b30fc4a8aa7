"""Small dense linear-algebra utilities shared by the rest of the package.

Everything here works on explicit 4x4 (or 2x2) complex matrices.  Eigen
problems are delegated to LAPACK via numpy; the wrappers fix conventions
(descending eigenvalue order, right-handed eigenvector frames) and enforce
the pre/postconditions the higher layers rely on.

A matrix is validated once, where it enters the library: public functions
check their gate or Hamiltonian arguments once (a spec by one ``realize``
per spec object), and ``_``-prefixed cores take checked arrays and never
check again.  The cores here and above them (spectrum, invariants,
coordinates) take a stack ``(..., n, n)``, so ``trajectory`` runs all its
times in one NumPy pass.  Both a single gate and a stack are read through
one derivation record (``invariants._Gate``): public single-gate functions
take theirs from a small memo, and stacks read a fresh record and never
use the memo.
"""

from __future__ import annotations

from functools import partial

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


def _as_triple(c, name: str = "coords") -> np.ndarray:
    c = np.array(c, dtype=float)
    if c.shape != (3,) or not np.isfinite(c).all():
        raise ValueError(f"{name} must be a length-3 vector of finite numbers, got {c!r}")
    return c


def _as_complex(a, n: int, error: type[Exception]) -> np.ndarray:
    """``a`` as a complex n x n array; entries that are not numbers raise ``error``."""
    a = _as_square(a, n)
    if a.dtype.kind in "SU":  # NumPy would parse "1" as 1
        raise error(f"matrix has non-numeric entries of dtype {a.dtype}")
    try:
        return a.astype(complex)
    except (TypeError, ValueError) as exc:
        raise error(f"matrix has non-numeric entries: {exc}") from None


def check_unitary(u, tol: float = TOL_UNITARY, n: int = 4) -> np.ndarray:
    """Return ``u`` as a complex array after checking u†u = I within ``tol``
    (non-numeric and non-finite entries fail the check)."""
    u = _as_complex(u, n, NotUnitaryError)
    # No entry of a unitary exceeds 1, and one above 1 + tol puts the defect
    # above tol: this keeps u†u from overflowing, and catches NaN and ±inf.
    big = np.abs(u).max()
    if not big <= 1.0 + tol:
        if not np.isfinite(u).all():
            raise NotUnitaryError("matrix has non-finite entries")
        raise NotUnitaryError(f"matrix is not unitary: max |u_ij| = {big:.3e} > 1 + {tol:.1e}")
    defect = np.linalg.norm(u.conj().T @ u - np.eye(n))
    if not defect <= tol:
        raise NotUnitaryError(f"matrix is not unitary: ||u†u - I|| = {defect:.3e} > {tol:.1e}")
    return u


def check_hermitian(h, tol: float = TOL_HERMITIAN, n: int = 4) -> np.ndarray:
    """Return ``h`` as a complex array after checking h = h† within ``tol``
    (non-numeric and non-finite entries fail the check)."""
    h = _as_complex(h, n, NotHermitianError)
    if not np.isfinite(h).all():
        raise NotHermitianError("matrix has non-finite entries")
    defect = np.linalg.norm(h - h.conj().T)
    if not defect <= tol:
        raise NotHermitianError(f"matrix is not Hermitian: ||h - h†|| = {defect:.3e} > {tol:.1e}")
    return h


def kron2(a, b) -> np.ndarray:
    """Tensor product of two single-qubit operators (first factor = qubit 1)."""
    a = _as_square(a, 2, "first factor")
    b = _as_square(b, 2, "second factor")
    return np.kron(a, b)


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
    return _eigh(_as_symmetric(s, np.shape(s)[0], tol))


def _as_symmetric(s, n: int, tol: float) -> np.ndarray:
    s = _as_square(s, n)
    if not np.linalg.norm(np.imag(s)) <= tol:
        raise NotSymmetricError("matrix has a nonreal part")
    s = np.real(s).astype(float)
    if not np.isfinite(s).all() or not np.linalg.norm(s - s.T) <= tol:
        raise NotSymmetricError(f"matrix is not symmetric within {tol:.1e}")
    return s


def _eigh(s):
    """eig_real_symmetric's core over a stack (..., n, n) of checked real
    symmetric matrices; the residual is checked per matrix."""
    evals, vecs = np.linalg.eigh(s)
    evals = evals[..., ::-1].copy()
    vecs = vecs[..., ::-1].copy()
    vecs[..., -1] *= np.sign(np.linalg.det(vecs))[..., None]  # det is ±1
    resid = _frobenius((vecs * evals[..., None, :]) @ vecs.swapaxes(-1, -2) - s)
    bound = 1e-10 * np.maximum(1.0, _frobenius(s))
    if not (resid <= bound).all():  # a NaN residual fails too
        raise ConvergenceError(f"eigendecomposition residual {np.max(resid):.3e} too large")
    return evals, vecs


def _frobenius(a) -> np.ndarray:
    """Frobenius norm of each real matrix of a stack."""
    return np.sqrt((a * a).sum((-2, -1)))


def expm_i_hermitian(h, t: float = 1.0, tol: float = TOL_HERMITIAN) -> np.ndarray:
    """exp(i·h·t) for Hermitian ``h`` via its spectral decomposition."""
    return _flow(check_hermitian(h, tol=tol, n=len(np.atleast_1d(h))))(t)


def _flow(h):
    """t ↦ exp(i·h·t) for a checked Hermitian ``h``, diagonalized once."""
    w, v = np.linalg.eigh(h)
    return partial(_evolve, w, v, v.conj().T)


def _evolve(w, v, vh, t):
    """exp(i·h·t) from the eigenpair (w, v) of h and vh = v†."""
    return (v * np.exp(1j * t * w)) @ vh


def simdiag_commuting_symmetric(a, b, tol: float = TOL_EIG):
    """Jointly diagonalize two commuting real symmetric matrices.

    Diagonalizes ``a + w·b`` for a fixed blend weight ``w`` and checks that
    the resulting frame diagonalizes both inputs; if a weight produces an
    accidental eigenvalue collision that mixes non-joint eigenvectors, the
    next weight from a fixed fallback list is tried.  Deterministic: no
    randomness, same output for the same input.

    Returns ``(da, db, vecs)`` with ``a = vecs @ diag(da) @ vecs.T`` and
    ``b = vecs @ diag(db) @ vecs.T``; ``vecs`` is orthogonal with det +1.
    Each input is checked as eig_real_symmetric checks its matrix.
    """
    n = np.shape(a)[0]
    return _simdiag(_as_symmetric(a, n, TOL_SYMMETRIC), _as_symmetric(b, n, TOL_SYMMETRIC), tol)


def _simdiag(a, b, tol: float = TOL_EIG):
    """simdiag_commuting_symmetric's core over stacks (..., n, n) of checked
    commuting pairs.  Only the rows whose frame fails the off-diagonal test
    retry with the next blend weight."""
    lead, n = a.shape[:-2], a.shape[-1]
    a, b = a.reshape(-1, n, n), b.reshape(-1, n, n)
    scale = np.maximum(1.0, np.maximum(_frobenius(a), _frobenius(b)))
    off_diagonal = 1.0 - np.eye(n)
    todo = np.arange(len(a))
    for i, w in enumerate(_SIMDIAG_WEIGHTS):
        # The first weight takes all rows as views, so each matrix product
        # sees the same memory layout as for a lone matrix.
        ra, rb = (a, b) if i == 0 else (a[todo], b[todo])
        _, v = _eigh(ra + w * rb)
        vt = v.swapaxes(-1, -2)
        fa, fb = vt @ ra @ v, vt @ rb @ v
        off = np.maximum(_frobenius(fa * off_diagonal), _frobenius(fb * off_diagonal))
        ok = off <= tol * scale[todo]
        dfa, dfb = fa.diagonal(0, -2, -1), fb.diagonal(0, -2, -1)
        if i == 0:  # every row; those that failed are overwritten below
            da, db, vecs = dfa.copy(), dfb.copy(), v
        else:
            rows = todo[ok]
            da[rows], db[rows], vecs[rows] = dfa[ok], dfb[ok], v[ok]
        todo = todo[~ok]
        if not len(todo):
            return da.reshape(*lead, n), db.reshape(*lead, n), vecs.reshape(*lead, n, n)
    raise ConvergenceError(
        "simultaneous diagonalization failed for every blend weight; "
        "inputs may not commute"
    )


def dist_up_to_phase(u, v) -> float:
    """Frobenius distance between 4x4 unitaries, which it checks, minimized
    over a global phase.

    min over φ of ||u - e^{iφ} v||_F, equal to sqrt(8 - 2|tr(u†v)|); computed
    by subtracting at the optimal phase e^{iφ} = conj(tr(u†v))/|tr(u†v)|,
    which stays accurate when the distance is near zero (the closed form
    loses half the significant digits there).
    """
    return _dist_up_to_phase(check_unitary(u), check_unitary(v))


def _dist_up_to_phase(u, v) -> float:
    """dist_up_to_phase's core over two checked gates."""
    t = np.trace(u.conj().T @ v)
    if abs(t) < 1e-12:
        return float(np.sqrt(8.0))
    return float(np.linalg.norm(u - (t.conjugate() / abs(t)) * v))
