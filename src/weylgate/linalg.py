"""Small dense linear-algebra utilities shared by the rest of the package.

Everything here works on explicit 4x4 (or 2x2) complex matrices.  Eigen
problems are delegated to LAPACK via numpy; the wrappers fix conventions
(descending eigenvalue order, right-handed eigenvector frames) and enforce
the pre/postconditions the higher layers rely on.

An argument is validated once, where it enters the library.  ``_as_array`` is
the one parser: a ragged nesting or a wrong shape raises
``InvalidInputError``, and text, objects that are not numbers, complex
entries where reals are due, NaN and ±inf raise the caller's typed error.
Public functions check their gate or Hamiltonian arguments once (a spec by
one ``realize`` per spec object), and ``_``-prefixed cores take checked
arrays and never check again.  The cores here and above them (spectrum,
invariants, coordinates) take a stack ``(..., n, n)``, so ``trajectory``
forms U(t) for all its times in one NumPy pass and reads their coordinates
as a stack: the fold of t·c for a two-body coupling, and the spectrum for
the other couplings and for the rows the fold cannot answer (see
``hamflow``).  Both a single gate and a stack are read through one
derivation record (``invariants._Gate``): public
single-gate functions parse their gate and take its record from a small memo,
so a gate is checked once per distinct gate, on a memo miss
(``_check_unitary``, the core of ``check_unitary``); stacks read a fresh
record and never use the memo.
"""

from __future__ import annotations

from functools import partial, wraps
from numbers import Number

import numpy as np

from .errors import (
    ConvergenceError,
    InvalidInputError,
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

_EYE = np.eye(4)
_OFF_DIAGONAL = 1.0 - _EYE  # the 4x4 mask of _simdiag's off-diagonal test


def _as_array(x, shape: tuple, name: str, error: type[Exception], dtype) -> np.ndarray:
    """``x`` as a fresh array of ``shape`` and ``dtype`` (float, complex, or
    None for a numeric dtype as given).  A None axis takes the length of the
    first, so (None, None) is any square matrix.  A ragged nesting or a wrong
    shape raises ``InvalidInputError``; text, objects that are not numbers,
    complex entries where dtype is float, NaN and ±inf raise ``error``."""
    try:
        a = np.asarray(x)
    except ValueError:  # NumPy refuses a ragged nesting
        raise InvalidInputError(f"{name} must be {_shape_text(shape)}, got a ragged list") from None
    if a.shape != shape:
        n = a.shape[0] if a.ndim else -1
        if a.shape != tuple(n if k is None else k for k in shape):
            raise InvalidInputError(f"{name} must be {_shape_text(shape)}, got shape {a.shape}")
    if dtype is None and a.dtype.kind in "biufc":
        dtype = a.dtype
    if a.dtype == dtype:
        a = a.copy()
    else:
        kind, numbers = a.dtype.kind, "real numbers" if dtype is float else "numbers"
        if not (
            kind in "biuf"
            or kind == "c" and dtype is not float
            or kind == "O" and all(isinstance(v, Number) for v in a.flat)
        ):
            raise error(f"{name} must hold {numbers}, got dtype {a.dtype}")
        try:
            with np.errstate(over="ignore"):  # a long double past the range is inf
                a = a.astype(dtype or complex)
        except (TypeError, ValueError, OverflowError):  # e.g. a complex object for a float
            raise error(f"{name} must hold {numbers}, got dtype {a.dtype}") from None
    if not np.isfinite(a).all():
        raise error(f"{name} must hold finite numbers")
    return a


def _shape_text(shape: tuple) -> str:
    if len(shape) == 1:
        return "a 1-D sequence" if shape[0] is None else f"a length-{shape[0]} vector"
    return "a square matrix" if None in shape else "x".join(map(str, shape)) or "a number"


def _finite_math(fn):
    """``fn`` with a NumPy overflow or invalid operation in its math, from
    finite arguments too large to compute with, raised as InvalidInputError."""

    @wraps(fn)
    def entry(*args, **kwargs):
        try:
            with np.errstate(over="raise", invalid="raise"):
                return fn(*args, **kwargs)
        except (FloatingPointError, OverflowError) as exc:
            raise InvalidInputError(f"{fn.__name__}: argument too large ({exc})") from None

    return entry


def _as_triple(c, name: str = "coords") -> np.ndarray:
    return _as_array(c, (3,), name, InvalidInputError, float)


def _as_real(x, name: str) -> float:
    """``x`` as a finite real number, else InvalidInputError."""
    return float(_as_array(x, (), name, InvalidInputError, float))


def _as_tol(tol, default: float | None, name: str = "tol") -> float:
    """A tolerance as a finite real ≥ 0, else InvalidInputError.  The
    default itself is returned as it is: a call that keeps it parses nothing."""
    if tol is default:
        return tol
    tol = _as_real(tol, name)
    if tol < 0.0:
        raise InvalidInputError(f"{name} must be ≥ 0, got {tol!r}")
    return tol


def _as_count(n, name: str, least: int) -> int:
    """``n`` as an integer ≥ ``least``, else InvalidInputError."""
    if not isinstance(n, (int, np.integer)) or n < least:
        raise InvalidInputError(f"{name} must be an integer ≥ {least}, got {n!r}")
    return n


def _as_text(x, name: str) -> str:
    """``x`` if it is a string, else InvalidInputError."""
    if not isinstance(x, str):
        raise InvalidInputError(f"{name} must be a string, got {type(x).__name__}")
    return x


def check_unitary(u, tol: float = TOL_UNITARY) -> np.ndarray:
    """Return ``u`` as a fresh complex 4x4 array after checking u†u = I within
    ``tol``, a finite real ≥ 0 (non-numeric and non-finite entries fail the check)."""
    tol = _as_tol(tol, TOL_UNITARY)
    return _check_unitary(_as_gate(u), tol)


def _as_gate(u) -> np.ndarray:
    """``u`` parsed as a fresh complex 4x4 array, not yet checked as unitary."""
    return _as_array(u, (4, 4), "matrix", NotUnitaryError, complex)


def _check_unitary(u, tol: float) -> np.ndarray:
    """check_unitary's core on a parsed gate and a tol the library trusts; returns ``u``."""
    # No entry of a unitary exceeds 1, and one above 1 + tol puts the defect
    # above tol: this keeps u†u from overflowing.
    big = np.abs(u).max()
    if not big <= 1.0 + tol:
        raise NotUnitaryError(f"matrix is not unitary: max |u_ij| = {big:.3e} > 1 + {tol:.1e}")
    defect = np.linalg.norm(u.conj().T @ u - _EYE)
    if not defect <= tol:
        raise NotUnitaryError(f"matrix is not unitary: ||u†u - I|| = {defect:.3e} > {tol:.1e}")
    return u


def check_hermitian(h, n: int = 4) -> np.ndarray:
    """Return ``h`` as a complex n x n array, n a positive integer, after
    checking h = h† within TOL_HERMITIAN (non-numeric and non-finite entries
    fail the check)."""
    h = _as_array(h, (_as_count(n, "n", 1),) * 2, "matrix", NotHermitianError, complex)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow reads as an inf norm
        defect, size = np.linalg.norm(h - h.conj().T), np.linalg.norm(h)
    if not defect <= TOL_HERMITIAN:
        raise NotHermitianError(
            f"matrix is not Hermitian: ||h - h†|| = {defect:.3e} > {TOL_HERMITIAN:.1e}"
        )
    if not size < np.inf:  # eigh returns NaN, and no warning, when ||h|| overflows
        raise InvalidInputError("matrix is too large to compute with: ||h|| overflows")
    return h


@_finite_math
def kron2(a, b) -> np.ndarray:
    """Tensor product of two single-qubit operators (first factor = qubit 1)."""
    a = _as_array(a, (2, 2), "first factor", InvalidInputError, None)
    return np.kron(a, _as_array(b, (2, 2), "second factor", InvalidInputError, None))


@_finite_math
def eig_real_symmetric(s):
    """Eigendecomposition of a real symmetric matrix with fixed conventions.

    Returns ``(evals, vecs)`` with eigenvalues sorted in descending order and
    ``vecs`` orthogonal with det +1 (a column sign is flipped if needed), so
    that `s = vecs @ diag(evals) @ vecs.T`.

    Raises
    ------
    NotSymmetricError
        If ``s`` has an imaginary part or s != s.T beyond TOL_SYMMETRIC.
    """
    return _eigh(_as_symmetric(s, None))


def _as_symmetric(s, n: int | None) -> np.ndarray:
    s = _as_array(s, (n, n), "matrix", NotSymmetricError, complex)
    if not np.linalg.norm(s.imag) <= TOL_SYMMETRIC:
        raise NotSymmetricError("matrix has a nonreal part")
    s = s.real.copy()
    if not np.linalg.norm(s - s.T) <= TOL_SYMMETRIC:
        raise NotSymmetricError(f"matrix is not symmetric within {TOL_SYMMETRIC:.1e}")
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


@_finite_math
def expm_i_hermitian(h, t: float = 1.0) -> np.ndarray:
    """exp(i·h·t) for Hermitian ``h``, at a real ``t``, via its spectral decomposition."""
    h = _as_array(h, (None, None), "matrix", NotHermitianError, complex)  # any n x n
    return _flow(check_hermitian(h, n=len(h)))(_as_real(t, "t"))


def _flow(h):
    """t ↦ exp(i·h·t) for a checked Hermitian ``h``, diagonalized once."""
    w, v = np.linalg.eigh(h)
    return partial(_evolve, w, v, v.conj().T)


def _evolve(w, v, vh, t):
    """exp(i·h·t) from the eigenpair (w, v) of h and vh = v†."""
    return (v * np.exp(1j * t * w)) @ vh


@_finite_math
def simdiag_commuting_symmetric(a, b):
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
    a = _as_symmetric(a, None)
    return _simdiag(a, _as_symmetric(b, len(a)))


def _simdiag(a, b):
    """simdiag_commuting_symmetric's core over stacks (..., n, n) of checked
    commuting pairs.  Only the rows whose frame fails the off-diagonal test
    retry with the next blend weight."""
    lead, n = a.shape[:-2], a.shape[-1]
    a, b = a.reshape(-1, n, n), b.reshape(-1, n, n)
    scale = np.maximum(1.0, np.maximum(_frobenius(a), _frobenius(b)))
    off_diagonal = _OFF_DIAGONAL if n == 4 else 1.0 - np.eye(n)
    todo = np.arange(len(a))
    for i, w in enumerate(_SIMDIAG_WEIGHTS):
        # The first weight takes all rows as views, so each matrix product
        # sees the same memory layout as for a lone matrix.
        ra, rb = (a, b) if i == 0 else (a[todo], b[todo])
        _, v = _eigh(ra + w * rb)
        vt = v.swapaxes(-1, -2)
        fa, fb = vt @ ra @ v, vt @ rb @ v
        off = np.maximum(_frobenius(fa * off_diagonal), _frobenius(fb * off_diagonal))
        ok = off <= TOL_EIG * scale[todo]
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
