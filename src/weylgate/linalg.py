"""Small dense linear-algebra utilities shared by the rest of the package.

Everything here works on explicit 4x4 complex matrices.  Eigen problems
are delegated to LAPACK via numpy; the private cores ``_eigh`` and
``_simdiag`` fix the conventions (descending eigenvalue order, right-handed
eigenvector frames) and check the residuals the higher layers rely on.  They
have no public wrappers: the library calls them on matrices it formed itself.

An argument is validated once, where it enters the library.  ``_as_array`` is
the one parser: a ragged nesting or a wrong shape raises
``InvalidInputError``, and text, bools, objects that are not numbers,
complex entries where reals are due, NaN and ±inf raise the caller's typed
error; ``_as_instance`` checks text, a spec or a plan by its type.  Public
functions check their gate or Hamiltonian arguments once (a spec by one
``realize`` per spec object), and ``_``-prefixed cores take checked arrays
and never check again.  The cores here and above them (spectrum,
invariants, coordinates) take a stack ``(..., 4, 4)``, so ``trajectory``
reads its rows as stacks: the fold of t·c, with no U(t), for the rows of a
two-body coupling that its certificate covers, and for every other row the
spectrum of U(t), formed for all of them in one NumPy pass (see
``hamflow``).  Both a single gate and a stack are read through one
derivation record (``invariants._Gate``): public
single-gate functions take their gate's record from a small memo keyed by
the gate's bytes, a complex128 4x4 array's as given and anything else's
once parsed, so a gate is parsed and checked once per distinct gate, on a
memo miss (``_as_gate``, then ``_check_unitary``, the core of
``check_unitary``); stacks read a fresh record and never use the memo.
"""

from __future__ import annotations

from functools import partial, wraps
from numbers import Number

import numpy as np

from .errors import (
    ConvergenceError,
    InvalidInputError,
    NotHermitianError,
    NotUnitaryError,
)

__all__ = ["check_hermitian", "check_unitary", "expm_i_hermitian"]

TOL_UNITARY = 1e-9
TOL_HERMITIAN = 1e-9
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
    None for a numeric dtype as given); the shape (None,) takes a 1-D
    sequence of any length.  A ragged nesting or a wrong shape raises
    ``InvalidInputError``; text, bools, objects that are not numbers, complex
    entries where dtype is float, NaN and ±inf raise ``error``."""
    try:
        a = np.asarray(x)
    except ValueError:  # NumPy refuses a ragged nesting
        raise InvalidInputError(f"{name} must be {_shape_text(shape)}, got a ragged list") from None
    if a.shape != shape and not (shape == (None,) and a.ndim == 1):
        raise InvalidInputError(f"{name} must be {_shape_text(shape)}, got shape {a.shape}")
    numbers = "real numbers" if dtype is float else "numbers"
    if _holds_bool(x):
        raise error(f"{name} must hold {numbers}, got a bool")
    if dtype is None and a.dtype.kind in "iufc":
        dtype = a.dtype
    if a.dtype == dtype:
        a = a.copy()
    else:
        kind = a.dtype.kind
        if not (
            kind in "iuf"
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


def _holds_bool(x) -> bool:
    """Whether ``x`` is or holds a bool, which NumPy would read as 0 or 1
    (and, beside numbers, promote to one)."""
    if isinstance(x, np.ndarray):
        return x.dtype.kind == "b" or x.dtype.kind == "O" and any(map(_holds_bool, x.flat))
    if isinstance(x, (list, tuple)):
        return any(map(_holds_bool, x))
    return isinstance(x, (bool, np.bool_))


def _shape_text(shape: tuple) -> str:
    if len(shape) == 1:
        return "a 1-D sequence" if shape[0] is None else f"a length-{shape[0]} vector"
    return "x".join(map(str, shape)) or "a number"


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
    """``n`` as an integer ≥ ``least``, not a bool, else InvalidInputError."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < least:
        raise InvalidInputError(f"{name} must be an integer ≥ {least}, got {n!r}")
    return n


def _as_instance(x, cls: type, name: str):
    """``x`` if it is a ``cls``, else InvalidInputError."""
    if not isinstance(x, cls):
        raise InvalidInputError(f"{name} must be a {cls.__name__}, got {type(x).__name__}")
    return x


def check_unitary(u) -> np.ndarray:
    """Return ``u`` as a fresh complex 4x4 array after checking u†u = I within
    1e-9 (non-numeric and non-finite entries fail the check)."""
    return _check_unitary(_as_gate(u))


def _as_gate(u) -> np.ndarray:
    """``u`` parsed as a fresh complex 4x4 array, not yet checked as unitary."""
    return _as_array(u, (4, 4), "matrix", NotUnitaryError, complex)


def _check_unitary(u) -> np.ndarray:
    """check_unitary's core on a parsed gate; returns ``u``."""
    # No entry of a unitary exceeds 1, and one above 1 + TOL_UNITARY puts the
    # defect above TOL_UNITARY: this keeps u†u from overflowing.
    big = np.abs(u).max()
    if not big <= 1.0 + TOL_UNITARY:
        raise NotUnitaryError(f"matrix is not unitary: max |u_ij| = {big:.3e} > 1 + {TOL_UNITARY:.1e}")
    defect = np.linalg.norm(u.conj().T @ u - _EYE)
    if not defect <= TOL_UNITARY:
        raise NotUnitaryError(f"matrix is not unitary: ||u†u - I|| = {defect:.3e} > {TOL_UNITARY:.1e}")
    return u


def check_hermitian(h) -> np.ndarray:
    """Return ``h`` as a fresh complex 4x4 array after checking h = h† within
    TOL_HERMITIAN·max(1, ||h||_F), a bound that grows with h as the rounding
    of a computed h does (non-numeric and non-finite entries fail the check)."""
    h = _as_array(h, (4, 4), "matrix", NotHermitianError, complex)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow reads as an inf norm
        defect, size = np.linalg.norm(h - h.conj().T), np.linalg.norm(h)
    # An inf defect fails before an inf ||h|| could excuse it.
    if not (defect < np.inf and defect <= TOL_HERMITIAN * max(1.0, size)):
        raise NotHermitianError(
            f"matrix is not Hermitian: ||h - h†|| = {defect:.3e} > {TOL_HERMITIAN:.1e}·max(1, ||h||)"
        )
    if not size < np.inf:  # eigh returns NaN, and no warning, when ||h|| overflows
        raise InvalidInputError("matrix is too large to compute with: ||h|| overflows")
    return h


def _eigh(s):
    """The eigendecomposition of each real symmetric matrix of a stack
    (..., n, n): ``(evals, vecs)`` with the eigenvalues in descending order and
    ``vecs`` orthogonal with det +1 (a column sign is flipped if needed), so
    that s = vecs @ diag(evals) @ vecs.T.  The residual is checked per
    matrix; one above 1e-10·max(1, ||s||) raises ConvergenceError."""
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
    """exp(i·h·t) for a Hermitian 4x4 ``h``, at a real ``t``, via its spectral decomposition."""
    return _flow(check_hermitian(h))(_as_real(t, "t"))


def _flow(h):
    """t ↦ exp(i·h·t) for a checked Hermitian ``h``, diagonalized once."""
    w, v = np.linalg.eigh(h)
    return partial(_evolve, w, v, v.conj().T)


def _evolve(w, v, vh, t):
    """exp(i·h·t) from the eigenpair (w, v) of h and vh = v†."""
    return (v * np.exp(1j * t * w)) @ vh


def _simdiag(a, b):
    """Jointly diagonalize each pair of a stack (..., 4, 4) of commuting real
    symmetric matrices.

    Diagonalizes ``a + w·b`` for a fixed blend weight ``w`` and checks that
    the resulting frame diagonalizes both inputs; if a weight produces an
    accidental eigenvalue collision that mixes non-joint eigenvectors, the
    next weight from a fixed fallback list is tried, on the rows that failed
    alone.  Deterministic: no randomness, same output for the same input.

    Returns ``(da, db, vecs)`` with ``a = vecs @ diag(da) @ vecs.T`` and
    ``b = vecs @ diag(db) @ vecs.T``; ``vecs`` is orthogonal with det +1.
    """
    lead = a.shape[:-2]
    a, b = a.reshape(-1, 4, 4), b.reshape(-1, 4, 4)
    scale = np.maximum(1.0, np.maximum(_frobenius(a), _frobenius(b)))
    todo = np.arange(len(a))
    for i, w in enumerate(_SIMDIAG_WEIGHTS):
        # The first weight takes all rows as views, so each matrix product
        # sees the same memory layout as for a lone matrix.
        ra, rb = (a, b) if i == 0 else (a[todo], b[todo])
        _, v = _eigh(ra + w * rb)
        vt = v.swapaxes(-1, -2)
        fa, fb = vt @ ra @ v, vt @ rb @ v
        off = np.maximum(_frobenius(fa * _OFF_DIAGONAL), _frobenius(fb * _OFF_DIAGONAL))
        ok = off <= TOL_EIG * scale[todo]
        dfa, dfb = fa.diagonal(0, -2, -1), fb.diagonal(0, -2, -1)
        if i == 0:  # every row; those that failed are overwritten below
            da, db, vecs = dfa.copy(), dfb.copy(), v
            if ok.all():
                break
        else:
            rows = todo[ok]
            da[rows], db[rows], vecs[rows] = dfa[ok], dfb[ok], v[ok]
        todo = todo[~ok]
        if not len(todo):
            break
    else:
        raise ConvergenceError(
            "simultaneous diagonalization failed for every blend weight; "
            "inputs may not commute"
        )
    return da.reshape(*lead, 4), db.reshape(*lead, 4), vecs.reshape(*lead, 4, 4)


def _dist_up_to_phase(u, v) -> float:
    """Frobenius distance between two checked 4x4 unitaries, minimized over a
    global phase.

    min over φ of ||u - e^{iφ} v||_F, equal to sqrt(8 - 2|tr(u†v)|); computed
    by subtracting at the optimal phase e^{iφ} = conj(tr(u†v))/|tr(u†v)|,
    which stays accurate when the distance is near zero (the closed form
    loses half the significant digits there).
    """
    t = np.trace(u.conj().T @ v)
    if abs(t) < 1e-12:
        return float(np.sqrt(8.0))
    return float(np.linalg.norm(u - (t.conjugate() / abs(t)) * v))
