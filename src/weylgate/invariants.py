"""Local invariants of two-qubit gates.

Two 4x4 unitaries differ only by single-qubit gates (and a global phase) iff
they share the invariant pair (G1, G2), computed from the symmetric matrix
m = (Q†UQ)ᵀ(Q†UQ) formed in the magic basis:

    G1 = tr²(m) / (16·det U)
    G2 = (tr²(m) - tr(m²)) / (4·det U)

G1 is complex, G2 is real for unitary input (the imaginary residue is
reported as a diagnostic).  Division by det U makes both insensitive to
global phase, so any U(4) representative may be passed.

Every analysis of a gate, or of a stack (..., 4, 4) of gates, reads one
derivation record (``_Gate``): U_B, m(U) and det U, and on first use the
invariant pair, the spectrum and the chamber fold.  It is the one place
where m(U), det U and α = arg(det U)/4 are formed.  The single-gate
analyses here and in chamber, kak and entangler take their gate's record
from a memo of the last ``_RECORDS`` gates, keyed by the gate's bytes: a
complex128 4x4 array's as given, and anything else's once parsed.  So the
analyses of one gate form each part once, and the gate is parsed and
checked as unitary once per distinct gate, on a memo miss: an entry exists
only for bytes that passed the parser and the check.  Stacks, and gates the library built itself,
read a fresh record and never use the memo.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cartan import _fold_element, _fold_image, _magic, _raw_coords
from .linalg import (
    _as_gate,
    _as_tol,
    _as_triple,
    _check_unitary,
    _finite_math,
    _simdiag,
)

__all__ = [
    "LocalInvariants",
    "MSpectrum",
    "invariant_distance",
    "invariants_from_coords",
    "local_invariants",
    "locally_equivalent",
    "m_spectrum",
]

_RECORDS = 8  # gates whose derivation record the single-gate memo keeps
_TOL_EQUIVALENT = 1e-8  # locally_equivalent's default bound on the invariant distance


@dataclass(frozen=True)
class LocalInvariants:
    """The pair (g1, g2) plus the size of g2's imaginary part (should be ~0)."""

    g1: complex
    g2: float
    g2_imag_residual: float


def local_invariants(u) -> LocalInvariants:
    """Local-equivalence invariants of a two-qubit gate (phase insensitive)."""
    return _invariants_of(_gate(u))


def _invariants_of(g: _Gate) -> LocalInvariants:
    """local_invariants' core on the record of one gate."""
    g1, g2c = g.invariant_pair
    return LocalInvariants(
        g1=complex(g1), g2=float(g2c.real), g2_imag_residual=float(abs(g2c.imag))
    )


@_finite_math
def invariants_from_coords(coords) -> LocalInvariants:
    """Closed-form invariants of the canonical gate at coordinates (c1,c2,c3).

    For A = exp((i/2)(c1 σxσx + c2 σyσy + c3 σzσz)):

        G1 = cos²c1 cos²c2 cos²c3 - sin²c1 sin²c2 sin²c3
             + (i/4) sin 2c1 sin 2c2 sin 2c3
        G2 = 4 cos²c1 cos²c2 cos²c3 - 4 sin²c1 sin²c2 sin²c3
             - cos 2c1 cos 2c2 cos 2c3
    """
    g1, g2 = _g_from_coords(_as_triple(coords))
    return LocalInvariants(g1=complex(g1), g2=float(g2), g2_imag_residual=0.0)


def _g_from_coords(c) -> tuple[np.ndarray, np.ndarray]:
    """The closed-form g1 and g2 of a stack (..., 3) of coordinate triples."""
    # 4·a - 4·b is 4·(a - b) exactly: scaling by 4 neither rounds nor overflows here.
    diff = (np.cos(c) ** 2).prod(-1) - (np.sin(c) ** 2).prod(-1)
    c2 = 2 * c
    return diff + 0.25j * np.sin(c2).prod(-1), 4 * diff - np.cos(c2).prod(-1)


def invariant_distance(a: LocalInvariants, b: LocalInvariants) -> float:
    """Euclidean distance on (Re g1, Im g1, g2)."""
    return float(
        np.sqrt(abs(a.g1 - b.g1) ** 2 + (a.g2 - b.g2) ** 2)
    )


def locally_equivalent(u, v, tol: float = _TOL_EQUIVALENT) -> bool:
    """True iff u and v differ only by single-qubit gates and a phase: their
    invariants lie within ``tol``, a finite real ≥ 0."""
    tol = _as_tol(tol, _TOL_EQUIVALENT)
    return invariant_distance(local_invariants(u), local_invariants(v)) <= tol


@dataclass(frozen=True, eq=False)
class MSpectrum:
    """Eigenphases of m(U) with U normalized to det = 1.

    The normalization acts on m: with α = arg(det U)/4, the spectrum is that
    of e^{-2iα}·m(U), which is m(e^{-iα}·U) exactly.

    ``theta`` holds the principal-branch phases in (-π, π], ordered to match
    the rows of ``frame``; ``theta_balanced`` is the same list with 2π
    subtracted/added from the largest/smallest entries so that the sum is 0
    (the 2π·k defect of the principal branches is removed).  ``frame`` is
    the real orthogonal matrix with m = frameᵀ · diag(e^{iθ}) · frame.
    """

    theta: np.ndarray
    theta_balanced: np.ndarray
    frame: np.ndarray


def m_spectrum(u) -> MSpectrum:
    """Joint eigenphases and eigenframe of the symmetric unitary m(U).

    The gate is scaled to determinant one (principal quarter root of
    det U), making det m = 1 so the balanced phases sum to zero exactly; the
    factor e^{-2iα}, α = arg(det U)/4, is applied to m(U) itself, which
    equals m of the scaled gate.
    Re(m) and Im(m) are commuting real symmetric matrices; they are
    diagonalized simultaneously and the phases recovered per joint
    eigenvalue pair.  The arrays are copies: the gate's record keeps its own.
    """
    s = _gate(u).spectrum
    return MSpectrum(s.theta.copy(), s.theta_balanced.copy(), s.frame.copy())


def _spectrum_of_m(m) -> MSpectrum:
    """m_spectrum's core over a stack of m(U), U scaled to det 1."""
    dre, dim, vecs = _simdiag(m.real, m.imag)
    theta = np.arctan2(dim, dre)
    balanced = theta.copy()
    k = np.rint(theta.sum(axis=-1) / (2 * np.pi))[..., None]
    if k.any():
        # Rank 0 is the smallest phase; the k largest (k > 0) lose 2π and
        # the -k smallest (k < 0) gain it.
        rank = theta.argsort(-1).argsort(-1)
        balanced = np.where((k > 0) & (rank >= 4 - k), theta - 2 * np.pi, theta)
        balanced = np.where((k < 0) & (rank < -k), theta + 2 * np.pi, balanced)
    return MSpectrum(theta=theta, theta_balanced=balanced, frame=vecs.swapaxes(-1, -2))


# ---------------------------------------------------------------------------
# The derivation record of a gate or a stack of gates


class _lazy:
    """A field derived on first read and kept, as functools.cached_property
    keeps it but without the lock it takes before Python 3.12.  A raise is not kept."""

    def __init__(self, derive):
        self.derive, self.name = derive, derive.__name__

    def __get__(self, obj, cls):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.derive(obj)
        return value


class _Gate:
    """What the analyses read of a checked gate U, or of a stack (..., 4, 4)
    of them, derived once: U_B = Q†·U·Q, m(U) = U_Bᵀ·U_B and det U, and, on
    first use, the invariant pair (g1, complex g2), α = arg(det U)/4, the
    spectrum of m(U), the ``image`` of its raw coordinates in the chamber
    (``cartan._fold_image``), which gate_coords reads, and the ``fold``
    (image, p, n), with the element and translation that take ``raw`` to
    the image (``cartan._fold_element``), which kak_decompose reads.  A
    gate_coords call, or a stack, reads no KAK, and leaves ``fold``
    underived.

    Every array is read-only, so readers hand out copies.  A lazy part that
    raises is not kept: it is derived again on the next use.
    """

    def __init__(self, u):
        ub = _magic(u)
        self.u, self.ub, self.m, self.det = _read_only(
            u, ub, ub.swapaxes(-1, -2) @ ub, np.linalg.det(u)
        )

    @_lazy
    def invariant_pair(self) -> tuple[np.ndarray, np.ndarray]:
        tr = self.m.trace(0, -2, -1)
        g2c = (tr * tr - (self.m @ self.m).trace(0, -2, -1)) / (4.0 * self.det)
        return _read_only(tr * tr / (16.0 * self.det), g2c)

    @_lazy
    def alpha(self):
        """α = arg(det U)/4 (np.angle's arithmetic), the phase that scales U to det 1."""
        return _read_only(np.arctan2(self.det.imag, self.det.real) / 4.0)[0]

    @_lazy
    def spectrum(self) -> MSpectrum:
        # e^{-2iα}·m(U) is exactly m of the det-one gate e^{-iα}·U.
        s = _spectrum_of_m(np.exp(-2j * self.alpha)[..., None, None] * self.m)
        _read_only(s.theta, s.theta_balanced, s.frame)
        return s

    @_lazy
    def raw(self) -> np.ndarray:
        """The raw coordinates of the spectrum (``cartan._raw_coords``), which the folds reduce."""
        return _read_only(_raw_coords(self.spectrum.theta_balanced))[0]

    @_lazy
    def image(self) -> np.ndarray:
        return _read_only(_fold_image(self.raw))[0]

    @_lazy
    def fold(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.image, *_read_only(*_fold_element(self.raw, self.image))


def _keep(record, derive):
    """derive(record), derived on first use and kept on the record under
    derive's name as a lazy field is: what a layer above derives from a
    record alone (the entangler's verdict on a gate's, synthesis' parts on a
    generator's).  A raise is not kept."""
    try:
        return record.__dict__[derive.__name__]
    except KeyError:
        value = record.__dict__[derive.__name__] = derive(record)
        return value


def _read_only(*arrays):
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _gate(u) -> _Gate:
    """The record of gate ``u`` from a memo of the last ``_RECORDS`` gates,
    keyed by the gate's bytes: a complex 4x4 array's as given, anything else's
    once parsed.  The record holds its own copy."""
    if type(u) is np.ndarray and u.dtype == complex and u.shape == (4, 4):
        return _gate_of_bytes(u.tobytes())
    return _gate_of_bytes(_as_gate(u).tobytes())


@lru_cache(maxsize=_RECORDS)
def _gate_of_bytes(key: bytes) -> _Gate:
    # Only a miss parses and checks the gate, and lru_cache keeps no raise:
    # both are functions of the bytes alone, so every entry has passed them.
    u = _as_gate(np.frombuffer(key, dtype=complex).reshape(4, 4))
    return _Gate(_check_unitary(u))
