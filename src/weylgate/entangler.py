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
convex weights build a product state that U maximally entangles.  The
weights come from the gaps that the verdict reads: the widest-gap pair, the
ends of the arc a drop rule merges, or one barycentric solve on the three
phases that rule leaves (``PeVerdict``).

The entanglement measure on states is Ent(ψ) = ψᵀ·P·ψ with
P = -(1/2)·σy⊗σy; |Ent| = 0 on product states and 1/2 on maximally
entangled ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cartan import _CARTAN_WORDS, MAGIC
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
    InvalidInputError,
    NotNormalizedError,
    NotPerfectEntanglerError,
    VerificationError,
)
from .invariants import MSpectrum, _Gate, _gate, _read_only
from .linalg import _as_array, _as_count, _as_tol

TOL_HULL = 1e-9
_TOL_NORM = 1e-9  # how far ent lets a state's norm miss 1
_MC_CHUNK = 1 << 16  # rows pe_fraction_mc draws at once

# Ent(ψ) = ψᵀ P ψ; P = -(1/2) σy⊗σy (+ 0.0 turns each -0.0 into 0.0).
P_ENT = -0.5 * _CARTAN_WORDS[1] + 0.0


def ent(psi) -> complex:
    """The quadratic entanglement form ψᵀ·P·ψ of a state normalized within 1e-9."""
    return _ent(_as_array(psi, (4,), "state", NotNormalizedError, complex))


def _ent(psi) -> complex:
    """ent's core on a parsed state: its norm is checked, then the form taken."""
    norm = np.sqrt(np.vdot(psi, psi).real)  # vdot overflows to inf, which fails, without a warning
    if not abs(norm - 1.0) <= _TOL_NORM:
        raise NotNormalizedError(f"state norm {norm} is not 1 within {_TOL_NORM:.1e}")
    return complex(psi @ P_ENT @ psi)


@dataclass(frozen=True)
class PeVerdict:
    """Outcome of the convex-hull perfect-entangler test.

    ``margin`` is the signed distance from 0 to the hull boundary (positive
    inside): cos(g/2) with g the widest gap between neighboring eigenphases,
    since the chord across that arc is the hull edge nearest 0 (and, when 0
    is outside, the chord's midpoint is the hull point nearest 0).  Near
    the boundary the margin equals minus the chamber point's excess over
    the nearest perfect-entangler face, to first order, so ``is_pe`` is
    margin ≥ -tol: the band ``pe_from_coords`` allows the face inequalities.
    ``weights``, present when the test passes and the witness passes its
    self-check, are convex weights w ≥ 0 on the squared eigenphases z with
    |Σ w·z| ≤ tol, ordered like ``phases``: ½ and ½ on the ends of the
    widest gap when the margin is at most tol.  Otherwise the point whose
    two neighboring gaps have the least sum is dropped (that merged arc is
    at most π, so the other three still surround 0): ½ and ½ on the arc's
    ends when it is π within tol, else the barycentric weights of the three
    points left, and 0 on the dropped one.  A perfect entangler gets
    ``weights`` None when no weights meet the check, as at tol = 0 where
    rounding leaves |Σ w·z| of about 1e-16; ``is_pe`` and ``margin`` do not
    depend on them.
    """

    is_pe: bool
    margin: float
    phases: np.ndarray
    weights: np.ndarray | None


def is_perfect_entangler(u, tol: float = TOL_HULL) -> PeVerdict:
    """Convex-hull test on the squared eigenphases of m(U).

    U is a perfect entangler iff no arc of length > π is free of
    eigenphases, i.e. iff 0 lies in the convex hull of the four points
    e^{iθ_k}.  The verdict is margin ≥ -tol, with margin the cos of half
    the widest gap, the same band as ``pe_from_coords``' (see ``PeVerdict``).
    It carries the hull margin and, when the test passes, the convex weights
    that witness it (None when none pass their self-check).  ``tol`` is the
    hull's, a finite real ≥ 0.
    """
    v = _verdict_of(_gate(u), tol)[0]
    weights = None if v.weights is None else v.weights.copy()
    return PeVerdict(is_pe=v.is_pe, margin=v.margin, phases=v.phases.copy(), weights=weights)


def _verdict_of(g: _Gate, tol) -> tuple[PeVerdict, str | None]:
    """``_verdict`` on a gate's record: at the default tol the one the record
    keeps, whose arrays are read-only; at a tol a caller passes, a fresh one."""
    if tol is TOL_HULL:
        return g.keep(_default_verdict)
    return _verdict(g.spectrum, _as_tol(tol, TOL_HULL))


def _default_verdict(g: _Gate) -> tuple[PeVerdict, str | None]:
    verdict, failure = _verdict(g.spectrum, TOL_HULL)
    _read_only(verdict.phases)
    if verdict.weights is not None:
        _read_only(verdict.weights)
    return verdict, failure


def _verdict(spec: MSpectrum, tol: float) -> tuple[PeVerdict, str | None]:
    """The verdict and, when a perfect entangler's witness fails its
    self-check (its weights are then None), why."""
    order = spec.theta.argsort()
    theta = spec.theta[order]
    # gaps[k]: sorted point k to k+1 (np.diff's arithmetic, without its overhead)
    gaps = np.concatenate((theta[1:], theta[:1] + 2 * np.pi)) - theta
    margin = float(np.cos(gaps.max() / 2))
    # The margin is about minus the point's excess over the nearest PE face,
    # so this is pe_from_coords' band; a gap's excess over π is twice that
    # face excess, so a bound of π + tol on the gap would be half as wide.
    is_pe = margin >= -tol
    z = np.exp(1j * spec.theta)
    if not is_pe:
        return PeVerdict(is_pe=False, margin=margin, phases=z, weights=None), None
    w = np.zeros(4)
    # Dropping the point between the two gaps of least sum leaves a merged
    # arc of at most π (the two disjoint pair sums add to 2π), so 0 stays in
    # the hull of the other three.
    drop = min(range(4), key=lambda k: gaps[k - 1] + gaps[k])
    if margin <= tol:
        # Half on each end of the widest gap: |Σ w·z| = |cos(g/2)| = |margin|.
        g = int(gaps.argmax())
        w[order[[g, (g + 1) % 4]]] = 0.5
    elif np.cos((gaps[drop - 1] + gaps[drop]) / 2) <= tol:
        # The merged arc is π within tol: its ends are the antipodal pair, and
        # the third point's true weight is 0, which a solve on that near-flat
        # triangle can round below -1e-12.  Half on each end instead.
        w[order[[drop - 1, (drop + 1) % 4]]] = 0.5
    else:
        # Every kept arc is short of π by more than tol: one barycentric solve.
        keep = order[np.arange(4) != drop]
        a = np.array([z[keep].real, z[keep].imag, np.ones(3)])
        try:
            w[keep] = np.linalg.solve(a, np.array([0.0, 0.0, 1.0]))
        except np.linalg.LinAlgError:  # a flat triangle; needs tol ≤ 0
            failure = "hull witness: the three phases left are collinear"
            return PeVerdict(is_pe=True, margin=margin, phases=z, weights=None), failure
    low, residual = float(w.min()), abs(w @ z)
    if low < -1e-12 or not residual <= tol:
        failure = f"hull witness fails: min weight {low:.3e}, |Σ w·z| {residual:.3e}"
        return PeVerdict(is_pe=True, margin=margin, phases=z, weights=None), failure
    # Clipped after the check: a weight of -1e-16 would make sqrt(w) NaN.
    return PeVerdict(is_pe=True, margin=margin, phases=z, weights=np.maximum(w, 0.0)), None


def pe_from_coords(coords) -> bool:
    """Polyhedron membership in canonical coordinates (canonicalizes first):
    c1+c2 ≥ π/2, c2+c3 ≤ π/2, c1-c2 ≤ π/2, each within TOL_HULL."""
    return bool(_in_pe(canonicalize(coords)))


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
    VerificationError
        If the hull weights fail their self-check (see ``PeVerdict``), or the
        states fail theirs.
    """
    g = _gate(u)
    verdict, failure = _verdict_of(g, tol)
    if not verdict.is_pe:
        raise NotPerfectEntanglerError(
            f"gate is not a perfect entangler (hull margin {verdict.margin:.3e})"
        )
    if failure is not None:
        raise VerificationError(failure)
    phi = np.sqrt(verdict.weights) * np.exp(-0.5j * g.spectrum.theta)
    psi_in = MAGIC @ g.spectrum.frame.T @ phi
    psi_out = g.u @ psi_in
    if abs(_ent(psi_in)) > 1e-9 or abs(abs(_ent(psi_out)) - 0.5) > 1e-9:
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
    _as_count(n, "sample count", 1)
    if not isinstance(seed, (int, np.integer)) or not 0 <= seed < 2**128:  # Philox's key
        raise InvalidInputError(f"seed must be an integer in [0, 2**128), got {seed!r}")
    rng = np.random.Generator(np.random.Philox(key=seed))
    accepted = 0
    hits = 0
    while accepted < n:
        # The estimate reads the first n accepted rows of the stream, however
        # many rows each draw takes, so capping the draw keeps memory flat in n.
        rows = min(max(4 * (n - accepted), 1024), _MC_CHUNK)
        block = rng.uniform(0.0, np.pi, size=(rows, 3))
        block.sort(axis=1)
        block = block[:, ::-1]  # descending per row
        block = block[block[:, 0] + block[:, 1] <= np.pi][: n - accepted]
        accepted += block.shape[0]
        hits += int(np.count_nonzero(_in_pe(block, 0.0)))
    return hits / n
