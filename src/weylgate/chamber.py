"""Canonical (Weyl-chamber) coordinates of two-qubit gates.

Every two-qubit gate is, up to single-qubit gates and a global phase, the
canonical gate

    A(c) = exp((i/2)(c1 σx⊗σx + c2 σy⊗σy + c3 σz⊗σz)),

diagonal in the magic basis with the phases ``cartan._PATTERN``·c/2, and
the coordinate triple c is unique once reduced to the chamber

    c1 ≥ c2 ≥ c3 ≥ 0,   c1 + c2 ≤ π,   and  c1 ≤ π/2 whenever c3 = 0.

The symmetry group identifying equivalent triples is generated by
permutations, paired sign flips, and translations by π on each axis; on the
c3 = 0 face this identifies [c1, c2, 0] with [π-c1, c2, 0].  The fold
(``cartan._fold``, beside the group it names) reaches the chamber from a
whole stack of triples at once, by one fixed sequence of these moves per
triple, and reports their composite as one Weyl-group element P (a signed
permutation with an even number of sign flips) and one integer
translation n: image = P·c + π·n.

Named reference points in the chamber (useful constants)::

    O = [0,0,0] identity     A1 = [π,0,0] identity (far corner)
    A2 = [π/2,π/2,0] iSWAP class     A3 = [π/2,π/2,π/2] SWAP
    L = [π/2,0,0] CNOT class         M = [3π/4,π/4,0]
    N = [3π/4,π/4,π/4] inverse-sqrt-SWAP class
    P = [π/4,π/4,π/4] sqrt-SWAP class      Q = [π/4,π/4,0]
"""

from __future__ import annotations

import numpy as np

from .cartan import _PATTERN, _TOL_CHAMBER, _WEYL_ACTIONS, MAGIC, PAULIS, Q_DAG, TOL_BASE, _fold
from .errors import InvalidInputError, VerificationError
from .invariants import _g_from_coords, _Gate, _gate
from .linalg import _as_text, _as_tol, _as_triple, _finite_math

_TOL_VERIFY = 1e-8  # how far _verified lets coordinates miss the gate's invariants
# The largest |raw coordinate| _gate_coords folds.  The closed-form triple and
# the gate's spectrum each round by about |c|·ε, so their points drift apart as
# |c| grows (7e-11 at 1e5, measured on the two-body flows); past this the
# spectrum decides, as it does for every gate whose raw coordinates are not known.
_FOLD_REACH = 1e5
# From 2^53 on, neighboring floats are 2 or more apart, so c mod π carries no
# information: canonicalize refuses a coordinate this large.
_MOD_PI_REACH = 2.0**53

PI = np.pi

VERTEX_O = np.array([0.0, 0.0, 0.0])
VERTEX_A1 = np.array([PI, 0.0, 0.0])
VERTEX_A2 = np.array([PI / 2, PI / 2, 0.0])
VERTEX_A3 = np.array([PI / 2, PI / 2, PI / 2])
VERTEX_L = np.array([PI / 2, 0.0, 0.0])
VERTEX_M = np.array([3 * PI / 4, PI / 4, 0.0])
VERTEX_N = np.array([3 * PI / 4, PI / 4, PI / 4])
VERTEX_P = np.array([PI / 4, PI / 4, PI / 4])
VERTEX_Q = np.array([PI / 4, PI / 4, 0.0])


def in_chamber(c, tol: float = _TOL_CHAMBER) -> bool:
    """Closed chamber membership test (base-mirror rule included); ``tol``
    must be a finite real ≥ 0."""
    tol = _as_tol(tol, _TOL_CHAMBER)
    c1, c2, c3 = _as_triple(c).tolist()  # floats: c1 + c2 may overflow to inf
    ordered = c1 >= c2 - tol and c2 >= c3 - tol and c3 >= -tol
    return ordered and c1 + c2 <= PI + tol and not (c3 <= TOL_BASE and c1 > PI / 2 + tol)


def weyl_orbit(c) -> list[np.ndarray]:
    """All images of a coordinate triple under the identification group,
    reduced mod π to [0, π)³ and deduplicated at 1e-12.  Sorted lexicographically."""
    pts = sorted(np.mod(_WEYL_ACTIONS @ _as_triple(c), PI), key=tuple)
    out: list[np.ndarray] = []
    for p in pts:
        if not out or np.max(np.abs(p - out[-1])) > 1e-12:
            out.append(p)
    return out


@_finite_math
def canonicalize(c) -> np.ndarray:
    """The chamber representative of a coordinate triple.

    The coordinates of the fold: each coordinate mod π, sorted descending,
    reflected once across c1 + c2 = π if needed, then mirrored on the base
    ([c1, c2, c3] -> [π-c1, c2, -c3] when c3 ≤ 1e-9 and c1 > π/2).  The
    mirror's exact image sits up to 1e-9 below the base; its magnitudes,
    sorted, are returned, so the result is always in the closed chamber.

    The mirror rule is a threshold on rounded numbers.  Where c3 lands
    within rounding of ``TOL_BASE`` with c1 > π/2, two triples of one orbit
    may fall on either side of it, and either the point or its exact base
    mirror [π-c1, c2, c3] (sorted) may come back.

    A coordinate with |c_j| ≥ 2^53 raises InvalidInputError: from there on
    neighboring floats are 2 or more apart, and c_j mod π is meaningless.
    """
    c = _as_triple(c)
    if not np.abs(c).max() < _MOD_PI_REACH:
        raise InvalidInputError(f"coords must be below 2^53 in magnitude to fold mod π, got {c}")
    return _chamber_point(_fold(c)[0])


def _chamber_point(image) -> np.ndarray:
    """A stack (..., 3) of fold images as chamber points: the magnitudes,
    sorted descending (a base mirror's image has -TOL_BASE ≤ c3 ≤ 0)."""
    return np.sort(np.abs(image), axis=-1)[..., ::-1]


def coords_of_inverse(c) -> np.ndarray:
    """Canonical coordinates of U⁻¹ given those of U: mirror of c1 through π/2
    on the π-translated axis, i.e. canonicalize([π-c1, c2, c3])."""
    c = _as_triple(c)
    return canonicalize(np.array([PI - c[0], c[1], c[2]]))


def gate_coords(u) -> np.ndarray:
    """Canonical coordinates of an arbitrary two-qubit gate.

    In the magic basis m(A(c)) is diagonal with phases ``cartan._PATTERN``·c.
    The balanced eigenphases θ of m(U), which sum to zero, are read as that
    pattern in the order the spectrum returns them (``cartan._raw_coords``),
    and the fold (see canonicalize) takes c to the chamber.  Any other
    ordering of the phases, or any other 2π branch, gives a symmetry image
    of the same point, which the fold identifies.

    Raises
    ------
    VerificationError
        If the closed-form invariants of the result are farther than
        1e-8 from the gate's own invariants.
    """
    return _verified(_gate(u))[0]


def _gate_coords(u, raw=None):
    """gate_coords' core over a stack (..., 4, 4) of checked gates, on a fresh
    record: the coordinates (..., 3) and the (g1, complex g2) they were checked against.

    ``raw``, given for a stack (N, 4, 4), holds the gates' raw coordinates
    (N, 3) where they are known in closed form: a row is then folded from
    raw, with no spectrum, and checked against its gate's invariants as
    _verified checks it.  A row beyond _FOLD_REACH, or whose point misses
    the check, is read from its gate's spectrum instead, on those rows alone.
    """
    if raw is None:
        return _verified(_Gate(u))
    near = np.abs(raw).max(-1) <= _FOLD_REACH  # an inf is beyond it
    if not near.all():
        raw = np.where(near[:, None], raw, 0.0)
    c = _chamber_point(_fold(raw)[0])
    g1, g2c = _Gate(u).invariant_pair
    redo = ~near | (_miss(c, g1, g2c) > _TOL_VERIFY)
    if redo.any():
        c[redo] = _gate_coords(u[redo])[0]
    return c, (g1, g2c)


def _verified(g: _Gate):
    """A record's chamber points and its (g1, complex g2); raises VerificationError
    when a point's closed-form invariants miss the gate's by > _TOL_VERIFY."""
    c = _chamber_point(g.fold[0])
    g1, g2c = g.invariant_pair
    dist = _miss(c, g1, g2c)
    if (dist > _TOL_VERIFY).any():
        raise VerificationError(
            f"coordinates miss the gate's invariants by {np.max(dist):.3e} > {_TOL_VERIFY:.1e}"
        )
    return c, (g1, g2c)


def _miss(c, g1, g2c):
    """How far the closed-form invariants of a stack of chamber points miss
    the pairs (g1, complex g2), row by row."""
    cg1, cg2 = _g_from_coords(c)
    return np.sqrt(np.abs(cg1 - g1) ** 2 + (cg2 - g2c.real) ** 2)


@_finite_math
def canonical_gate(c) -> np.ndarray:
    """The canonical gate A(c) itself (exact, via its magic-basis diagonal,
    the phases ``cartan._PATTERN``·c/2)."""
    return _canonical_gate(_as_triple(c))


def _canonical_gate(c) -> np.ndarray:
    """canonical_gate's core on a checked triple."""
    return (MAGIC * np.exp(0.5j * (_PATTERN @ c))) @ Q_DAG


# ---------------------------------------------------------------------------
# Named gates


@_finite_math
def controlled_gate(phases) -> np.ndarray:
    """Controlled one-qubit gate, parameterized by the rotation's canonical
    angles: control qubit 1, target action exp((i/2)(γ1σx+γ2σy+γ3σz))-like.

    Concretely ``diag-block`` form  |0⟩⟨0|⊗I + |1⟩⟨1|⊗V with
    V = exp(i(γ1 σx + γ2 σy + γ3 σz)); only the invariant class matters
    here, which depends on the γ's through the single angle |γ|.
    """
    g = _as_triple(phases, "controlled gate rotation components")
    h = g[0] * PAULIS["x"] + g[1] * PAULIS["y"] + g[2] * PAULIS["z"]
    angle = np.linalg.norm(g)
    if angle < 1e-300:
        v = np.eye(2, dtype=complex)
    else:
        n = h / angle
        v = np.cos(angle) * np.eye(2) + 1j * np.sin(angle) * n
    out = np.zeros((4, 4), dtype=complex)
    out[:2, :2] = np.eye(2)
    out[2:, 2:] = v
    return out


_SWAP = np.eye(4, dtype=complex)[[0, 2, 1, 3]]
_SQRT_SWAP = (1 - 1j) / 2 * (np.eye(4) + 1j * _SWAP)  # the principal root: (I + iS)·(1-i)/2
_NAMED = {
    "identity": np.eye(4, dtype=complex),
    "cnot": np.eye(4, dtype=complex)[[0, 1, 3, 2]],
    "cz": np.diag([1, 1, 1, -1]).astype(complex),
    "swap": _SWAP,
    "sqrtswap": _SQRT_SWAP,
    "sqrtswap_inv": _SQRT_SWAP.conj().T,
    "iswap": np.array([[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]]),
}


def named_gate(name: str) -> np.ndarray:
    """Look up a standard gate by name.

    Known names: identity, cnot, cz, swap, sqrtswap, sqrtswap_inv, iswap,
    and ``cu(γ1,γ2,γ3)`` for the controlled rotation family.
    """
    key = _as_text(name, "gate name").strip().lower()
    table_key = key.replace("-", "_")  # sqrtswap-inv; a cu(...) angle keeps its "-"
    if table_key in _NAMED:
        return _NAMED[table_key].copy()
    if key.startswith("cu(") and key.endswith(")"):
        parts = key[3:-1].split(",")
        if len(parts) != 3:
            raise InvalidInputError("UnknownGate: cu(...) takes exactly 3 numbers")
        try:
            phases = [float(p) for p in parts]
        except ValueError as exc:
            raise InvalidInputError(str(exc)) from None
        return controlled_gate(phases)
    raise InvalidInputError(f"UnknownGate: {name!r}; known: {sorted(_NAMED)} or cu(a,b,c)")
