"""Canonical (Weyl-chamber) coordinates of two-qubit gates.

Every two-qubit gate is, up to single-qubit gates and a global phase, the
canonical gate

    A(c) = exp((i/2)(c1 σx⊗σx + c2 σy⊗σy + c3 σz⊗σz)),

and the coordinate triple c is unique once reduced to the chamber

    c1 ≥ c2 ≥ c3 ≥ 0,   c1 + c2 ≤ π,   and  c1 ≤ π/2 whenever c3 = 0.

The symmetry group identifying equivalent triples is generated by
permutations, paired sign flips, and translations by π on each axis; on the
c3 = 0 face this identifies [c1, c2, 0] with [π-c1, c2, 0].  One fixed
sequence of these moves (``_fold``) reaches the chamber from any triple.

Named reference points in the chamber (useful constants)::

    O = [0,0,0] identity     A1 = [π,0,0] identity (far corner)
    A2 = [π/2,π/2,0] iSWAP class     A3 = [π/2,π/2,π/2] SWAP
    L = [π/2,0,0] CNOT class         M = [3π/4,π/4,0]
    N = [3π/4,π/4,π/4] inverse-sqrt-SWAP class
    P = [π/4,π/4,π/4] sqrt-SWAP class      Q = [π/4,π/4,0]
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

from .cartan import MAGIC, PAULIS, WEYL_REFLECTIONS
from .errors import VerificationError
from .invariants import _g, _g_from_coords, _spectrum
from .linalg import TOL_UNITARY, _as_triple, check_unitary

TOL_BASE = 1e-9  # at or below this, c3 counts as "on the base" for the mirror rule
_TOL_CHAMBER = 1e-12  # slack for the closed chamber inequalities
_TOL_DEDUPE = 1e-12

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

# The 4 sign patterns with an even number of flips, and all 6 permutations:
# together (mod π on each axis) they generate the full identification group.
_EVEN_SIGNS = np.array(
    [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float
)
_PERMS = tuple(permutations(range(3)))
# The phase pairs (θ0, θ1), (θ0, θ2), (θ1, θ2) that gate_coords sums.
_PAIRS = np.array([[0, 1], [0, 2], [1, 2]])


def in_chamber(c, tol: float = _TOL_CHAMBER) -> bool:
    """Closed chamber membership test (base-mirror rule included)."""
    c1, c2, c3 = _as_triple(c)
    if not (c1 >= c2 - tol and c2 >= c3 - tol and c3 >= -tol):
        return False
    if c1 + c2 > PI + tol:
        return False
    if c3 <= TOL_BASE and c1 > PI / 2 + tol:
        return False
    return True


def weyl_orbit(c, dedupe_tol: float = _TOL_DEDUPE) -> list[np.ndarray]:
    """All images of a coordinate triple under the identification group,
    reduced mod π to [0, π)³ and deduplicated.  Sorted lexicographically."""
    c = _as_triple(c)
    pts = []
    for s in _EVEN_SIGNS:
        base = np.mod(s * c, PI)
        for p in _PERMS:
            pts.append(base[list(p)])
    pts.sort(key=tuple)
    out: list[np.ndarray] = []
    for p in pts:
        if not out or np.max(np.abs(p - out[-1])) > dedupe_tol:
            out.append(p)
    return out


def canonicalize(c) -> np.ndarray:
    """The chamber representative of a coordinate triple.

    The coordinates of the fold: each coordinate mod π, sorted descending,
    reflected once across c1 + c2 = π if needed, then mirrored on the base
    ([c1, c2, c3] -> [π-c1, c2, -c3] when c3 ≤ 1e-9 and c1 > π/2).  The
    mirror's exact image sits up to 1e-9 below the base; its magnitudes,
    sorted, are returned, so the result is always in the closed chamber.
    """
    out, _ = _fold(c)
    return np.sort(np.abs(out))[::-1]


def _fold(c) -> tuple[np.ndarray, list]:
    """Reduce a coordinate triple to the chamber by exact symmetry moves.

    Returns the image and the moves that produced it, in order: ``(axis, n)``
    for the π-translation c[axis] -> c[axis] - n·π, or a WEYL_REFLECTIONS
    label for c -> action @ c.  Every move maps A(c) to a locally equivalent
    gate, so kak_decompose can turn the list into explicit local factors.
    """
    c = _as_triple(c)
    moves: list = []

    def translate(*axes):
        for axis in axes:
            n = int(np.floor(c[axis] / PI))
            if n:
                c[axis] -= n * PI
                moves.append((axis, n))

    def reflect(label):
        c[:] = WEYL_REFLECTIONS[label].action @ c
        moves.append(label)

    def sort_descending():
        for i in (0, 1, 0):
            if c[i] < c[i + 1]:
                reflect(("c2-c1", "c3-c2")[i])  # swap c[i], c[i+1]

    translate(0, 1, 2)
    sort_descending()
    # With c sorted in [0, π)³ one reflection brings c1 + c2 to ≤ π.
    if c[0] + c[1] > PI:
        reflect("c1+c2")  # -> (-c2, -c1, c3)
        translate(0, 1)
        sort_descending()
    if c[2] <= TOL_BASE and c[0] > PI / 2 + _TOL_CHAMBER:
        reflect("c1+c3")  # -> (-c3, c2, -c1)
        reflect("c1-c3")  # -> (-c1, c2, -c3)
        translate(0)  # -> (π-c1, c2, -c3)
        sort_descending()
    return c + 0.0, moves  # + 0.0 turns -0.0 into 0.0


def coords_of_inverse(c) -> np.ndarray:
    """Canonical coordinates of U⁻¹ given those of U: mirror of c1 through π/2
    on the π-translated axis, i.e. canonicalize([π-c1, c2, c3])."""
    c = _as_triple(c)
    return canonicalize(np.array([PI - c[0], c[1], c[2]]))


def gate_coords(u, tol: float = TOL_UNITARY, verify_tol: float = 1e-8) -> np.ndarray:
    """Canonical coordinates of an arbitrary two-qubit gate.

    In the magic basis m(A(c)) is diagonal with phases
    (c1-c2+c3, c1+c2-c3, -(c1+c2+c3), -c1+c2+c3).  With the balanced
    eigenphases of m(U) sorted as θ0 ≥ θ1 ≥ θ2 ≥ θ3 (they sum to zero),
    c = ((θ0+θ1)/2, (θ0+θ2)/2, (θ1+θ2)/2) reproduces them, and the fold
    (see canonicalize) takes c to the chamber.  Any other ordering of the
    phases, or any other 2π branch, gives a symmetry image of the same
    point, which the fold identifies.

    Raises
    ------
    VerificationError
        If the closed-form invariants of the result are farther than
        ``verify_tol`` from the gate's own invariants.
    """
    return _gate_coords(check_unitary(u, tol=tol), verify_tol)[0]


def _gate_coords(u, verify_tol: float = 1e-8):
    """gate_coords' core over a stack (..., 4, 4) of checked gates.

    Returns the coordinates (..., 3) and the gates' own (g1, complex g2),
    which they were checked against.
    """
    t = np.sort(_spectrum(u).theta_balanced, axis=-1)[..., ::-1]
    raw = t[..., _PAIRS].sum(-1) / 2.0
    c = np.array([canonicalize(r) for r in raw.reshape(-1, 3)]).reshape(raw.shape)
    g1, g2c = _g(u)
    cg1, cg2 = _g_from_coords(c)
    dist = np.sqrt(np.abs(cg1 - g1) ** 2 + (cg2 - g2c.real) ** 2)
    if (dist > verify_tol).any():
        raise VerificationError(
            f"coordinates miss the gate's invariants by {np.max(dist):.3e} > {verify_tol:.1e}"
        )
    return c, (g1, g2c)


def canonical_gate(c) -> np.ndarray:
    """The canonical gate A(c) itself (exact, via its magic-basis diagonal).

    In the magic basis A(c) is diagonal with phases
    (c1-c2+c3, c1+c2-c3, -(c1+c2+c3), -c1+c2+c3)/2.
    """
    c = _as_triple(c)
    ph = coordinate_phase_pattern(c) / 2.0
    return (MAGIC * np.exp(1j * ph)) @ MAGIC.conj().T


def coordinate_phase_pattern(c) -> np.ndarray:
    """The four magic-basis phase sums (twice the diagonal phases of A(c))."""
    c1, c2, c3 = (float(x) for x in np.asarray(c, dtype=float))
    return np.array([c1 - c2 + c3, c1 + c2 - c3, -(c1 + c2 + c3), -c1 + c2 + c3])


# ---------------------------------------------------------------------------
# Named gates


def _cnot() -> np.ndarray:
    return np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    )


def _cz() -> np.ndarray:
    return np.diag([1, 1, 1, -1]).astype(complex)


def _swap() -> np.ndarray:
    return np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    )


def _sqrt_swap() -> np.ndarray:
    s = _swap()
    # principal square root: (I + iS)·(1-i)/2 has square S
    return (1 - 1j) / 2 * (np.eye(4) + 1j * s)


def _sqrt_swap_inv() -> np.ndarray:
    return _sqrt_swap().conj().T


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


_NAMED = {
    "identity": lambda: np.eye(4, dtype=complex),
    "cnot": _cnot,
    "cz": _cz,
    "swap": _swap,
    "sqrtswap": _sqrt_swap,
    "sqrtswap_inv": _sqrt_swap_inv,
    "iswap": lambda: np.array(
        [[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]], dtype=complex
    ),
}


def named_gate(name: str) -> np.ndarray:
    """Look up a standard gate by name.

    Known names: identity, cnot, cz, swap, sqrtswap, sqrtswap_inv, iswap,
    and ``cu(γ1,γ2,γ3)`` for the controlled rotation family.
    """
    key = name.strip().lower().replace("-", "_")
    if key in _NAMED:
        return _NAMED[key]()
    if key.startswith("cu(") and key.endswith(")"):
        parts = key[3:-1].split(",")
        if len(parts) != 3:
            raise ValueError("UnknownGate: cu(...) takes exactly 3 numbers")
        return controlled_gate([float(p) for p in parts])
    raise ValueError(
        f"UnknownGate: {name!r}; known: {sorted(_NAMED)} or cu(a,b,c)"
    )
