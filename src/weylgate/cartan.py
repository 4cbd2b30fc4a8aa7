"""Lie-algebra layer: su(4) product-operator basis, Cartan splitting, and the
reflection gates that generate the Weyl-group action on canonical coordinates.

Conventions
-----------
Generators are anti-Hermitian, X = (i/2)·(Pauli word).  The basis is ordered
local-first::

    X1..X3  = (i/2) σx,σy,σz on qubit 1
    X4..X6  = (i/2) σx,σy,σz on qubit 2
    X7..X15 = (i/2) σa⊗σb for ab in xx,xy,xz,yx,yy,yz,zx,zy,zz

With this normalization tr(Xj Xk) = -δjk and the Killing form is
B(X, Y) = 8·tr(XY), so B(Xj, Xk) = -8·δjk.

The Cartan (maximal abelian) subalgebra of the nonlocal part is spanned by
the three "diagonal" words σx⊗σx, σy⊗σy, σz⊗σz (X7, X11, X15).  A purely
nonlocal Hamiltonian H can always be rotated into it by a local gate k:
``k H k† = (c1 σxσx + c2 σyσy + c3 σzσz)/2`` — see :func:`cartan_conjugate`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotNonlocalError
from .linalg import _as_triple, check_hermitian, eig_real_symmetric, kron2

I2 = np.eye(2)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}

# The magic basis: columns are the Bell-like states in which every tensor
# product of single-qubit gates becomes a real orthogonal matrix, and in
# which the σa⊗σa words are simultaneously diagonal.
MAGIC = np.array(
    [
        [1, 0, 0, 1j],
        [0, 1j, 1, 0],
        [0, 1j, -1, 0],
        [1, 0, 0, -1j],
    ],
    dtype=complex,
) / np.sqrt(2)

_AXES = ("x", "y", "z")

# Labels for the 15 generators, local-first, then the 9 two-body words.
BASIS_LABELS = tuple(f"{a}1" for a in _AXES) + tuple(f"{a}2" for a in _AXES) + tuple(
    a + b for a in _AXES for b in _AXES
)

# Indices (into the 9 nonlocal coefficients) of the Cartan words xx, yy, zz.
CARTAN_WORD_INDICES = (0, 4, 8)


def _build_basis() -> tuple[np.ndarray, ...]:
    mats = []
    for a in _AXES:
        mats.append(0.5j * kron2(PAULIS[a], I2))
    for a in _AXES:
        mats.append(0.5j * kron2(I2, PAULIS[a]))
    for a in _AXES:
        for b in _AXES:
            mats.append(0.5j * kron2(PAULIS[a], PAULIS[b]))
    return tuple(mats)


_BASIS = _build_basis()


def generator_basis() -> tuple[np.ndarray, ...]:
    """The 15 anti-Hermitian su(4) generators in the order of BASIS_LABELS."""
    return _BASIS


def commutator(a, b) -> np.ndarray:
    return np.asarray(a) @ np.asarray(b) - np.asarray(b) @ np.asarray(a)


def killing_form(a, b) -> float:
    """Killing form B(a, b) = 8·tr(a·b) of two su(4) elements (real)."""
    val = 8.0 * np.trace(np.asarray(a) @ np.asarray(b))
    return float(val.real)


@dataclass(frozen=True)
class HamiltonianSplit:
    """Coefficients of a 4x4 Hermitian operator over the Pauli words.

    H = identity_coeff·I + Σ local_coeffs[j]·(single-qubit word)/2·...

    Concretely, writing H = e0·I + Σ_j h_j·W_j/2 over the fifteen normalized
    words W_j (σa on one qubit, or σa⊗σb), ``local_coeffs`` holds the six
    single-qubit h_j (order x1,y1,z1,x2,y2,z2), ``nonlocal_coeffs`` the nine
    two-body h_j (order xx,xy,...,zz), and ``identity_coeff`` e0 = tr(H)/4.
    """

    local_coeffs: np.ndarray
    nonlocal_coeffs: np.ndarray
    identity_coeff: float

    @property
    def local_norm(self) -> float:
        return float(np.linalg.norm(self.local_coeffs))


def _word(label: str) -> np.ndarray:
    if label.endswith("1"):
        return kron2(PAULIS[label[0]], I2)
    if label.endswith("2"):
        return kron2(I2, PAULIS[label[0]])
    return kron2(PAULIS[label[0]], PAULIS[label[1]])


_WORDS = tuple(_word(lbl) for lbl in BASIS_LABELS)


def split_hamiltonian(h, tol: float = 1e-9) -> HamiltonianSplit:
    """Project a Hermitian H onto identity, single-qubit, and two-body words.

    The expansion is H = e0·I + (1/2)·Σ h_j W_j; a Hamiltonian of the common
    form H = (1/2)(Σ J_ab σa⊗σb + ...) therefore reports the J coefficients
    directly.
    """
    return _split(check_hermitian(h, tol=tol))


def _split(h) -> HamiltonianSplit:
    e0 = float(np.trace(h).real) / 4.0
    coeffs = np.array([np.trace(w @ h).real / 2.0 for w in _WORDS])
    return HamiltonianSplit(
        local_coeffs=coeffs[:6].copy(),
        nonlocal_coeffs=coeffs[6:].copy(),
        identity_coeff=e0,
    )


def assemble_nonlocal(coeffs) -> np.ndarray:
    """Inverse of split_hamiltonian for the two-body part: (1/2)Σ J_ab σaσb."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (9,) or not np.isfinite(coeffs).all():
        raise ValueError("expected 9 finite two-body coefficients (xx, xy, ..., zz)")
    out = np.zeros((4, 4), dtype=complex)
    for j, w in enumerate(_WORDS[6:]):
        out += 0.5 * coeffs[j] * w
    return out


@dataclass(frozen=True)
class CartanTarget:
    """Result of rotating a nonlocal Hamiltonian into the Cartan subalgebra.

    ``k`` is a tensor product of single-qubit gates with
    k·H·k† = (coeffs[0]·σxσx + coeffs[1]·σyσy + coeffs[2]·σzσz)/2
    and coeffs sorted descending (coeffs[0] ≥ coeffs[1] ≥ coeffs[2]).
    """

    coeffs: np.ndarray
    k: np.ndarray


def cartan_conjugate(h, tol_local: float = 1e-9) -> CartanTarget:
    """Rotate a purely two-body Hamiltonian into span{σxσx, σyσy, σzσz}.

    In the magic basis a two-body H becomes a real symmetric matrix S; an
    orthogonal diagonalization of S, with eigenvalue pairs matched to the
    diagonal pattern of the Cartan words, pulls back to the required local
    gate.  The identity component of H is ignored (it only contributes a
    global phase to time evolution); any single-qubit component is an error.

    Raises
    ------
    NotNonlocalError
        If the single-qubit part of ``h`` exceeds ``tol_local``.
    """
    return _conjugate(check_hermitian(h), tol_local)


def _conjugate(h, tol_local: float = 1e-9) -> CartanTarget:
    split = _split(h)
    if split.local_norm > tol_local:
        raise NotNonlocalError(
            f"Hamiltonian has single-qubit terms (norm {split.local_norm:.3e})"
        )
    h0 = h - split.identity_coeff * np.eye(4)

    s = MAGIC.conj().T @ h0 @ MAGIC
    if np.linalg.norm(s.imag) > 1e-9:
        # A Hermitian two-body operator is always real in the magic basis;
        # failure here means the input was not actually two-body.
        raise NotNonlocalError("Hamiltonian is not purely two-body")
    mu, v = eig_real_symmetric(s.real)

    # In the magic basis a Cartan element (c1·σxσx + c2·σyσy + c3·σzσz)/2 is
    # diagonal with entries, in basis order,
    #   ((c1-c2+c3), (c1+c2-c3), -(c1+c2+c3), (-c1+c2+c3)) / 2.
    # Writing the eigenvalues of S sorted descending as μ1 ≥ μ2 ≥ μ3 ≥ μ4
    # (μ4 = -(μ1+μ2+μ3), tracelessness) and choosing
    #   c1 = μ1+μ2, c2 = μ1+μ3, c3 = μ2+μ3   (then c1 ≥ c2 ≥ c3),
    # that diagonal pattern reads (μ2, μ1, μ4, μ3): so reorder the eigenvector
    # columns accordingly.  The reorder is an even permutation, so det stays +1.
    perm = (1, 0, 3, 2)
    w = v[:, perm]
    o = w.T
    k = MAGIC @ o @ MAGIC.conj().T

    c = np.array([mu[0] + mu[1], mu[0] + mu[2], mu[1] + mu[2]])
    return CartanTarget(coeffs=c, k=k)


def cartan_element(coeffs) -> np.ndarray:
    """(c1·σxσx + c2·σyσy + c3·σzσz)/2 as an explicit Hermitian matrix."""
    c = _as_triple(coeffs)
    return 0.5 * (
        c[0] * _WORDS[6] + c[1] * _WORDS[10] + c[2] * _WORDS[14]
    )


def _local_rotation(axis: str, sign: int) -> np.ndarray:
    """exp(i·π/4·σ_axis) ⊗ exp(±i·π/4·σ_axis), the π/2 two-qubit rotation
    implementing one Weyl reflection."""
    p = PAULIS[axis]
    f = np.cos(np.pi / 4) * I2 + 1j * np.sin(np.pi / 4) * p
    g = np.cos(np.pi / 4) * I2 + sign * 1j * np.sin(np.pi / 4) * p
    return kron2(f, g)


@dataclass(frozen=True)
class WeylReflection:
    """A reflection of canonical coordinates realized by a concrete local gate.

    ``gate`` satisfies  gate · cartan_element(c) · gate† =
    cartan_element(action @ c)  for every c, where ``action`` is a signed
    3x3 permutation matrix.
    """

    label: str
    gate: np.ndarray
    action: np.ndarray


def _reflection_table() -> dict[str, WeylReflection]:
    def mat(rows):
        return np.array(rows, dtype=float)

    specs = {
        # difference roots: same-sign rotations, coordinate swaps
        "c3-c2": ("x", +1, mat([[1, 0, 0], [0, 0, 1], [0, 1, 0]])),
        "c2-c1": ("z", +1, mat([[0, 1, 0], [1, 0, 0], [0, 0, 1]])),
        "c1-c3": ("y", +1, mat([[0, 0, 1], [0, 1, 0], [1, 0, 0]])),
        # sum roots: opposite-sign rotations, swaps with two sign flips
        "c2+c3": ("x", -1, mat([[1, 0, 0], [0, 0, -1], [0, -1, 0]])),
        "c1+c2": ("z", -1, mat([[0, -1, 0], [-1, 0, 0], [0, 0, 1]])),
        "c1+c3": ("y", -1, mat([[0, 0, -1], [0, 1, 0], [-1, 0, 0]])),
    }
    return {
        label: WeylReflection(label, _local_rotation(axis, sign), action)
        for label, (axis, sign, action) in specs.items()
    }


WEYL_REFLECTIONS = _reflection_table()


def weyl_reflection_gate(label: str) -> np.ndarray:
    """The local gate for one Weyl reflection, by root label.

    Labels name the functional on coordinates whose sign the reflection
    controls: ``c3-c2``, ``c2-c1``, ``c1-c3`` (coordinate swaps) and
    ``c2+c3``, ``c1+c2``, ``c1+c3`` (swaps with two sign flips).  An
    ``i(...)`` wrapper and whitespace are tolerated.
    """
    key = label.replace(" ", "")
    if key.startswith("i(") and key.endswith(")"):
        key = key[2:-1]
    if key not in WEYL_REFLECTIONS:
        raise ValueError(
            f"unknown root label {label!r}; expected one of {sorted(WEYL_REFLECTIONS)}"
        )
    return WEYL_REFLECTIONS[key].gate
