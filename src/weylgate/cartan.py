"""Lie-algebra layer: su(4) product-operator basis, Cartan splitting, the
reflection gates that generate the Weyl-group action on canonical
coordinates, and the fold that reduces coordinates to the chamber by it
(``_fold_image``).  The Weyl-group element P and π-translation n that the
fold's moves compose, which only the KAK factors read, are recovered from
the input and the image (``_fold_element``).

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
Their magic-basis diagonals form ``_PATTERN``, the one table from which the
canonical gate's phases, the raw coordinates of a spectrum (``_raw_coords``)
and the coefficients of a conjugation are read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, InvalidInputError, NotNonlocalError
from .linalg import TOL_EIG, _as_array, _as_triple, _eigh, _finite_math, _frobenius, check_hermitian

__all__ = [
    "BASIS_LABELS",
    "MAGIC",
    "PAULIS",
    "WEYL_REFLECTIONS",
    "CartanTarget",
    "HamiltonianSplit",
    "assemble_nonlocal",
    "cartan_conjugate",
    "cartan_element",
    "commutator",
    "generator_basis",
    "killing_form",
    "split_hamiltonian",
]

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
Q_DAG = MAGIC.conj().T

# Column j is the diagonal of Q†·(σj⊗σj)·Q for j = x, y, z (_CARTAN_WORDS), so
# A(c) has the magic-basis phases θ/2, θ = _PATTERN·c.  When θ sums to zero,
# the two phases where column j is +1 sum to 2·c_j, which _RAW reads back.
_PATTERN = np.array([[1, -1, 1], [1, 1, -1], [-1, -1, -1], [-1, 1, 1]], dtype=float)
_RAW = (_PATTERN > 0) / 2.0


def _magic(u) -> np.ndarray:
    """Q†·u·Q over a stack (..., 4, 4): the operators in the magic basis."""
    return Q_DAG @ u @ MAGIC


def _raw_coords(theta) -> np.ndarray:
    """The inverse of _PATTERN over a stack (..., 4) of phases that sum to zero:
    ((θ0+θ1)/2, (θ1+θ3)/2, (θ0+θ3)/2), each rounded as written (the two 0·θ
    terms can turn a -0.0 into 0.0)."""
    return theta @ _RAW


_AXES = ("x", "y", "z")

# Labels for the 15 generators, local-first, then the 9 two-body words.
BASIS_LABELS = tuple(f"{a}1" for a in _AXES) + tuple(f"{a}2" for a in _AXES) + tuple(
    a + b for a in _AXES for b in _AXES
)

def generator_basis() -> tuple[np.ndarray, ...]:
    """The 15 anti-Hermitian su(4) generators in the order of BASIS_LABELS."""
    return _BASIS


@_finite_math
def commutator(a, b) -> np.ndarray:
    """[a, b] = a·b - b·a of two 4x4 matrices (su(4) elements, say)."""
    a, b = _square_pair(a, b)
    return a @ b - b @ a


@_finite_math
def killing_form(a, b) -> float:
    """Killing form B(a, b) = 8·tr(a·b) of two su(4) elements as 4x4 matrices (real)."""
    a, b = _square_pair(a, b)
    return float((8.0 * np.trace(a @ b)).real)


def _square_pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Two finite numeric 4x4 matrices, else InvalidInputError."""
    a = _as_array(a, (4, 4), "a", InvalidInputError, None)
    return a, _as_array(b, (4, 4), "b", InvalidInputError, None)


@dataclass(frozen=True, eq=False)
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
        # hypot scales by the largest |coefficient|, so coefficients near
        # 1e160 do not overflow the sum of squares.
        return math.hypot(*self.local_coeffs)


def _word(label: str) -> np.ndarray:
    if label.endswith("1"):
        return np.kron(PAULIS[label[0]], I2)
    if label.endswith("2"):
        return np.kron(I2, PAULIS[label[0]])
    return np.kron(PAULIS[label[0]], PAULIS[label[1]])


_WORDS = np.array([_word(lbl) for lbl in BASIS_LABELS])
_BASIS = tuple(0.5j * _WORDS)
_CARTAN_WORDS = _WORDS[[6, 10, 14]]  # σj⊗σj, j = x, y, z: diagonal in the magic basis


@_finite_math
def split_hamiltonian(h) -> HamiltonianSplit:
    """Project a Hermitian H onto identity, single-qubit, and two-body words.

    The expansion is H = e0·I + (1/2)·Σ h_j W_j; a Hamiltonian of the common
    form H = (1/2)(Σ J_ab σa⊗σb + ...) therefore reports the J coefficients
    directly.
    """
    return _split(check_hermitian(h))


def _split(h) -> HamiltonianSplit:
    e0 = float(np.trace(h).real) / 4.0
    coeffs = np.einsum("kij,ji->k", _WORDS, h).real / 2.0  # tr(W_k·h) / 2
    return HamiltonianSplit(
        local_coeffs=coeffs[:6].copy(),
        nonlocal_coeffs=coeffs[6:].copy(),
        identity_coeff=e0,
    )


def assemble_nonlocal(coeffs) -> np.ndarray:
    """Inverse of split_hamiltonian for the two-body part: (1/2)Σ J_ab σaσb."""
    coeffs = _as_array(coeffs, (9,), "two-body coefficients", InvalidInputError, float)
    out = np.zeros((4, 4), dtype=complex)
    for j, w in enumerate(_WORDS[6:]):
        out += 0.5 * coeffs[j] * w
    return out


@dataclass(frozen=True, eq=False)
class CartanTarget:
    """Result of rotating a nonlocal Hamiltonian into the Cartan subalgebra.

    ``k`` is a tensor product of single-qubit gates with
    k·H·k† = (coeffs[0]·σxσx + coeffs[1]·σyσy + coeffs[2]·σzσz)/2
    and coeffs sorted descending (coeffs[0] ≥ coeffs[1] ≥ coeffs[2]).
    """

    coeffs: np.ndarray
    k: np.ndarray


class _Conjugation(NamedTuple):
    """The Cartan form as ``_conjugate`` derives it: ``coeffs`` as in
    CartanTarget, and what it formed on the way, which the trajectory
    certificate reads (``hamflow._Generator.slope``): the magic transform
    s = Q†·(h - e0·I)·Q, the eigenvector frame V of Re s, unchecked, and its
    eigenvalues ``mu``, both in the Cartan order, and ``local`` = ||Im s||_F,
    the single-qubit norm it tested.  The local gate k = Q·Vᵀ·Q† is formed
    when it is read, which a trajectory never does."""

    coeffs: np.ndarray
    s: np.ndarray
    frame: np.ndarray
    mu: np.ndarray
    local: float

    @property
    def k(self) -> np.ndarray:
        return MAGIC @ self.frame.T @ Q_DAG


@_finite_math
def cartan_conjugate(h) -> CartanTarget:
    """Rotate a purely two-body Hamiltonian into span{σxσx, σyσy, σzσz}.

    In the magic basis a two-body H becomes a real symmetric matrix S; an
    orthogonal diagonalization of S, with eigenvalue pairs matched to the
    diagonal pattern of the Cartan words, pulls back to the required local
    gate.  The identity component of H is ignored (it only contributes a
    global phase to time evolution); any single-qubit component is an error.

    The single-qubit bound is its one two-body test: in the magic basis the
    single-qubit words are purely imaginary and the two-body words real, so
    the imaginary part of S has the single-qubit norm, which the bound caps.

    Raises
    ------
    NotNonlocalError
        If the norm of the single-qubit part of ``h`` exceeds
        1e-9·max(1, ||h||_F), a bound that grows with h as its rounding does.
    ConvergenceError
        If ||Re S - V·diag(μ)·Vᵀ||_F, for the eigenvector frame V of Re S
        and its eigenvalues μ, exceeds TOL_EIG·max(1, ||Re S||_F).
    """
    c = _conjugate(check_hermitian(h))
    resid = _frobenius(c.s.real - (c.frame * c.mu) @ c.frame.T)
    if not resid <= TOL_EIG * max(1.0, _frobenius(c.s.real)):  # a NaN residual fails too
        raise ConvergenceError(f"Cartan frame residual {resid:.3e} too large")
    return CartanTarget(coeffs=c.coeffs, k=c.k)


def _conjugate(h) -> _Conjugation:
    e0 = float(np.trace(h).real) / 4.0
    s = _magic(h - e0 * np.eye(4))
    # In the magic basis the single-qubit words are imaginary and the rest
    # real, so ||Im s||_F is the single-qubit norm.  Both norms by hypot,
    # which scales by the largest entry: a sum of squares would overflow
    # above 1.3e154, and check_hermitian admits any h of finite ||h||_F.
    local = math.hypot(*s.imag.flat)
    if local > 1e-9 * max(1.0, math.hypot(*np.abs(h).flat)):
        raise NotNonlocalError(f"Hamiltonian has single-qubit terms (norm {local:.3e})")
    mu, v = _eigh(s.real)

    # A Cartan element has the magic-basis diagonal _PATTERN·c/2.  Reading the
    # descending eigenvalues μ0..μ3 (sum ≈ 0) in the order (μ1, μ0, μ3, μ2) as
    # that diagonal gives c1 = μ0+μ1 ≥ c2 = μ0+μ2 ≥ c3 = μ1+μ2.  The eigenvector
    # columns take the same even permutation, so det stays +1.
    mu, v = mu[[1, 0, 3, 2]], v[:, [1, 0, 3, 2]]
    return _Conjugation(_raw_coords(2 * mu), s, v, mu, local)


@_finite_math
def cartan_element(coeffs) -> np.ndarray:
    """(c1·σxσx + c2·σyσy + c3·σzσz)/2 as an explicit Hermitian matrix."""
    c, w = _as_triple(coeffs), _CARTAN_WORDS
    return 0.5 * (c[0] * w[0] + c[1] * w[1] + c[2] * w[2])


def _local_rotation(axis: str, sign: int) -> np.ndarray:
    """exp(i·π/4·σ_axis) ⊗ exp(±i·π/4·σ_axis), the π/2 two-qubit rotation
    implementing one Weyl reflection."""
    p = PAULIS[axis]
    f = np.cos(np.pi / 4) * I2 + 1j * np.sin(np.pi / 4) * p
    g = np.cos(np.pi / 4) * I2 + sign * 1j * np.sin(np.pi / 4) * p
    return np.kron(f, g)


@dataclass(frozen=True, eq=False)
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
    # Difference roots: same-sign rotations, coordinate swaps.  Sum roots:
    # opposite-sign rotations, swaps with two sign flips.
    specs = {"c3-c2": ("x", 1), "c2-c1": ("z", 1), "c1-c3": ("y", 1)}
    specs |= {"c2+c3": ("x", -1), "c1+c2": ("z", -1), "c1+c3": ("y", -1)}
    table = {}
    for label, (axis, sign) in specs.items():
        # A real signed permutation O in the magic basis permutes the phases
        # _PATTERN·c by O∘O, which maps c to _PATTERNᵀ·(O∘O)·_PATTERN·c/4.
        gate = _local_rotation(axis, sign)
        o = _magic(gate).real
        action = np.rint(_PATTERN.T @ (o * o) @ _PATTERN / 4.0) + 0.0  # exact ±1 and +0.0
        table[label] = WeylReflection(label, gate, action)
    return table


WEYL_REFLECTIONS = _reflection_table()


def _frame(*labels: str) -> tuple[np.ndarray, np.ndarray]:
    """The (gate, action) of the product of the reflections named by ``labels``."""
    rs = [WEYL_REFLECTIONS[label] for label in labels]
    return reduce(np.matmul, [r.gate for r in rs]), reduce(np.matmul, [r.action for r in rs])


def _weyl_group() -> tuple[np.ndarray, np.ndarray]:
    """The 24 signed permutations the reflections generate (every
    permutation, with an even number of sign flips), each with a local gate
    g realizing it: g·A(c)·g† = A(P·c).

    Element 0 is the identity; the others are found breadth first, each gate
    the product of the reflection gates along the way.
    """
    actions, gates = [np.eye(3)], [np.eye(4, dtype=complex)]
    seen = {np.eye(3, dtype=int).tobytes()}
    for action, gate in zip(actions, gates):  # both lists grow as they are walked
        for r in WEYL_REFLECTIONS.values():
            image = r.action @ action
            key = image.astype(int).tobytes()
            if key not in seen:
                seen.add(key)
                actions.append(image)
                gates.append(r.gate @ gate)
    return np.array(actions), np.array(gates)


# The Weyl group acting on canonical coordinates: the fold's element is named
# by an index into these tables.
_WEYL_ACTIONS, _WEYL_GATES = _weyl_group()


# ---------------------------------------------------------------------------
# The fold: the Weyl group's reduction of coordinates to the chamber
#
# One function makes the moves, on the coordinates alone, for every caller
# (_fold_image).  Their composite is one element P of the group above and one
# translation n, image = P·c + π·n, which _fold_element reads back from c and
# the image for the KAK factors.

TOL_BASE = 1e-9  # at or below this, c3 counts as "on the base" for the mirror rule
_TOL_CHAMBER = 1e-12  # slack for the closed chamber inequalities

# x @ M + S applies a move to a stack x of triples.  The first mod π leaves
# each coordinate in [0, π] (no exception was found below |c| = 1e11; far
# past it, rounding can leave one just above π), and each branch's own test
# then puts the axes it negates in [-π, 0), whose mod π is the + π of S.
# No move makes a -0.0: c - n·π is -0.0 only if c is -0.0 and n·π is 0.0,
# yet floor keeps the sign of c / π, and each move adds 0.0 or π.  So equal
# coordinates are equal bit for bit, and np.sort orders them as a stable
# sort would.
_REFLECT_SUM = WEYL_REFLECTIONS["c1+c2"].action.T
_REFLECT_SHIFT = np.array([np.pi, np.pi, 0.0])
_BASE_MIRROR = _frame("c1-c3", "c1+c3")[1].T
_MIRROR_SHIFT = np.array([np.pi, 0.0, 0.0])
# c @ _WEYL_STACK holds P·c for each element P in table order, side by side.
_WEYL_STACK = _WEYL_ACTIONS.transpose(2, 0, 1).reshape(3, -1)


def _fold_image(c):
    """Reduce a stack (..., 3) of coordinate triples to the chamber by exact
    symmetry moves: each coordinate mod π; a descending sort; one reflection
    across c1 + c2 = π if needed, then mod π on the two reflected axes and
    sort again; the base mirror [c1, c2, c3] -> [π-c1, c2, -c3] when
    c3 ≤ TOL_BASE and c1 > π/2, then sort again.  Each row takes a branch
    only if its own test holds, so the image is the one it would get alone."""
    x = c - np.floor(c / np.pi) * np.pi  # each coordinate mod π
    x = np.sort(x, axis=-1)[..., ::-1]
    m = x[..., 0] + x[..., 1] > np.pi
    if m.any():
        # a + b > π with 0 ≤ b ≤ a ≤ π: -a and -b lie in [-π, 0)
        y = x @ _REFLECT_SUM + _REFLECT_SHIFT  # -> (π-c2, π-c1, c3)
        x = np.where(m[..., None], np.sort(y, axis=-1)[..., ::-1], x)
    m = (x[..., 2] <= TOL_BASE) & (x[..., 0] > np.pi / 2 + _TOL_CHAMBER)
    if m.any():
        y = x @ _BASE_MIRROR + _MIRROR_SHIFT  # -> (π-c1, c2, -c3), as π/2 < c1 ≤ π
        x = np.where(m[..., None], np.sort(y, axis=-1)[..., ::-1], x)
    return x


def _fold_element(c, image):
    """The fold's composite, per row of the stacks (..., 3) c and
    image = _fold_image(c): the index p of the Weyl-group element P into
    ``_WEYL_ACTIONS`` and ``_WEYL_GATES``, and the integer vector n, with
    image = P·c + π·n.  For each P, d = (image - P·c)/π is n when P is the
    moves' element; the P whose d lies nearest an integer vector is taken,
    the first in table order where several are equally near (an exact tie,
    as at c = 0, where every P maps c to the image).  Its n is that P's
    rint(d), read out of each row by plain indexing."""
    d = (image[..., None, :] - (c @ _WEYL_STACK).reshape(c.shape[:-1] + (len(_WEYL_ACTIONS), 3))) / np.pi
    n = np.rint(d)
    p = np.abs(d - n).max(-1).argmin(-1)
    return p, n[(*np.indices(p.shape, sparse=True), p)].astype(np.intp)
