"""Trajectories of canonical coordinates generated by two-qubit Hamiltonians.

A Hamiltonian H generates the gate family U(t) = exp(i·H·t); this module
tracks the invariants and chamber coordinates along t for the standard
coupling models, provides closed-form invariant curves for the exactly
solvable ones, and solves the minimum-time CNOT problem for the
Josephson-junction (capacitively coupled charge qubit) model.  A coupling
is a ``HamiltonianSpec`` (a matrix enters as ``HamiltonianSpec.custom``); its
flow and Cartan form are derived once and kept by the spec (``_Generator``);
what synthesis derives from them, ``synth`` keeps on the same record.

``trajectory`` takes a coordinate path per coupling.  A purely two-body H
(up to identity) has a local k with k·H·k† = (c1 σxσx + c2 σyσy + c3 σzσz)/2,
so U(t) is locally equivalent to A(t·c): its chamber point is the fold of
the line t·c, read with no spectrum and checked against the invariants of
U(t).  A time that misses that check, or whose t·c is too large to fold,
and every time of a coupling with single-qubit terms (josephson), are read
from the spectrum of m(U(t)).

Supported kinds
---------------
``isotropic``    (σxσx+σyσy+σzσz)/4 — exchange with equal couplings
``xy``           (σxσx+σyσy)/4
``ising``        σzσz/4
``exchange``     (Jxx σxσx + Jyy σyσy + Jxy σxσy + Jyx σyσx)/2
``josephson``    -(E_J/2)(σx⊗I + I⊗σx) + (E_J²/E_L)·σyσy, E_J = α·E_L
``custom``       any explicit Hermitian 4x4 matrix
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .cartan import _WORDS, CartanTarget, _conjugate, cartan_element
from .chamber import _gate_coords
from .entangler import _in_pe
from .errors import ConvergenceError, InvalidInputError, NotNonlocalError
from .invariants import LocalInvariants, _Gate, _invariants_of, _lazy
from .linalg import _as_array, _as_instance, _as_real, _finite_math, _flow, check_hermitian

__all__ = [
    "HamiltonianSpec",
    "JosephsonCnot",
    "Trajectory",
    "TrajectorySample",
    "closed_form_invariants",
    "exchange_coords",
    "josephson_cnot_min_time",
    "josephson_invariants",
    "parse_hamiltonian",
    "realize",
    "trajectory",
]

_K_MAX = 8  # the largest k of the odd quarter-period counts 2k+1 josephson_cnot_min_time searches


@dataclass(frozen=True)
class HamiltonianSpec:
    """A named Hamiltonian family plus its parameters, kept as given (hashable,
    exact); ``realize`` parses them on the spec's first use."""

    kind: str
    params: tuple[float, ...] = ()

    @staticmethod
    def isotropic() -> "HamiltonianSpec":
        return HamiltonianSpec("isotropic")

    @staticmethod
    def xy() -> "HamiltonianSpec":
        return HamiltonianSpec("xy")

    @staticmethod
    def ising() -> "HamiltonianSpec":
        return HamiltonianSpec("ising")

    @staticmethod
    def exchange(jxx: float, jyy: float, jxy: float = 0.0, jyx: float = 0.0) -> "HamiltonianSpec":
        return HamiltonianSpec("exchange", (jxx, jyy, jxy, jyx))

    @staticmethod
    def josephson(alpha_ratio: float, e_l: float = 1.0) -> "HamiltonianSpec":
        return HamiltonianSpec("josephson", (alpha_ratio, e_l))

    @staticmethod
    def custom(matrix) -> "HamiltonianSpec":
        h = check_hermitian(matrix)  # each entry as (re, im): complex viewed as float pairs
        return HamiltonianSpec("custom", tuple(h.view(float).ravel().tolist()))

    @_lazy
    def _generator(self) -> "_Generator":
        """This spec's generator record, derived on first use and kept by
        the spec (a failed derivation is not kept, and raises again)."""
        return _Generator(realize(self))


# The Cartan coefficients of the named kinds, and the parameters per kind.
_NAMED_COEFFS = {"isotropic": [0.5, 0.5, 0.5], "xy": [0.5, 0.5, 0.0], "ising": [0.0, 0.0, 0.5]}
_ARITY = {"isotropic": 0, "xy": 0, "ising": 0, "exchange": 4, "josephson": 2, "custom": 32}

# The Pauli words x1, x2, xx, xy, yx, yy (rows of _WORDS, see BASIS_LABELS).
_X1, _X2, _XX, _XY, _YX, _YY = _WORDS[[0, 3, 6, 7, 9, 10]]


@_finite_math
def realize(spec: HamiltonianSpec) -> np.ndarray:
    """The explicit Hermitian matrix of a HamiltonianSpec (nothing else), which it checks."""
    kind = _as_instance(_as_spec(spec).kind, str, "Hamiltonian kind")
    params = _as_array(spec.params, (_ARITY.get(kind),), f"{kind} params", InvalidInputError, float)
    if kind in _NAMED_COEFFS:
        return cartan_element(_NAMED_COEFFS[kind])
    if kind == "exchange":
        jxx, jyy, jxy, jyx = params
        return 0.5 * (jxx * _XX + jyy * _YY + jxy * _XY + jyx * _YX)
    if kind == "josephson":
        alpha, e_l = params
        if alpha <= 0 or e_l <= 0:
            raise InvalidInputError("InvalidParams: josephson needs alpha_ratio > 0, e_l > 0")
        e_j = alpha * e_l
        return -0.5 * e_j * (_X1 + _X2) + (alpha * e_j) * _YY  # α²·E_L: E_J² under- or overflows
    if kind == "custom":
        return check_hermitian((params[0::2] + 1j * params[1::2]).reshape(4, 4))
    raise InvalidInputError(f"UnsupportedKind: {kind!r}")


class _Generator:
    """What flows need of one checked Hamiltonian h, which depends on the
    coupling alone and not on any target: the flow t ↦ exp(i·h·t),
    diagonalized once as U(t) = V·e^{i·w·t}·V†, with its eigenpair
    (w, V, V†), and, derived on first use, the Cartan conjugation.

    An h with single-qubit terms has no Cartan form: ``two_body`` keeps
    None for it, and ``cartan`` raises NotNonlocalError on every use.
    """

    def __init__(self, h):
        self.h, self.flow = h, _flow(h)
        self.w, self.v, self.vh = self.flow.args

    @_lazy
    def two_body(self) -> CartanTarget | None:
        """The Cartan conjugation of h (its identity part dropped), or None
        when h has single-qubit terms."""
        try:
            return _conjugate(self.h)
        except NotNonlocalError:
            return None

    @property
    def cartan(self) -> CartanTarget:
        # _conjugate raises NotNonlocalError again, with its message
        return self.two_body or _conjugate(self.h)


def _as_spec(spec) -> HamiltonianSpec:
    """``spec`` if it is a HamiltonianSpec, else InvalidInputError."""
    return _as_instance(spec, HamiltonianSpec, "coupling (for a matrix, HamiltonianSpec.custom)")


def _generator(spec) -> _Generator:
    """The generator record of a spec, which the spec keeps."""
    return _as_spec(spec)._generator


def parse_hamiltonian(text: str) -> HamiltonianSpec:
    """Parse a command-line Hamiltonian description.

    Accepts ``isotropic``, ``xy``, ``ising``, ``exchange(jxx,jyy[,jxy,jyx])``,
    ``josephson(alpha[,e_l])``.
    """
    s = _as_instance(text, str, "Hamiltonian").strip().lower()
    if s in ("isotropic", "heisenberg", "xy", "ising"):
        return HamiltonianSpec("isotropic" if s == "heisenberg" else s)
    for name in ("exchange", "josephson"):
        if s.startswith(name + "(") and s.endswith(")"):
            try:
                args = [float(p) for p in s[len(name) + 1 : -1].split(",")]
            except ValueError as exc:  # an empty field too: float("") raises
                raise InvalidInputError(f"InvalidSpec: bad or empty number in {text!r}") from exc
            if name == "exchange":
                if len(args) not in (2, 4):
                    raise InvalidInputError("InvalidSpec: exchange(jxx,jyy[,jxy,jyx])")
                return HamiltonianSpec.exchange(*args)
            if len(args) not in (1, 2):
                raise InvalidInputError("InvalidSpec: josephson(alpha[,e_l])")
            return HamiltonianSpec.josephson(*args)
    raise InvalidInputError(f"UnsupportedKind: {text!r}")


@dataclass(frozen=True, eq=False)
class TrajectorySample:
    """One point of a trajectory: U(t)'s coordinates, invariants and PE status."""

    t: float
    coords: np.ndarray
    invariants: LocalInvariants
    is_pe: bool


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A trajectory as columns, one row per time: ``t`` (N), ``coords``
    (N, 3), ``g1`` (N, complex), ``g2`` (N), ``g2_imag_residual`` (N) and
    ``is_pe`` (N, bool).

    It reads as the sequence of its rows: ``table[i]`` builds each
    ``TrajectorySample`` when it is read, with built-in scalars and
    ``coords[i]`` as a view, iteration reads the rows through indexing up
    to ``len``, and ``table[a:b]`` is the table of the sliced columns.
    ``trajectory`` returns columns that are fresh and writable, shared with
    no other table or call.
    """

    t: np.ndarray
    coords: np.ndarray
    g1: np.ndarray
    g2: np.ndarray
    g2_imag_residual: np.ndarray
    is_pe: np.ndarray

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Trajectory(
                self.t[i], self.coords[i], self.g1[i], self.g2[i], self.g2_imag_residual[i], self.is_pe[i]
            )
        i = operator.index(i)
        inv = LocalInvariants(complex(self.g1[i]), float(self.g2[i]), float(self.g2_imag_residual[i]))
        return TrajectorySample(float(self.t[i]), self.coords[i], inv, bool(self.is_pe[i]))


@_finite_math
def trajectory(spec, times) -> Trajectory:
    """Coordinates, invariants, and PE status of exp(iHt) along a time grid
    (a 1-D sequence of finite reals, else InvalidInputError), all times in
    one stacked pass, as a ``Trajectory`` table with one row per time.

    U(t) is formed at every time, and its invariants are read from m(U(t)).
    A two-body coupling, k·H·k† = (c1 σxσx + c2 σyσy + c3 σzσz)/2 up to
    identity, makes U(t) locally equivalent to A(t·c), so its coordinates
    are the fold of t·c, with no spectrum; each is checked against the
    invariants of U(t) within 1e-8, and a time whose t·c misses the check
    or lies beyond the fold's reach (|t·c_j| > 1e5) is read from the
    spectrum of m(U(t)) instead.  A coupling with single-qubit terms reads
    every time from the spectrum.
    """
    g = _generator(spec)
    times = _as_array(times, (None,), "times", InvalidInputError, float)
    raw = None
    if g.two_body is not None:
        with np.errstate(over="ignore"):  # an inf is beyond the fold's reach
            raw = times[:, None] * g.two_body.coeffs
    coords, (g1, g2c) = _gate_coords(g.flow(times[:, None, None]), raw)
    # The stack record's pair is read-only: the table takes its own copies.
    return Trajectory(times, coords, g1.copy(), g2c.real.copy(), np.abs(g2c.imag), _in_pe(coords))


@_finite_math
def exchange_coords(jxx: float, jyy: float, jxy: float = 0.0, jyx: float = 0.0) -> np.ndarray:
    """Cartan coefficients of the generalized exchange Hamiltonian, closed form.

    The two-body part splits into two commuting rotation planes with radii

        r1 = sqrt((Jxx+Jyy)² + (Jxy-Jyx)²),   r2 = sqrt((Jxx-Jyy)² + (Jxy+Jyx)²)

    giving coefficients ((r1+r2)/2, |r1-r2|/2, 0): the flow stays on the
    chamber base, so this family never reaches the SWAP corner.
    """
    jxx, jyy, jxy, jyx = _as_array([jxx, jyy, jxy, jyx], (4,), "couplings", InvalidInputError, float)
    r1 = float(np.hypot(jxx + jyy, jxy - jyx))
    r2 = float(np.hypot(jxx - jyy, jxy + jyx))
    return np.array([(r1 + r2) / 2.0, abs(r1 - r2) / 2.0, 0.0])


@_finite_math
def closed_form_invariants(kind: str, t: float) -> LocalInvariants:
    """Exact invariant curves for the three named exchange flows.

    isotropic:  G1 = e^{it}(3+e^{-2it})²/16,  G2 = 3·cos t
    xy:         G1 = cos⁴(t/2),               G2 = 1 + 2·cos t
    ising:      G1 = cos²(t/2),               G2 = 2 + cos t
    """
    t = _as_real(t, "t")
    if kind == "isotropic":
        g1 = np.exp(1j * t) * (3.0 + np.exp(-2j * t)) ** 2 / 16.0
        return LocalInvariants(complex(g1), float(3.0 * np.cos(t)), 0.0)
    if kind == "xy":
        return LocalInvariants(complex(np.cos(t / 2.0) ** 4), float(1.0 + 2.0 * np.cos(t)), 0.0)
    if kind == "ising":
        return LocalInvariants(complex(np.cos(t / 2.0) ** 2), float(2.0 + np.cos(t)), 0.0)
    raise InvalidInputError(f"UnsupportedKind: no closed form for {kind!r}")


@_finite_math
def josephson_invariants(alpha_ratio: float, e_l: float, t: float) -> LocalInvariants:
    """Closed-form invariants of the Josephson-junction flow.

    With x = cos(α²·E_L·t) and y = cos(sqrt(α²+1)·α·E_L·t):

        G1 = (α²(x²+y²-1) + x²)² / (1+α²)²
        G2 = (3α² - 1 - 4y²α² + 8α²x²y² + 4x² - 4x²α²) / (1+α²)
    """
    args = _as_array([alpha_ratio, e_l, t], (3,), "alpha_ratio, e_l and t", InvalidInputError, float)
    alpha_ratio, e_l, t = args
    a2 = float(alpha_ratio) ** 2
    x = np.cos(a2 * e_l * t)
    y = np.cos(np.sqrt(a2 + 1.0) * alpha_ratio * e_l * t)
    x2, y2 = x * x, y * y
    g1 = (a2 * (x2 + y2 - 1.0) + x2) ** 2 / (1.0 + a2) ** 2
    g2 = (3.0 * a2 - 1.0 - 4.0 * y2 * a2 + 8.0 * a2 * x2 * y2 + 4.0 * x2 - 4.0 * x2 * a2) / (
        1.0 + a2
    )
    return LocalInvariants(complex(g1), float(g2), 0.0)


@dataclass(frozen=True)
class JosephsonCnot:
    """Minimum-time CNOT-class working point of the Josephson model."""

    alpha_ratio: float
    t: float
    pulse_index: int  # the odd quarter-period count (2k+1) the root sits on
    invariants: LocalInvariants


@_finite_math
def josephson_cnot_min_time(e_l: float = 1.0) -> JosephsonCnot:
    """Search the CNOT-class times of the Josephson flow and return the fastest.

    A CNOT-class gate requires cos²(α²E_L·t) = 1/2, i.e. α²E_L·t = (2k+1)π/4,
    together with 2α²·cos²(sqrt(1+α⁻²)(2k+1)π/4) = α² - 1.  The second
    condition is scanned for sign changes on 1 < α ≤ 12 for all k ≤ 8 at
    once, and every bracket is bisected at once; each root is verified on
    one stacked record of the actual invariants of exp(iHt) (|G1| ≤ 1e-6
    and |G2 - 1| ≤ 1e-6), and the verified root with the smallest t wins.
    The optimum sits at k = 2: α ≈ 1.1992, t ≈ 2.7309/E_L.
    """
    e_l = _as_real(e_l, "e_l")
    if e_l <= 0:
        raise InvalidInputError("InvalidParams: e_l must be positive")

    def f(alpha, q):
        return 2.0 * alpha**2 * np.cos(np.sqrt(1.0 + alpha**-2) * q) ** 2 - (alpha**2 - 1.0)

    grid = np.linspace(1.0 + 1e-9, 12.0, 4001)
    quarters = (2 * np.arange(_K_MAX + 1) + 1) * np.pi / 4.0
    sign = np.signbit(f(grid, quarters[:, None]))
    k, i = np.nonzero(sign[:, :-1] != sign[:, 1:])  # every bracket of every k
    q, lo, hi = quarters[k], grid[i], grid[i + 1]
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        left = np.signbit(f(lo, q)) != np.signbit(f(mid, q))
        lo, hi = np.where(left, lo, mid), np.where(left, mid, hi)
    alpha = 0.5 * (lo + hi)
    t = q / (alpha**2 * e_l)
    u = np.array([HamiltonianSpec.josephson(a, e_l)._generator.flow(s) for a, s in zip(alpha, t)])
    g1, g2 = _Gate(u).invariant_pair
    verified = (np.abs(g1) <= 1e-6) & (np.abs(g2.real - 1.0) <= 1e-6)
    if not verified.any():
        raise ConvergenceError("NoSolutionInRange: no verified CNOT-class root for any pulse index")
    j = np.where(verified, t, np.inf).argmin()
    return JosephsonCnot(float(alpha[j]), float(t[j]), int(2 * k[j] + 1), _invariants_of(_Gate(u[j])))
