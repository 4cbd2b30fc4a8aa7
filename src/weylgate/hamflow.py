"""Trajectories of canonical coordinates generated by two-qubit Hamiltonians.

A Hamiltonian H generates the gate family U(t) = exp(i·H·t); this module
tracks the invariants and chamber coordinates along t for the standard
coupling models, provides closed-form invariant curves for the exactly
solvable ones, and solves the minimum-time CNOT problem for the
Josephson-junction (capacitively coupled charge qubit) model.

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

from dataclasses import dataclass

import numpy as np

from .cartan import PAULIS, cartan_element
from .chamber import _gate_coords
from .entangler import _in_pe
from .errors import ConvergenceError
from .invariants import LocalInvariants, _as_invariants, _invariants
from .linalg import _flow, check_hermitian, kron2


@dataclass(frozen=True)
class HamiltonianSpec:
    """A named Hamiltonian family plus its parameters (hashable, exact)."""

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
        return HamiltonianSpec("exchange", (float(jxx), float(jyy), float(jxy), float(jyx)))

    @staticmethod
    def josephson(alpha_ratio: float, e_l: float = 1.0) -> "HamiltonianSpec":
        if alpha_ratio <= 0 or e_l <= 0:
            raise ValueError("InvalidParams: josephson needs alpha_ratio > 0, e_l > 0")
        return HamiltonianSpec("josephson", (float(alpha_ratio), float(e_l)))

    @staticmethod
    def custom(matrix) -> "HamiltonianSpec":
        h = check_hermitian(matrix)
        flat = []
        for v in h.reshape(-1):
            flat.extend((float(v.real), float(v.imag)))
        return HamiltonianSpec("custom", tuple(flat))


def realize(spec: HamiltonianSpec) -> np.ndarray:
    """The explicit Hermitian matrix of a HamiltonianSpec, which it checks."""
    if not isinstance(spec, HamiltonianSpec):  # an explicit matrix
        return check_hermitian(np.asarray(spec))
    if not np.isfinite(spec.params).all():
        raise ValueError(f"InvalidParams: non-finite parameter in {spec!r}")
    kind = spec.kind
    if kind == "isotropic":
        return cartan_element([0.5, 0.5, 0.5])
    if kind == "xy":
        return cartan_element([0.5, 0.5, 0.0])
    if kind == "ising":
        return cartan_element([0.0, 0.0, 0.5])
    if kind == "exchange":
        jxx, jyy, jxy, jyx = spec.params
        return 0.5 * (
            jxx * kron2(PAULIS["x"], PAULIS["x"])
            + jyy * kron2(PAULIS["y"], PAULIS["y"])
            + jxy * kron2(PAULIS["x"], PAULIS["y"])
            + jyx * kron2(PAULIS["y"], PAULIS["x"])
        )
    if kind == "josephson":
        alpha, e_l = spec.params
        e_j = alpha * e_l
        i2 = np.eye(2)
        return (
            -0.5 * e_j * (kron2(PAULIS["x"], i2) + kron2(i2, PAULIS["x"]))
            + (e_j**2 / e_l) * kron2(PAULIS["y"], PAULIS["y"])
        )
    if kind == "custom":
        vals = np.asarray(spec.params, dtype=float).reshape(16, 2)
        return check_hermitian((vals[:, 0] + 1j * vals[:, 1]).reshape(4, 4))
    raise ValueError(f"UnsupportedKind: {kind!r}")


def parse_hamiltonian(text: str) -> HamiltonianSpec:
    """Parse a command-line Hamiltonian description.

    Accepts ``isotropic``, ``xy``, ``ising``, ``exchange(jxx,jyy[,jxy,jyx])``,
    ``josephson(alpha[,e_l])``.
    """
    s = text.strip().lower()
    if s in ("isotropic", "heisenberg"):
        return HamiltonianSpec.isotropic()
    if s == "xy":
        return HamiltonianSpec.xy()
    if s == "ising":
        return HamiltonianSpec.ising()
    for name in ("exchange", "josephson"):
        if s.startswith(name + "(") and s.endswith(")"):
            try:
                args = [float(p) for p in s[len(name) + 1 : -1].split(",") if p.strip()]
            except ValueError as exc:
                raise ValueError(f"InvalidSpec: bad number in {text!r}") from exc
            if name == "exchange":
                if len(args) not in (2, 4):
                    raise ValueError("InvalidSpec: exchange(jxx,jyy[,jxy,jyx])")
                return HamiltonianSpec.exchange(*args)
            if len(args) not in (1, 2):
                raise ValueError("InvalidSpec: josephson(alpha[,e_l])")
            return HamiltonianSpec.josephson(*args)
    raise ValueError(f"UnsupportedKind: {text!r}")


@dataclass(frozen=True)
class TrajectorySample:
    t: float
    coords: np.ndarray
    invariants: LocalInvariants
    is_pe: bool


def trajectory(spec, times) -> list[TrajectorySample]:
    """Coordinates, invariants, and PE status of exp(iHt) along a time grid
    (a 1-D sequence of finite numbers, else ValueError), all times in one
    stacked pass."""
    flow = _flow(realize(spec))
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or not np.isfinite(times).all():
        raise ValueError("times must be a 1-D sequence of finite numbers")
    coords, (g1, g2c) = _gate_coords(flow(times[:, None, None]))
    is_pe = _in_pe(coords)
    return [
        TrajectorySample(float(t), coords[i], _as_invariants(g1[i], g2c[i]), bool(is_pe[i]))
        for i, t in enumerate(times)
    ]


def exchange_coords(jxx: float, jyy: float, jxy: float = 0.0, jyx: float = 0.0) -> np.ndarray:
    """Cartan coefficients of the generalized exchange Hamiltonian, closed form.

    The two-body part splits into two commuting rotation planes with radii

        r1 = sqrt((Jxx+Jyy)² + (Jxy-Jyx)²),   r2 = sqrt((Jxx-Jyy)² + (Jxy+Jyx)²)

    giving coefficients ((r1+r2)/2, |r1-r2|/2, 0): the flow stays on the
    chamber base, so this family never reaches the SWAP corner.
    """
    r1 = float(np.hypot(jxx + jyy, jxy - jyx))
    r2 = float(np.hypot(jxx - jyy, jxy + jyx))
    return np.array([(r1 + r2) / 2.0, abs(r1 - r2) / 2.0, 0.0])


def closed_form_invariants(kind: str, t: float) -> LocalInvariants:
    """Exact invariant curves for the three named exchange flows.

    isotropic:  G1 = e^{it}(3+e^{-2it})²/16,  G2 = 3·cos t
    xy:         G1 = cos⁴(t/2),               G2 = 1 + 2·cos t
    ising:      G1 = cos²(t/2),               G2 = 2 + cos t
    """
    t = float(t)
    if kind == "isotropic":
        g1 = np.exp(1j * t) * (3.0 + np.exp(-2j * t)) ** 2 / 16.0
        return LocalInvariants(complex(g1), float(3.0 * np.cos(t)), 0.0)
    if kind == "xy":
        return LocalInvariants(complex(np.cos(t / 2.0) ** 4), float(1.0 + 2.0 * np.cos(t)), 0.0)
    if kind == "ising":
        return LocalInvariants(complex(np.cos(t / 2.0) ** 2), float(2.0 + np.cos(t)), 0.0)
    raise ValueError(f"UnsupportedKind: no closed form for {kind!r}")


def josephson_invariants(alpha_ratio: float, e_l: float, t: float) -> LocalInvariants:
    """Closed-form invariants of the Josephson-junction flow.

    With x = cos(α²·E_L·t) and y = cos(sqrt(α²+1)·α·E_L·t):

        G1 = (α²(x²+y²-1) + x²)² / (1+α²)²
        G2 = (3α² - 1 - 4y²α² + 8α²x²y² + 4x² - 4x²α²) / (1+α²)
    """
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


def josephson_cnot_min_time(
    e_l: float = 1.0, k_max: int = 8, alpha_max: float = 12.0
) -> JosephsonCnot:
    """Search the CNOT-class times of the Josephson flow and return the fastest.

    A CNOT-class gate requires cos²(α²E_L·t) = 1/2, i.e. α²E_L·t = (2k+1)π/4,
    together with 2α²·cos²(sqrt(1+α⁻²)(2k+1)π/4) = α² - 1.  For each k the
    second condition is solved for α by bisection on a sign-change scan; each
    root is verified by computing the actual invariants of exp(iHt), and the
    root with the smallest t wins.  The optimum sits at k = 2:
    α ≈ 1.1992, t ≈ 2.7309/E_L.
    """
    if e_l <= 0:
        raise ValueError("InvalidParams: e_l must be positive")
    best: JosephsonCnot | None = None
    for k in range(k_max + 1):
        q = (2 * k + 1) * np.pi / 4.0

        def f(alpha: float | np.ndarray) -> float | np.ndarray:
            return 2.0 * alpha**2 * np.cos(np.sqrt(1.0 + alpha**-2) * q) ** 2 - (
                alpha**2 - 1.0
            )

        grid = np.linspace(1.0 + 1e-9, alpha_max, 4001)
        vals = f(grid)
        for i in np.nonzero(np.signbit(vals[:-1]) != np.signbit(vals[1:]))[0]:
            lo, hi = grid[i], grid[i + 1]
            for _ in range(100):
                mid = 0.5 * (lo + hi)
                if np.signbit(f(lo)) != np.signbit(f(mid)):
                    hi = mid
                else:
                    lo = mid
            alpha = 0.5 * (lo + hi)
            t = q / (alpha**2 * e_l)
            inv = _invariants(_flow(realize(HamiltonianSpec.josephson(alpha, e_l)))(t))
            if abs(inv.g1) > 1e-6 or abs(inv.g2 - 1.0) > 1e-6:
                continue
            if best is None or t < best.t:
                best = JosephsonCnot(
                    alpha_ratio=float(alpha), t=float(t), pulse_index=2 * k + 1, invariants=inv
                )
    if best is None:
        raise ConvergenceError(
            "NoSolutionInRange: no verified CNOT-class root for any pulse index"
        )
    return best
