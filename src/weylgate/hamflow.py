"""Trajectories of canonical coordinates generated by two-qubit Hamiltonians.

A Hamiltonian H generates the gate family U(t) = exp(i·H·t); this module
tracks the invariants and chamber coordinates along t for the standard
coupling models, provides closed-form invariant curves for the exactly
solvable ones, and solves the minimum-time CNOT problem for the
Josephson-junction (capacitively coupled charge qubit) model.

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

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from .cartan import _WORDS, CartanTarget, _conjugate, _frame, cartan_element
from .chamber import _gate_coords
from .entangler import _in_pe
from .errors import ConvergenceError, DegenerateHamiltonianError, InvalidInputError, NotNonlocalError
from .invariants import LocalInvariants, _Gate, _invariants_of, _lazy
from .kak import _m_scalar
from .linalg import _as_array, _as_count, _as_real, _as_text, _finite_math, _flow, check_hermitian

_TOL_PERIOD = 1e-9  # how far |c_j|·T may miss a multiple of π in _period
_COMMENSURABLE_DENOM = 10**6


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


# Parameters per kind; isotropic, xy and ising take any and ignore them.
_ARITY = {"exchange": 4, "josephson": 2, "custom": 32}

# The Pauli words x1, x2, xx, xy, yx, yy (rows of _WORDS, see BASIS_LABELS).
_X1, _X2, _XX, _XY, _YX, _YY = _WORDS[[0, 3, 6, 7, 9, 10]]


@_finite_math
def realize(spec: HamiltonianSpec) -> np.ndarray:
    """The explicit Hermitian matrix of a HamiltonianSpec, which it checks."""
    if not isinstance(spec, HamiltonianSpec):  # an explicit matrix
        return check_hermitian(spec)
    kind = _as_text(spec.kind, "Hamiltonian kind")
    params = _as_array(spec.params, (_ARITY.get(kind),), f"{kind} params", InvalidInputError, float)
    if kind == "isotropic":
        return cartan_element([0.5, 0.5, 0.5])
    if kind == "xy":
        return cartan_element([0.5, 0.5, 0.0])
    if kind == "ising":
        return cartan_element([0.0, 0.0, 0.5])
    if kind == "exchange":
        jxx, jyy, jxy, jyx = params
        return 0.5 * (jxx * _XX + jyy * _YY + jxy * _XY + jyx * _YX)
    if kind == "josephson":
        alpha, e_l = params
        if alpha <= 0 or e_l <= 0:
            raise InvalidInputError("InvalidParams: josephson needs alpha_ratio > 0, e_l > 0")
        e_j = alpha * e_l
        return -0.5 * e_j * (_X1 + _X2) + (e_j**2 / e_l) * _YY
    if kind == "custom":
        return check_hermitian((params[0::2] + 1j * params[1::2]).reshape(4, 4))
    raise InvalidInputError(f"UnsupportedKind: {kind!r}")


# The fixed frames l2 and l3 (l1 = I), each a (gate, action) pair:
# conjugating the coupling by l_i moves its Cartan coefficients c to
# action·c, column i of the pulse-time matrix.
_L2, _A2 = _frame("c3-c2", "c1+c3")
_L3, _A3 = _frame("c2-c1", "c3-c2", "c1+c2")

# Column i of the pulse-time matrix is _STEER[i]·c, the coefficients seen through
# frame l_i; each action, a signed permutation, is applied as a gather and a
# sign flip, exact to the sign of a zero.
_STEER = np.array([np.eye(3), _A2, _A3])
_STEER_INDEX, _STEER_SIGN = np.abs(_STEER).argmax(-1), _STEER.sum(-1)


def _pulse_time_matrix(c) -> np.ndarray:
    """The pulse-time matrix M of Cartan coefficients ``c``, whose column i
    is c seen through frame l_i, so that M·t = γ gives the durations that
    reach coordinates γ (``synth.solve_times``).

    Raises DegenerateHamiltonianError if |det M| ≤ 1e-12 (coefficients too
    degenerate to steer).
    """
    m = (_STEER_SIGN * c[_STEER_INDEX]).T
    det = float(np.linalg.det(m))
    if abs(det) <= 1e-12:
        raise DegenerateHamiltonianError(
            f"pulse-time system is singular (det {det:.3e}) for coefficients {c}"
        )
    return m


class _Generator:
    """What flows and synthesis need of one checked Hamiltonian h, which
    depends on the coupling alone and not on any target: the flow
    t ↦ exp(i·h·t), diagonalized once as U(t) = V·e^{i·w·t}·V†, with its
    eigenpair (w, V, V†), and, derived on first use, the Cartan conjugation,
    the generator-only plan locals, their images in the flow's eigenbasis
    (the middle factors of a plan's product), the pulse-time matrix and the
    period.

    An h with single-qubit terms has no Cartan form: ``two_body`` keeps
    None for it, and ``cartan`` and the parts built on it raise
    NotNonlocalError on every use.  A degenerate coupling's pulse-time
    matrix raises DegenerateHamiltonianError on every use.
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

    @_lazy
    def pulse_locals(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """k†, k1 = k†·l2†·l1·k = k†·l2†·k and k2 = k†·l3†·l2·k, with k the
        conjugating local gate: a plan's locals are k†·(KAK k2), k1, k2 and
        (KAK k1)·l3·k."""
        k = self.cartan.k
        kd = k.conj().T
        return kd, kd @ _L2.conj().T @ k, kd @ _L3.conj().T @ _L2 @ k

    @_lazy
    def middle(self) -> tuple[np.ndarray, np.ndarray]:
        """V†·k1·V and V†·k2·V: the two middle locals of every synthesized
        plan in the flow's eigenbasis (see ``in_eigenbasis``)."""
        return tuple(self.in_eigenbasis(k) for k in self.pulse_locals[1:])

    def in_eigenbasis(self, k) -> np.ndarray:
        """V†·k·V: a plan's middle local k between two pulses, so that
        U(s)·k·U(t) = V·e^{i·w·s}·(V†·k·V)·e^{i·w·t}·V†."""
        return self.vh @ k @ self.v

    @_lazy
    def steer(self) -> np.ndarray:
        """The pulse-time matrix of the Cartan coefficients."""
        return _pulse_time_matrix(self.cartan.coeffs)

    @_lazy
    def period(self) -> float | None:
        return _period(self)


def _generator(hamiltonian) -> _Generator:
    """The generator record of a spec, which the spec keeps; an explicit
    matrix gets a fresh one."""
    if isinstance(hamiltonian, HamiltonianSpec):
        return hamiltonian._generator
    return _Generator(realize(hamiltonian))


def _period(g: _Generator) -> float | None:
    """fundamental_period's core on a generator record."""
    nonzero = [abs(x) for x in g.cartan.coeffs if abs(x) > 1e-12]
    if not nonzero:
        return None
    ref = nonzero[0]
    ratios = [x / ref for x in nonzero[1:]]
    fracs = [Fraction(r).limit_denominator(_COMMENSURABLE_DENOM) for r in ratios]
    q = lcm(*(f.denominator for f in fracs))
    # At T = π·q/ref each c_j·T misses its multiple of π by π·q·|x/ref − p/q_x|;
    # limit_denominator alone always lands within about 1e-12 of the ratio.
    if any(np.pi * q * abs(r - f) > _TOL_PERIOD for r, f in zip(ratios, fracs)):
        return None
    period = np.pi * q / ref
    if np.isnan(_m_scalar(g.flow(period))):
        return None
    return float(period)


def parse_hamiltonian(text: str) -> HamiltonianSpec:
    """Parse a command-line Hamiltonian description.

    Accepts ``isotropic``, ``xy``, ``ising``, ``exchange(jxx,jyy[,jxy,jyx])``,
    ``josephson(alpha[,e_l])``.
    """
    s = _as_text(text, "Hamiltonian").strip().lower()
    if s in ("isotropic", "heisenberg", "xy", "ising"):
        return HamiltonianSpec("isotropic" if s == "heisenberg" else s)
    for name in ("exchange", "josephson"):
        if s.startswith(name + "(") and s.endswith(")"):
            try:
                args = [float(p) for p in s[len(name) + 1 : -1].split(",") if p.strip()]
            except ValueError as exc:
                raise InvalidInputError(f"InvalidSpec: bad number in {text!r}") from exc
            if name == "exchange":
                if len(args) not in (2, 4):
                    raise InvalidInputError("InvalidSpec: exchange(jxx,jyy[,jxy,jyx])")
                return HamiltonianSpec.exchange(*args)
            if len(args) not in (1, 2):
                raise InvalidInputError("InvalidSpec: josephson(alpha[,e_l])")
            return HamiltonianSpec.josephson(*args)
    raise InvalidInputError(f"UnsupportedKind: {text!r}")


@dataclass(frozen=True)
class TrajectorySample:
    t: float
    coords: np.ndarray
    invariants: LocalInvariants
    is_pe: bool


@_finite_math
def trajectory(spec, times) -> list[TrajectorySample]:
    """Coordinates, invariants, and PE status of exp(iHt) along a time grid
    (a 1-D sequence of finite reals, else InvalidInputError), all times in
    one stacked pass.

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
    rows = zip(
        times.tolist(),
        coords,
        g1.tolist(),
        g2c.real.tolist(),
        np.abs(g2c.imag).tolist(),
        _in_pe(coords).tolist(),
    )
    return [
        TrajectorySample(t, c, LocalInvariants(a, b, r), pe) for t, c, a, b, r, pe in rows
    ]


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


def josephson_cnot_min_time(e_l: float = 1.0, k_max: int = 8) -> JosephsonCnot:
    """Search the CNOT-class times of the Josephson flow and return the fastest.

    A CNOT-class gate requires cos²(α²E_L·t) = 1/2, i.e. α²E_L·t = (2k+1)π/4,
    together with 2α²·cos²(sqrt(1+α⁻²)(2k+1)π/4) = α² - 1.  For each
    k ≤ k_max the second condition is solved for α by bisection on a
    sign-change scan of 1 < α ≤ 12; each root is verified by computing the
    actual invariants of exp(iHt), and the root with the smallest t wins.
    The optimum sits at k = 2: α ≈ 1.1992, t ≈ 2.7309/E_L.  ``k_max`` must
    be an integer ≥ 0.
    """
    k_max = _as_count(k_max, "k_max", 0)
    e_l = _as_real(e_l, "e_l")
    if e_l <= 0:
        raise InvalidInputError("InvalidParams: e_l must be positive")
    best: JosephsonCnot | None = None
    for k in range(k_max + 1):
        q = (2 * k + 1) * np.pi / 4.0

        def f(alpha: float | np.ndarray) -> float | np.ndarray:
            return 2.0 * alpha**2 * np.cos(np.sqrt(1.0 + alpha**-2) * q) ** 2 - (alpha**2 - 1.0)

        grid = np.linspace(1.0 + 1e-9, 12.0, 4001)
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
            inv = _invariants_of(_Gate(HamiltonianSpec.josephson(alpha, e_l)._generator.flow(t)))
            if abs(inv.g1) > 1e-6 or abs(inv.g2 - 1.0) > 1e-6:
                continue
            if best is None or t < best.t:
                best = JosephsonCnot(
                    alpha_ratio=float(alpha), t=float(t), pulse_index=2 * k + 1, invariants=inv
                )
    if best is None:
        raise ConvergenceError("NoSolutionInRange: no verified CNOT-class root for any pulse index")
    return best
