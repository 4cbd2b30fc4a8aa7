"""Three-pulse circuit synthesis.

Given any fixed two-body coupling Hamiltonian H and any target two-qubit
gate, the target factors (up to global phase) as

    k3 · U(t3) · k2 · U(t2) · k1 · U(t1) · k0,

with U(t) = exp(i·H·t), at most three evolution pulses, and four tensor
products of single-qubit gates.  The times come from a 3x3 linear system
relating the Hamiltonian's Cartan coefficients to the target's canonical
coordinates; the locals come from the target's KAK factors, the gate that
rotates H into the Cartan subalgebra, and fixed reflection gates.

Work per generator and per target
---------------------------------
Everything that depends on the coupling alone is derived once per
``HamiltonianSpec`` object and kept on its generator record
(``hamflow._Generator``).  The record holds the checked matrix and derives,
each on first read, the eigenpair (w, V) of its flow U(t) = V·e^{i·w·t}·V†
and its Cartan coefficients and conjugating gate k.  This module derives from it the
plan frame and the recurrence period, and ``invariants._keep`` keeps both on
the same record.  The frame holds k and k†, the two middle locals, their
images V†·k_i·V in the eigenbasis, and the pulse-time matrix M with its
determinant check.  The period stays apart, since a coupling whose M is
singular (ising) still has one.  A part that raises is not kept, and raises
again on the next use.  Per target there remain
the target's KAK, one 3x3 solve M·t = γ, the two outer locals and the
residual check, which multiplies the plan out in the eigenbasis: all three
pulses come from one ``exp``, and the middle factors are the kept ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, lcm

import numpy as np

from .cartan import _frame
from .errors import DegenerateHamiltonianError, InvalidInputError, VerificationError
from .hamflow import HamiltonianSpec, _as_spec, _Generator, _generator
from .invariants import _Gate, _keep, _read_only
from .kak import _kak, _m_scalar
from .linalg import _as_array, _as_instance, _as_triple, _dist_up_to_phase, _finite_math, check_unitary

__all__ = [
    "CircuitPlan",
    "cnot_from_isotropic",
    "fundamental_period",
    "plan_unitary",
    "solve_times",
    "steps",
    "synthesize",
    "verify_plan",
    "with_nonnegative_times",
]

TOL_TIME = 1e-10  # a duration at most this is no pulse
_TOL_RESIDUAL = 1e-8  # how far a returned plan may miss its target, up to phase
_TOL_PERIOD = 1e-9  # how far |c_j|·T may miss a multiple of π in _period
_COMMENSURABLE_DENOM = 10**6

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


@dataclass(frozen=True, eq=False)
class CircuitPlan:
    """An alternating local/pulse schedule implementing a target gate.

    The implemented unitary is
    locals[3] · U(times[2]) · locals[2] · U(times[1]) · locals[1] ·
    U(times[0]) · locals[0], up to a global phase.  Parsed once, when built:
    ``locals`` must be four 4x4 matrices of finite numbers (kept as fresh
    complex arrays, read-only since every plan function reads them again,
    and not checked as unitary: a library-built plan's are checked already),
    ``times`` three finite reals (kept as a tuple of floats) and
    ``hamiltonian`` a HamiltonianSpec, else InvalidInputError.
    """

    locals: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    times: tuple[float, float, float]
    hamiltonian: HamiltonianSpec

    def __post_init__(self):
        local_stack = _as_array(self.locals, (4, 4, 4), "plan locals", InvalidInputError, complex)
        object.__setattr__(self, "locals", tuple(_read_only(local_stack)[0]))
        times = _as_array(self.times, (3,), "plan times", InvalidInputError, float)
        object.__setattr__(self, "times", tuple(times.tolist()))
        _as_spec(self.hamiltonian)


def _pulse_time_matrix(c) -> np.ndarray:
    """The pulse-time matrix M of Cartan coefficients ``c``, whose column i
    is c seen through frame l_i, so that M·t = γ gives the durations that
    reach coordinates γ (``solve_times``).

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


def _plan_frame(g: _Generator) -> tuple:
    """What every plan on the coupling shares: (k, k†, k1, k2, (V†·k1·V,
    V†·k2·V), M), with k the conjugating local gate, k1 = k†·l2†·l1·k =
    k†·l2†·k and k2 = k†·l3†·l2·k the middle locals, their images in the
    flow's eigenbasis (see ``_plan_product``) and the pulse-time matrix M.
    A plan's outer locals are k†·(KAK k2) and (KAK k1)·l3·k.  Raises
    NotNonlocalError on local terms, then DegenerateHamiltonianError."""
    k = g.cartan.k
    kd = k.conj().T
    k1, k2 = kd @ _L2.conj().T @ k, kd @ _L3.conj().T @ _L2 @ k
    return k, kd, k1, k2, (g.vh @ k1 @ g.v, g.vh @ k2 @ g.v), _pulse_time_matrix(g.cartan.coeffs)


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


@_finite_math
def plan_unitary(plan: CircuitPlan) -> np.ndarray:
    """Multiply the plan out into an explicit 4x4 unitary."""
    g = _generator(_as_instance(plan, CircuitPlan, "plan").hamiltonian)
    l0, l1, l2, l3 = plan.locals
    middle = g.vh @ l1 @ g.v, g.vh @ l2 @ g.v
    return _plan_product(g, l0, middle, l3, plan.times)


def _plan_product(g: _Generator, l0, middle, l3, times) -> np.ndarray:
    """l3·U(t3)·l2·U(t2)·l1·U(t1)·l0 with U(t) = V·e^{i·w·t}·V†, as
    (l3·V)·E3·(V†·l2·V)·E2·(V†·l1·V)·E1·(V†·l0), E_i = diag(e^{i·w·t_i});
    ``middle`` holds V†·l1·V and V†·l2·V, so that
    U(s)·l·U(t) = V·e^{i·w·s}·(V†·l·V)·e^{i·w·t}·V†."""
    e = np.exp(1j * np.multiply.outer(times, g.w))  # row i: the diagonal of E_i
    m1, m2 = middle
    return ((l3 @ g.v) * e[2]) @ ((m2 * e[1]) @ ((m1 * e[0]) @ (g.vh @ l0)))


def verify_plan(plan: CircuitPlan, target) -> float:
    """Phase-insensitive Frobenius distance between the plan and the target."""
    return _dist_up_to_phase(plan_unitary(plan), check_unitary(target))


@_finite_math
def steps(plan: CircuitPlan):
    """The plan as an explicit schedule, shortest form.

    Returns a list of ("local", matrix) and ("pulse", duration) entries,
    alternating, with pulses of duration ≤ TOL_TIME elided (their
    neighboring locals merged).
    """
    out: list[tuple[str, object]] = []
    acc = _as_instance(plan, CircuitPlan, "plan").locals[0]
    for t, k in zip(plan.times, plan.locals[1:]):
        if abs(t) <= TOL_TIME:
            acc = k @ acc
        else:
            out.append(("local", acc))
            out.append(("pulse", float(t)))
            acc = k
    out.append(("local", acc))
    return out


@_finite_math
def solve_times(coeffs, target_coords) -> np.ndarray:
    """Durations (t1, t2, t3) from Cartan coefficients and target coordinates.

    Solves M·t = γ where column i of M is the coefficient vector c seen
    through the fixed frame l_i: c itself and its images under the Weyl
    actions of ``_L2`` and ``_L3``.  Durations may be negative; see
    with_nonnegative_times.

    Raises
    ------
    DegenerateHamiltonianError
        If |det M| ≤ 1e-12 (coefficients too degenerate to steer).
    """
    m = _pulse_time_matrix(_as_triple(coeffs, "coeffs"))
    return np.linalg.solve(m, _as_triple(target_coords))


@_finite_math
def synthesize(target, hamiltonian: HamiltonianSpec) -> CircuitPlan:
    """Build a ≤3-pulse circuit for ``target`` from a fixed coupling.

    The Hamiltonian must be purely two-body (no single-qubit terms; an
    identity offset is allowed and only shifts the global phase).  The plan
    is verified before being returned.

    Raises
    ------
    NotNonlocalError
        If the Hamiltonian has single-qubit terms.
    DegenerateHamiltonianError
        If its Cartan coefficients cannot reach the target (singular system).
    VerificationError
        If the assembled plan misses the target, up to phase, by more
        than 1e-8.
    """
    target = check_unitary(target)
    g = _generator(hamiltonian)
    k, kd, k1, k2, middle, m = _keep(g, _plan_frame)

    d = _kak(_Gate(target))  # a fresh target: no use for the single-gate memo
    k0 = kd @ d.k2
    k3 = d.k1 @ _L3 @ k

    # Durations at rounding-noise level are exact zeros: a time of -1e-16
    # would otherwise cost a full recurrence period in with_nonnegative_times.
    t = np.linalg.solve(m, d.coords).tolist()
    times = tuple(0.0 if abs(x) <= TOL_TIME else x for x in t)
    plan = CircuitPlan(
        locals=(k0, k1, k2, k3),  # parsed into the plan's own arrays
        times=times,
        hamiltonian=hamiltonian,
    )
    resid = _dist_up_to_phase(_plan_product(g, k0, middle, k3, times), target)
    if resid > _TOL_RESIDUAL:
        raise VerificationError(
            f"synthesized plan misses target: residual {resid:.3e} > {_TOL_RESIDUAL:.1e}"
        )
    return plan


def cnot_from_isotropic() -> CircuitPlan:
    """The classic two-pulse CNOT-class circuit on the isotropic coupling.

    k_x·U(π/2)·k_x†·U(π/2) with k_x = exp(iπ/2·σx⊗I): two half-π pulses
    around a single-qubit x flip.  Packaged as a plan with a vanishing third
    pulse; after the first pulse the trajectory sits exactly at the
    sqrt-SWAP point [π/4, π/4, π/4].
    """
    k_x = _frame("c3-c2", "c2+c3")[0]  # = exp(iπ/2 σx⊗I)
    eye = np.eye(4, dtype=complex)
    return CircuitPlan(
        locals=(eye, k_x.conj().T, k_x, eye),
        times=(np.pi / 2, np.pi / 2, 0.0),
        hamiltonian=HamiltonianSpec.isotropic(),
    )


@_finite_math
def fundamental_period(hamiltonian: HamiltonianSpec) -> float | None:
    """Smallest T with exp(iHT) local up to phase, when the Cartan
    coefficients are commensurate; None otherwise.

    With ref the first nonzero |c_j| and p/q_j the closest fraction to
    |c_j|/ref with denominator below 10⁶, the candidate is T = π·q/ref,
    q = lcm(q_j).  It is rejected when some |c_j|·T misses its multiple of
    π by more than 1e-9, that is when π·q·|(|c_j|/ref) − p/q_j| > 1e-9, and
    otherwise kept only if exp(iHT) passes the locality test.  The period
    is derived once per spec object.
    """
    return _keep(_generator(hamiltonian), _period)


@_finite_math
def with_nonnegative_times(plan: CircuitPlan) -> CircuitPlan | None:
    """An equivalent plan with all durations ≥ 0, or None.

    Negative durations are shifted up by multiples of the fundamental
    period T (exp(iHT) is local up to phase, and gets folded into the
    neighboring local factor).  Only possible when the coupling's Cartan
    coefficients are commensurate, and only returned when the shifted
    segments U(t + n·T)·U(-n·T) together miss the segments U(t) they
    replace, up to phase, by at most 1e-8; as every factor is unitary, the
    new plan then matches the old one, up to phase, within 1e-8.

    n·T rounds at about |t|·ε, so for |t| ≫ T the compensator U(-n·T) need
    not be local, and the new time would absorb the difference: each
    compensator with n ≥ 2 must also pass the locality test the period
    passed (m(U) a multiple of I within 1e-8), else None.  At n = 1 the
    compensator is U(-T) = U(T)†, which that test has already passed.
    """
    if all(t >= 0.0 for t in _as_instance(plan, CircuitPlan, "plan").times):
        return plan
    g = _generator(plan.hamiltonian)
    period = _keep(g, _period)
    if period is None:
        return None
    flow = g.flow
    new_locals = list(plan.locals)
    new_times = list(plan.times)
    comps = []
    miss = 0.0
    for j, t in enumerate(plan.times):
        if t < 0.0:
            n = ceil(-t / period)
            new_times[j] = t + n * period
            comp = flow(-n * period)  # local up to phase, checked below for n ≥ 2
            if n > 1:
                comps.append(comp)
            new_locals[j] = comp @ new_locals[j]
            miss += _dist_up_to_phase(flow(new_times[j]) @ comp, flow(t))
    if miss > _TOL_RESIDUAL or comps and np.isnan(_m_scalar(np.array(comps))).any():
        return None
    return CircuitPlan(
        locals=tuple(new_locals), times=tuple(new_times), hamiltonian=plan.hamiltonian
    )
