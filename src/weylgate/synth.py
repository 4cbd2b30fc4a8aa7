"""Three-pulse circuit synthesis.

Given any fixed two-body coupling Hamiltonian H and any target two-qubit
gate, the target factors (up to global phase) as

    k3 · U(t3) · k2 · U(t2) · k1 · U(t1) · k0,

with U(t) = exp(i·H·t), at most three evolution pulses, and four tensor
products of single-qubit gates.  The times come from a 3x3 linear system
relating the Hamiltonian's Cartan coefficients to the target's canonical
coordinates; the locals come from the target's KAK factors, the gate that
rotates H into the Cartan subalgebra, and fixed reflection gates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, lcm

import numpy as np

from .cartan import WEYL_REFLECTIONS, _conjugate
from .errors import (
    DegenerateHamiltonianError,
    VerificationError,
)
from .hamflow import HamiltonianSpec, realize
from .kak import _kak, _m_scalar
from .linalg import _as_triple, _flow, check_unitary, dist_up_to_phase

TOL_TIME = 1e-10
_COMMENSURABLE_DENOM = 10**6


@dataclass(frozen=True)
class CircuitPlan:
    """An alternating local/pulse schedule implementing a target gate.

    The implemented unitary is
    locals[3] · U(times[2]) · locals[2] · U(times[1]) · locals[1] ·
    U(times[0]) · locals[0], up to a global phase.
    """

    locals: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    times: tuple[float, float, float]
    hamiltonian: HamiltonianSpec


def plan_unitary(plan: CircuitPlan) -> np.ndarray:
    """Multiply the plan out into an explicit 4x4 unitary."""
    return _plan_unitary(plan, _flow(realize(plan.hamiltonian)))


def _plan_unitary(plan: CircuitPlan, flow) -> np.ndarray:
    u = plan.locals[0]
    for t, k in zip(plan.times, plan.locals[1:]):
        u = k @ flow(t) @ u
    return u


def verify_plan(plan: CircuitPlan, target) -> float:
    """Phase-insensitive Frobenius distance between the plan and the target."""
    return dist_up_to_phase(plan_unitary(plan), check_unitary(target))


def steps(plan: CircuitPlan, tol_time: float = TOL_TIME):
    """The plan as an explicit schedule, shortest form.

    Returns a list of ("local", matrix) and ("pulse", duration) entries,
    alternating, with pulses of duration ≤ tol_time elided (their
    neighboring locals merged).
    """
    out: list[tuple[str, object]] = []
    acc = plan.locals[0]
    for t, k in zip(plan.times, plan.locals[1:]):
        if abs(t) <= tol_time:
            acc = k @ acc
        else:
            out.append(("local", acc))
            out.append(("pulse", float(t)))
            acc = k
    out.append(("local", acc))
    return out


def solve_times(coeffs, target_coords, tol_det: float = 1e-12) -> np.ndarray:
    """Durations (t1, t2, t3) from Cartan coefficients and target coordinates.

    Solves M·t = γ where the columns of M are the images of the coefficient
    vector under the three fixed conjugation frames::

        M = [[c1, -c3,  c3],
             [c2, -c1, -c2],
             [c3,  c2, -c1]]

    Durations may be negative; see with_nonnegative_times.

    Raises
    ------
    DegenerateHamiltonianError
        If |det M| ≤ tol_det (coefficients too degenerate to steer).
    """
    c1, c2, c3 = _as_triple(coeffs, "coeffs")
    m = np.array([[c1, -c3, c3], [c2, -c1, -c2], [c3, c2, -c1]])
    det = float(np.linalg.det(m))
    if abs(det) <= tol_det:
        raise DegenerateHamiltonianError(
            f"pulse-time system is singular (det {det:.3e}) for coefficients {coeffs}"
        )
    return np.linalg.solve(m, _as_triple(target_coords))


def _conjugation_frames() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The fixed locals l1, l2, l3 whose conjugation realizes the columns of
    the solve_times matrix."""
    r = {k: v.gate for k, v in WEYL_REFLECTIONS.items()}
    l1 = np.eye(4, dtype=complex)
    l2 = r["c3-c2"] @ r["c1+c3"]
    l3 = r["c2-c1"] @ r["c3-c2"] @ r["c1+c2"]
    return l1, l2, l3


def synthesize(target, hamiltonian: HamiltonianSpec, tol_residual: float = 1e-8) -> CircuitPlan:
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
        If the assembled plan misses the target beyond ``tol_residual``.
    """
    target = check_unitary(target)
    h = realize(hamiltonian)
    ct = _conjugate(h)  # drops the identity part; raises NotNonlocalError on local terms
    k = ct.k

    d = _kak(target)
    t = solve_times(ct.coeffs, d.coords)

    l1, l2, l3 = _conjugation_frames()
    kd = k.conj().T
    k0 = kd @ d.k2
    k1 = kd @ l2.conj().T @ l1 @ k
    k2 = kd @ l3.conj().T @ l2 @ k
    k3 = d.k1 @ l3 @ k

    # Durations at rounding-noise level are exact zeros: a time of -1e-16
    # would otherwise cost a full recurrence period in with_nonnegative_times.
    t = np.where(np.abs(t) <= TOL_TIME, 0.0, t)
    plan = CircuitPlan(
        locals=(k0, k1, k2, k3),
        times=(float(t[0]), float(t[1]), float(t[2])),
        hamiltonian=hamiltonian,
    )
    resid = dist_up_to_phase(_plan_unitary(plan, _flow(h)), target)
    if resid > tol_residual:
        raise VerificationError(
            f"synthesized plan misses target: residual {resid:.3e} > {tol_residual:.1e}"
        )
    return plan


def cnot_from_isotropic() -> CircuitPlan:
    """The classic two-pulse CNOT-class circuit on the isotropic coupling.

    k_x·U(π/2)·k_x†·U(π/2) with k_x = exp(iπ/2·σx⊗I): two half-π pulses
    around a single-qubit x flip.  Packaged as a plan with a vanishing third
    pulse; after the first pulse the trajectory sits exactly at the
    sqrt-SWAP point [π/4, π/4, π/4].
    """
    r = WEYL_REFLECTIONS
    k_x = r["c3-c2"].gate @ r["c2+c3"].gate  # = exp(iπ/2 σx⊗I)
    eye = np.eye(4, dtype=complex)
    return CircuitPlan(
        locals=(eye, k_x.conj().T, k_x, eye),
        times=(np.pi / 2, np.pi / 2, 0.0),
        hamiltonian=HamiltonianSpec.isotropic(),
    )


def fundamental_period(hamiltonian: HamiltonianSpec, tol: float = 1e-9) -> float | None:
    """Smallest T with exp(iHT) local up to phase, when the Cartan
    coefficients are commensurate (rational ratios with denominators below
    10⁶); None otherwise."""
    return _period(realize(hamiltonian), tol)


def _period(h, tol: float = 1e-9) -> float | None:
    c = _conjugate(h).coeffs
    nonzero = [abs(x) for x in c if abs(x) > 1e-12]
    if not nonzero:
        return None
    ref = nonzero[0]
    q = 1
    for x in nonzero[1:]:
        frac = Fraction(x / ref).limit_denominator(_COMMENSURABLE_DENOM)
        if abs(x / ref - frac) > tol:
            return None
        q = lcm(q, frac.denominator)
    period = np.pi * q / ref
    if _m_scalar(_flow(h)(period), tol=1e-8) is None:
        return None
    return float(period)


def with_nonnegative_times(plan: CircuitPlan, tol_residual: float = 1e-8) -> CircuitPlan | None:
    """An equivalent plan with all durations ≥ 0, or None.

    Negative durations are shifted up by multiples of the fundamental
    period T (exp(iHT) is local up to phase, and gets folded into the
    neighboring local factor).  Only possible when the coupling's Cartan
    coefficients are commensurate.
    """
    if all(t >= 0.0 for t in plan.times):
        return plan
    h = realize(plan.hamiltonian)
    period = _period(h)
    if period is None:
        return None
    flow = _flow(h)
    new_locals = list(plan.locals)
    new_times = list(plan.times)
    for j, t in enumerate(plan.times):
        if t < 0.0:
            n = ceil(-t / period)
            new_times[j] = t + n * period
            comp = flow(-n * period)  # local up to phase
            new_locals[j] = comp @ new_locals[j]
    out = CircuitPlan(
        locals=tuple(new_locals), times=tuple(new_times), hamiltonian=plan.hamiltonian
    )
    # the compensators are only local up to phase, which verify ignores
    ref = _plan_unitary(plan, flow)
    if dist_up_to_phase(_plan_unitary(out, flow), ref) > tol_residual:
        return None
    return out
