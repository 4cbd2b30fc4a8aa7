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
``HamiltonianSpec`` object and kept by it (``hamflow._Generator``): the
checked matrix, the eigenpair (w, V) of its flow U(t) = V·e^{i·w·t}·V†, its
Cartan coefficients and conjugating gate k, the two middle locals, their
images V†·k_i·V in the eigenbasis, the pulse-time matrix M with its
determinant check, and the recurrence period.  Per target there remain the
target's KAK, one 3x3 solve M·t = γ, the two outer locals and the residual
check, which multiplies the plan out in the eigenbasis: all three pulses
come from one ``exp``, and the middle factors are the kept ones.  An
explicit matrix passed in place of a spec is derived afresh on each call.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

import numpy as np

from .cartan import _frame
from .errors import InvalidInputError, VerificationError
from .hamflow import _L3, HamiltonianSpec, _Generator, _generator, _pulse_time_matrix
from .invariants import _Gate
from .kak import _kak
from .linalg import _as_array, _as_triple, _dist_up_to_phase, _finite_math, check_unitary

TOL_TIME = 1e-10  # a duration at most this is no pulse
_TOL_RESIDUAL = 1e-8  # how far a returned plan may miss its target, up to phase


@dataclass(frozen=True)
class CircuitPlan:
    """An alternating local/pulse schedule implementing a target gate.

    The implemented unitary is
    locals[3] · U(times[2]) · locals[2] · U(times[1]) · locals[1] ·
    U(times[0]) · locals[0], up to a global phase.  ``times`` must be three
    finite reals, else InvalidInputError.
    """

    locals: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    times: tuple[float, float, float]
    hamiltonian: HamiltonianSpec

    def __post_init__(self):
        _as_array(self.times, (3,), "plan times", InvalidInputError, float)


@_finite_math
def plan_unitary(plan: CircuitPlan) -> np.ndarray:
    """Multiply the plan out into an explicit 4x4 unitary."""
    g = _generator(plan.hamiltonian)
    l0, l1, l2, l3 = plan.locals
    middle = g.in_eigenbasis(l1), g.in_eigenbasis(l2)
    return _plan_product(g, l0, middle, l3, plan.times)


def _plan_product(g: _Generator, l0, middle, l3, times) -> np.ndarray:
    """l3·U(t3)·l2·U(t2)·l1·U(t1)·l0 with U(t) = V·e^{i·w·t}·V†, as
    (l3·V)·E3·(V†·l2·V)·E2·(V†·l1·V)·E1·(V†·l0), E_i = diag(e^{i·w·t_i});
    ``middle`` holds V†·l1·V and V†·l2·V."""
    e = np.exp(1j * np.multiply.outer(times, g.w))  # row i: the diagonal of E_i
    m1, m2 = middle
    return ((l3 @ g.v) * e[2]) @ ((m2 * e[1]) @ ((m1 * e[0]) @ (g.vh @ l0)))


def verify_plan(plan: CircuitPlan, target) -> float:
    """Phase-insensitive Frobenius distance between the plan and the target."""
    return _dist_up_to_phase(plan_unitary(plan), check_unitary(target))


def steps(plan: CircuitPlan):
    """The plan as an explicit schedule, shortest form.

    Returns a list of ("local", matrix) and ("pulse", duration) entries,
    alternating, with pulses of duration ≤ TOL_TIME elided (their
    neighboring locals merged).
    """
    out: list[tuple[str, object]] = []
    acc = plan.locals[0]
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
    actions of ``hamflow._L2`` and ``_L3``.  Durations may be negative; see
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
    kd, k1, k2 = g.pulse_locals  # raises NotNonlocalError on local terms
    m = g.steer  # raises DegenerateHamiltonianError on a degenerate coupling

    d = _kak(_Gate(target))  # a fresh target: no use for the single-gate memo
    k0 = kd @ d.k2
    k3 = d.k1 @ _L3 @ g.cartan.k

    # Durations at rounding-noise level are exact zeros: a time of -1e-16
    # would otherwise cost a full recurrence period in with_nonnegative_times.
    t = np.linalg.solve(m, d.coords).tolist()
    times = tuple(0.0 if abs(x) <= TOL_TIME else x for x in t)
    plan = CircuitPlan(
        locals=(k0, k1.copy(), k2.copy(), k3),  # the plan owns its arrays
        times=times,
        hamiltonian=hamiltonian,
    )
    resid = _dist_up_to_phase(_plan_product(g, k0, g.middle, k3, times), target)
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
    return _generator(hamiltonian).period


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
    """
    if all(t >= 0.0 for t in plan.times):
        return plan
    g = _generator(plan.hamiltonian)
    period = g.period
    if period is None:
        return None
    flow = g.flow
    new_locals = list(plan.locals)
    new_times = list(plan.times)
    miss = 0.0
    for j, t in enumerate(plan.times):
        if t < 0.0:
            n = ceil(-t / period)
            new_times[j] = t + n * period
            comp = flow(-n * period)  # local up to phase
            new_locals[j] = comp @ new_locals[j]
            miss += _dist_up_to_phase(flow(new_times[j]) @ comp, flow(t))
    if miss > _TOL_RESIDUAL:
        return None
    return CircuitPlan(
        locals=tuple(new_locals), times=tuple(new_times), hamiltonian=plan.hamiltonian
    )
