"""Seeded inputs, item calls and correctness oracles of the benchmark workloads.

Every workload is a closed loop over batches of inputs.  Batch ``i`` of seed
``s`` is built from ``default_rng([s, i])`` before its calls are timed, so a
run never repeats an input, and the same seed gives the same inputs.
``call`` is the timed library work for one batch entry; ``check`` is the
oracle, run between calls with the clock stopped.  The oracles use closed
forms, plain NumPy, or a second library predicate that reaches the same
answer by another route (hull test against polyhedron).

Library functions are always looked up as ``wg.<name>`` at call time, so a
tracer that rebinds those names sees every call.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
import weylgate as wg

TOL_INV = 1e-8  # invariants and coordinates
TOL_KAK = 1e-9  # KAK reconstruction and witness states
TOL_PLAN = 1e-8  # synthesized plan against its target

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
# Ent(psi) = psi^T P psi with P = -(1/2) sigma_y (x) sigma_y.
_P_ENT = -0.5 * np.kron(_Y, _Y)


# ---------------------------------------------------------------------------
# Input generators (the same constructions as tests/conftest.py, in NumPy only)


def haar_u4(rng) -> np.ndarray:
    """A Haar-random U(4) matrix (QR of a complex Ginibre sample)."""
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def two_body_hamiltonian(rng, min_coeff: float = 0.05) -> np.ndarray:
    """(1/2) sum_ab C_ab sigma_a sigma_b with C uniform in [-1, 1]^9, rejection
    sampled until every Cartan coefficient clears ``min_coeff`` in magnitude.

    Local rotations act on C as C -> R1 C R2^T, so the magnitudes of the
    Cartan coefficients are the singular values of C.
    """
    paulis = (_X, _Y, _Z)
    while True:
        c = rng.uniform(-1.0, 1.0, size=(3, 3))
        if np.linalg.svd(c, compute_uv=False).min() >= min_coeff:
            return 0.5 * sum(
                c[a, b] * np.kron(paulis[a], paulis[b]) for a in range(3) for b in range(3)
            )


# ---------------------------------------------------------------------------
# Oracle helpers (NumPy only)


class CheckFailed(Exception):
    """An output of the library failed the benchmark's own check."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _inv_dist(a, b) -> float:
    return float(np.sqrt(abs(a.g1 - b.g1) ** 2 + (a.g2 - b.g2) ** 2))


def _dist_up_to_phase(u, v) -> float:
    t = np.trace(u.conj().T @ v)
    if abs(t) < 1e-12:
        return float(np.sqrt(8.0))
    return float(np.linalg.norm(u - (t.conjugate() / abs(t)) * v))


def _ent(psi) -> complex:
    return complex(psi @ _P_ENT @ psi)


# ---------------------------------------------------------------------------
# analyze_haar: the analysis commands on generic gates


@dataclass(frozen=True)
class HaarItem:
    u: np.ndarray


ANALYZE_BATCH = 32  # gates per batch


def analyze_batch(seed: int, index: int) -> list[HaarItem]:
    rng = np.random.default_rng([seed, index])
    return [HaarItem(np.exp(2j * np.pi * rng.random()) * haar_u4(rng)) for _ in range(ANALYZE_BATCH)]


def analyze_call(item: HaarItem):
    u = item.u
    inv = wg.local_invariants(u)
    c = wg.gate_coords(u)
    d = wg.kak_decompose(u)
    verdict = wg.is_perfect_entangler(u)
    witness = wg.entangling_input(u) if verdict.is_pe else None
    return inv, c, d, verdict, witness


def analyze_check(item: HaarItem, out) -> int:
    u = item.u
    inv, c, d, verdict, witness = out
    _require(wg.in_chamber(c), "coordinates outside the chamber")
    _require(_inv_dist(wg.invariants_from_coords(c), inv) <= TOL_INV, "invariants disagree with coordinates")
    _require(np.linalg.norm(wg.kak_reconstruct(d) - u) <= TOL_KAK, "KAK reconstruction off")
    _require(np.max(np.abs(d.coords - c)) <= TOL_INV, "KAK and gate_coords disagree")
    _require(verdict.is_pe == wg.pe_from_coords(c), "hull and polyhedron verdicts disagree")
    if verdict.is_pe:
        psi_in, psi_out = witness
        _require(abs(np.linalg.norm(psi_in) - 1.0) <= TOL_KAK, "witness input not normalized")
        _require(np.linalg.norm(u @ psi_in - psi_out) <= TOL_KAK, "witness output is not u·input")
        _require(abs(_ent(psi_in)) < TOL_KAK, "witness input is entangled")
        _require(abs(abs(_ent(psi_out)) - 0.5) < TOL_KAK, "witness output is not maximally entangled")
    return 0


# ---------------------------------------------------------------------------
# flow_sweep: coordinate trajectories of the standard couplings

# A sweep is what the CLI's ``trajectory`` command makes: 101 points from
# t = 0 to a t_max near its default 2*pi.  Each sweep is cut into consecutive
# chunks, one ``trajectory`` call each, so that a run makes enough calls for
# its p90; the points, and with them the share of t = 0, are the sweep's.
FLOW_STEPS = 101
FLOW_CHUNKS = 8
T_MAX_RANGE = (0.9 * 2.0 * np.pi, 1.1 * 2.0 * np.pi)
_EXCHANGE = (1.0, 0.5, 0.2, 0.0)
_JOSEPHSON_ALPHA = 1.2
FLOW_KINDS = ("isotropic", "xy", "ising", "exchange", "josephson")


@dataclass(frozen=True)
class FlowItem:
    kind: str
    spec: object
    times: np.ndarray


def _flow_spec(kind: str):
    if kind == "exchange":
        return wg.HamiltonianSpec.exchange(*_EXCHANGE)
    if kind == "josephson":
        return wg.HamiltonianSpec.josephson(_JOSEPHSON_ALPHA)
    return getattr(wg.HamiltonianSpec, kind)()


def flow_batch(seed: int, index: int) -> list[FlowItem]:
    """One sweep of each kind, each with a seeded t_max.  The kinds differ
    in cost by up to 3x per point, so a run stops only after whole batches,
    with every kind weighted alike."""
    rng = np.random.default_rng([seed, index])
    items = []
    for kind in FLOW_KINDS:
        spec = _flow_spec(kind)
        times = np.linspace(0.0, rng.uniform(*T_MAX_RANGE), FLOW_STEPS)
        items.extend(FlowItem(kind, spec, chunk) for chunk in np.array_split(times, FLOW_CHUNKS))
    return items


def flow_call(item: FlowItem):
    return wg.trajectory(item.spec, item.times)


def _flow_expected(kind: str, t: float):
    if kind == "exchange":
        return wg.invariants_from_coords(t * wg.exchange_coords(*_EXCHANGE))
    if kind == "josephson":
        return wg.josephson_invariants(_JOSEPHSON_ALPHA, 1.0, t)
    return wg.closed_form_invariants(kind, t)


def flow_check(item: FlowItem, out) -> int:
    """Number of trajectory points that fail their closed-form check."""
    if len(out) != len(item.times):
        return len(item.times)
    bad = 0
    for t, sample in zip(item.times, out):
        expected = _flow_expected(item.kind, t)
        ok = (
            sample.t == t
            and wg.in_chamber(sample.coords)
            and _inv_dist(expected, sample.invariants) <= TOL_INV
            and _inv_dist(expected, wg.invariants_from_coords(sample.coords)) <= TOL_INV
        )
        bad += not ok
    return bad


# ---------------------------------------------------------------------------
# compile_mixed: three-pulse synthesis over recurring generators

MAX_PULSES = 3
MAX_LOCALS = 4


@dataclass(frozen=True)
class CompileItem:
    target: np.ndarray
    spec: object


COMPILE_BATCH = 64  # plans per batch; each of its four generators serves 16


@functools.cache
def _fixed_generators() -> tuple:
    """Isotropic (commensurate) and exchange (no period): the same two
    objects in every batch of every run."""
    return wg.HamiltonianSpec.isotropic(), wg.HamiltonianSpec.exchange(*_EXCHANGE)


def compile_batch(seed: int, index: int) -> list[CompileItem]:
    """Fresh targets, the two fixed generators and two random two-body ones
    drawn for this batch.  Synthesis cost depends on the generator (by up to
    1.6x between random ones), so a run averages over many of them."""
    rng = np.random.default_rng([seed, index])
    gens = [*_fixed_generators(), *(wg.HamiltonianSpec.custom(two_body_hamiltonian(rng)) for _ in range(2))]
    return [CompileItem(haar_u4(rng), gens[i % len(gens)]) for i in range(COMPILE_BATCH)]


def compile_call(item: CompileItem):
    plan = wg.synthesize(item.target, item.spec)
    return plan, wg.with_nonnegative_times(plan)


def _check_plan(plan, target) -> None:
    _require(len(plan.times) <= MAX_PULSES, "more than three pulses")
    _require(len(plan.locals) <= MAX_LOCALS, "more than four local layers")
    _require(_dist_up_to_phase(wg.plan_unitary(plan), target) <= TOL_PLAN, "plan misses target")


def compile_check(item: CompileItem, out) -> int:
    plan, nonneg = out
    _check_plan(plan, item.target)
    if nonneg is not None:
        _require(all(t >= 0.0 for t in nonneg.times), "negative time in non-negative plan")
        _check_plan(nonneg, item.target)
    return 0


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """One workload.

    ``batch(seed, index)`` builds a batch of inputs and ``call`` is the timed
    library call on one batch entry, which covers ``size(entry)`` items.
    ``check(entry, output)`` returns how many of those items failed, or
    raises when the whole call failed.  The traced run replays batches
    ``0 .. trace_batches - 1``.  ``reference`` names the host-speed
    reference kernel in ``run.REF_KERNELS``.
    """

    name: str
    batch: Callable
    call: Callable
    check: Callable
    size: Callable
    trace_batches: int
    reference: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload("analyze_haar", analyze_batch, analyze_call, analyze_check, lambda _: 1, 2, "scan"),
        Workload("flow_sweep", flow_batch, flow_call, flow_check, lambda it: len(it.times), 1, "scan+linalg"),
        Workload("compile_mixed", compile_batch, compile_call, compile_check, lambda _: 1, 1, "scan+linalg"),
    )
}
