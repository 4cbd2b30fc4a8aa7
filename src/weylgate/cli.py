"""Command-line interface.

Every command prints a single JSON document to stdout (CSV optionally for
trajectories).  Numbers are emitted at 12 significant digits; gate files are
written at 17 (lossless for doubles).  Exit codes: 0 success, 1 bad input,
2 numerical failure (a verification or search that did not meet its bound).

Gates on the command line are either a known name (``cnot``, ``swap``,
``cu(0.3,0,0)``, ...) or a path to a JSON gate file with a ``matrix`` field
holding 4x4 entries as [re, im] pairs.  Hamiltonians are ``isotropic``,
``xy``, ``ising``, ``exchange(jxx,jyy[,jxy,jyx])`` or ``josephson(alpha[,e_l])``.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .chamber import gate_coords, named_gate
from .entangler import (
    ent,
    entangling_input,
    is_perfect_entangler,
    pe_fraction_mc,
    pe_volume_exact,
)
from .errors import (
    BranchSearchError,
    ConvergenceError,
    VerificationError,
    WeylgateError,
)
from .hamflow import (
    josephson_cnot_min_time,
    parse_hamiltonian,
    trajectory,
)
from .invariants import invariant_distance, local_invariants
from .kak import factor_local, kak_decompose
from .synth import steps, synthesize, verify_plan, with_nonnegative_times

DIGITS = 12
FILE_DIGITS = 17


def _f(x: float, digits: int = DIGITS) -> float:
    return float(f"{float(x):.{digits}g}")


def _cplx(z: complex, digits: int = DIGITS) -> list[float]:
    z = complex(z)
    return [_f(z.real, digits), _f(z.imag, digits)]


def _vec(v, digits: int = DIGITS) -> list:
    return [_cplx(z, digits) for z in np.asarray(v, dtype=complex)]


def _mat(m, digits: int = DIGITS) -> list:
    return [_vec(row, digits) for row in np.asarray(m, dtype=complex)]


def _reals(v, digits: int = DIGITS) -> list[float]:
    return [_f(x, digits) for x in np.asarray(v, dtype=float)]


def load_gate(text: str) -> np.ndarray:
    """A gate from a name or a JSON gate-file path, parsed; the library checks it."""
    try:
        return named_gate(text)
    except ValueError:
        pass
    try:
        with open(text) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValueError(f"UnknownGate: {text!r} is neither a known name nor a readable file") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"InvalidSpec: {text!r} is not valid JSON") from exc
    if not isinstance(doc, dict) or "matrix" not in doc:
        raise ValueError("InvalidSpec: gate file needs a 'matrix' field")
    rows = doc["matrix"]
    try:
        m = np.array(
            [[complex(e[0], e[1]) for e in row] for row in rows], dtype=complex
        )
    except (TypeError, IndexError) as exc:
        raise ValueError("InvalidSpec: matrix entries must be [re, im] pairs") from exc
    return m


def gate_doc(name: str, matrix) -> dict:
    return {"name": name, "matrix": _mat(matrix, FILE_DIGITS)}


def _local_factor_doc(k) -> dict:
    f = factor_local(k)
    return {
        "a": _mat(f.a),
        "b": _mat(f.b),
        "phase": _f(f.phase),
    }


def _plan_doc(plan, residual: float) -> dict:
    schedule = []
    for kind, val in steps(plan):
        if kind == "pulse":
            schedule.append({"pulse": _f(val)})
        else:
            schedule.append({"local": _mat(val), "factors": _local_factor_doc(val)})
    return {
        "hamiltonian": {"kind": plan.hamiltonian.kind, "params": _reals(plan.hamiltonian.params)},
        "times": _reals(plan.times),
        "residual": _f(residual),
        "steps": schedule,
    }


def _cmd_invariants(args) -> dict:
    u = load_gate(args.gate)
    inv = local_invariants(u)
    return {
        "g1": _cplx(inv.g1),
        "g2": _f(inv.g2),
        "g2_imag_residual": _f(inv.g2_imag_residual),
    }


def _cmd_coords(args) -> dict:
    u = load_gate(args.gate)
    return {"c": _reals(gate_coords(u))}


def _cmd_equiv(args) -> dict:
    a = load_gate(args.gate_a)
    b = load_gate(args.gate_b)
    ia, ib = local_invariants(a), local_invariants(b)
    dist = invariant_distance(ia, ib)
    return {
        "locally_equivalent": bool(dist <= args.equiv_tol),
        "invariant_distance": _f(dist),
        "tol": _f(args.equiv_tol),
        "g1_a": _cplx(ia.g1),
        "g2_a": _f(ia.g2),
        "g1_b": _cplx(ib.g1),
        "g2_b": _f(ib.g2),
    }


def _cmd_pe(args) -> dict:
    u = load_gate(args.gate)
    v = is_perfect_entangler(u)
    return {
        "is_pe": bool(v.is_pe),
        "hull_margin": _f(v.margin),
        "weights": _reals(v.weights) if v.weights is not None else None,
    }


def _cmd_kak(args) -> dict:
    u = load_gate(args.gate)
    d = kak_decompose(u)
    return {
        "alpha": _f(d.alpha),
        "coords": _reals(d.coords),
        "k1": _mat(d.k1),
        "k2": _mat(d.k2),
        "a_factor": _mat(d.a_factor),
        "k1_factors": _local_factor_doc(d.k1),
        "k2_factors": _local_factor_doc(d.k2),
        "residual": _f(d.residual),
    }


def _cmd_entangle_input(args) -> dict:
    u = load_gate(args.gate)
    psi_in, psi_out = entangling_input(u)
    return {
        "psi_in": _vec(psi_in),
        "psi_out": _vec(psi_out),
        "ent_in_abs": _f(abs(ent(psi_in))),
        "ent_out_abs": _f(abs(ent(psi_out))),
    }


def _cmd_trajectory(args, out) -> dict | None:
    spec = parse_hamiltonian(args.hamiltonian)
    times = np.linspace(0.0, args.t_max, args.steps)
    samples = trajectory(spec, times)
    if args.format == "csv":
        out.write("t,c1,c2,c3,g1_re,g1_im,g2,is_pe\n")
        for s in samples:
            c = s.coords
            out.write(
                f"{_f(s.t)},{_f(c[0])},{_f(c[1])},{_f(c[2])},"
                f"{_f(s.invariants.g1.real)},{_f(s.invariants.g1.imag)},"
                f"{_f(s.invariants.g2)},{int(s.is_pe)}\n"
            )
        return None
    return {
        "hamiltonian": {"kind": spec.kind, "params": _reals(spec.params)},
        "samples": [
            {
                "t": _f(s.t),
                "c": _reals(s.coords),
                "g1": _cplx(s.invariants.g1),
                "g2": _f(s.invariants.g2),
                "is_pe": bool(s.is_pe),
            }
            for s in samples
        ],
    }


def _cmd_volumes(_args) -> dict:
    v = pe_volume_exact()
    return {
        "chamber": _f(v.chamber),
        "corner_l_q_p_o": _f(v.corner_l_q_p_o),
        "corner_n_p_a2_a3": _f(v.corner_n_p_a2_a3),
        "corner_l_m_n_a1": _f(v.corner_l_m_n_a1),
        "perfect_entanglers": _f(v.perfect_entanglers),
        "fraction": _f(v.fraction),
    }


def _cmd_pe_fraction(args) -> dict:
    frac = pe_fraction_mc(args.samples, args.seed)
    return {"samples": args.samples, "seed": args.seed, "fraction": _f(frac)}


def _cmd_synth(args) -> dict:
    u = load_gate(args.gate)
    spec = parse_hamiltonian(args.hamiltonian)
    plan = synthesize(u, spec)
    doc = _plan_doc(plan, verify_plan(plan, u))
    if args.nonnegative:
        nn = with_nonnegative_times(plan)
        doc["nonnegative_times"] = _reals(nn.times) if nn is not None else None
    return doc


def _cmd_josephson(args) -> dict:
    r = josephson_cnot_min_time(e_l=args.e_l)
    return {
        "alpha_ratio": _f(r.alpha_ratio),
        "t": _f(r.t),
        "pulse_index": r.pulse_index,
        "g1": _cplx(r.invariants.g1),
        "g2": _f(r.invariants.g2),
    }


def _cmd_gate(args) -> dict:
    u = named_gate(args.name)
    return gate_doc(args.name, u)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="weylgate",
        description="Weyl-chamber analysis and synthesis of two-qubit gates",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", help="local-equivalence invariants of a gate")
    p.add_argument("gate")
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("coords", help="canonical Weyl-chamber coordinates")
    p.add_argument("gate")
    p.set_defaults(func=_cmd_coords)

    p = sub.add_parser("equiv", help="test local equivalence of two gates")
    p.add_argument("gate_a")
    p.add_argument("gate_b")
    p.add_argument("--equiv-tol", type=float, default=1e-8)
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("pe", help="perfect-entangler test (convex hull)")
    p.add_argument("gate")
    p.set_defaults(func=_cmd_pe)

    p = sub.add_parser("kak", help="KAK decomposition")
    p.add_argument("gate")
    p.set_defaults(func=_cmd_kak)

    p = sub.add_parser("entangle-input", help="product state a perfect entangler maximally entangles")
    p.add_argument("gate")
    p.set_defaults(func=_cmd_entangle_input)

    p = sub.add_parser("trajectory", help="coordinate/invariant flow of exp(iHt)")
    p.add_argument("hamiltonian")
    p.add_argument("--t-max", type=float, default=float(2 * np.pi))
    p.add_argument("--steps", type=int, default=101)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_trajectory, wants_stream=True)

    p = sub.add_parser("volumes", help="exact chamber and perfect-entangler volumes")
    p.set_defaults(func=_cmd_volumes)

    p = sub.add_parser("pe-fraction", help="Monte-Carlo perfect-entangler fraction")
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_pe_fraction)

    p = sub.add_parser("synth", help="three-pulse synthesis of a gate from a coupling")
    p.add_argument("gate")
    p.add_argument("hamiltonian")
    p.add_argument("--nonnegative", action="store_true", help="also report non-negative durations")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("josephson-min-time", help="fastest CNOT-class point of the Josephson model")
    p.add_argument("--e-l", type=float, default=1.0)
    p.set_defaults(func=_cmd_josephson)

    p = sub.add_parser("gate", help="print a named gate as a JSON gate file")
    p.add_argument("name")
    p.set_defaults(func=_cmd_gate)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if getattr(args, "wants_stream", False):
            doc = args.func(args, sys.stdout)
        else:
            doc = args.func(args)
    except (VerificationError, BranchSearchError, ConvergenceError) as exc:
        json.dump({"error": {"type": type(exc).__name__, "message": str(exc)}}, sys.stderr)
        sys.stderr.write("\n")
        return 2
    except (WeylgateError, ValueError) as exc:
        json.dump({"error": {"type": type(exc).__name__, "message": str(exc)}}, sys.stderr)
        sys.stderr.write("\n")
        return 1
    if doc is not None:
        json.dump(doc, sys.stdout, indent=2)
        sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
