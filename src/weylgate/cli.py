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
from dataclasses import asdict

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
    ConvergenceError,
    InvalidInputError,
    VerificationError,
    WeylgateError,
)
from .hamflow import (
    josephson_cnot_min_time,
    parse_hamiltonian,
    trajectory,
)
from .invariants import _TOL_EQUIVALENT, invariant_distance, local_invariants
from .kak import factor_local, kak_decompose
from .linalg import _as_count, _as_real, _as_tol
from .synth import steps, synthesize, verify_plan, with_nonnegative_times

DIGITS = 12
FILE_DIGITS = 17


def _json(x, digits: int = DIGITS):
    """``x`` for JSON: reals at ``digits`` significant digits, a complex
    number as [re, im], an array or a sequence as nested lists."""
    if np.ndim(x):
        return [_json(v, digits) for v in x]
    if np.iscomplexobj(x):
        return [_json(x.real, digits), _json(x.imag, digits)]
    return float(f"{float(x):.{digits}g}")


def load_gate(text: str):
    """A gate from a name or a JSON gate-file path, as an array or nested
    lists: the library parses and checks it."""
    try:
        return named_gate(text)
    except InvalidInputError:
        pass
    try:
        with open(text) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InvalidInputError(
            f"UnknownGate: {text!r} is neither a known name nor a readable file"
        ) from exc
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"InvalidSpec: {text!r} is not valid JSON") from exc
    if not isinstance(doc, dict) or "matrix" not in doc:
        raise InvalidInputError("InvalidSpec: gate file needs a 'matrix' field")
    try:
        return [[complex(e[0], e[1]) for e in row] for row in doc["matrix"]]
    except (TypeError, IndexError) as exc:
        raise InvalidInputError("InvalidSpec: matrix entries must be [re, im] pairs") from exc


def gate_doc(name: str, matrix) -> dict:
    return {"name": name, "matrix": _json(np.asarray(matrix, dtype=complex), FILE_DIGITS)}


def _local_factor_doc(k) -> dict:
    f = factor_local(k)
    return {"a": _json(f.a), "b": _json(f.b), "phase": _json(f.phase)}


def _plan_doc(plan, residual: float) -> dict:
    schedule = []
    for kind, val in steps(plan):
        if kind == "pulse":
            schedule.append({"pulse": _json(val)})
        else:
            schedule.append({"local": _json(val), "factors": _local_factor_doc(val)})
    return {
        "hamiltonian": {"kind": plan.hamiltonian.kind, "params": _json(plan.hamiltonian.params)},
        "times": _json(plan.times),
        "residual": _json(residual),
        "steps": schedule,
    }


def _cmd_invariants(args) -> dict:
    inv = local_invariants(load_gate(args.gate))
    return {k: _json(x) for k, x in asdict(inv).items()}  # g1, g2, g2_imag_residual


def _cmd_coords(args) -> dict:
    return {"c": _json(gate_coords(load_gate(args.gate)))}


def _cmd_equiv(args) -> dict:
    tol = _as_tol(args.equiv_tol, None, "--equiv-tol")
    ia, ib = local_invariants(load_gate(args.gate_a)), local_invariants(load_gate(args.gate_b))
    dist = invariant_distance(ia, ib)
    return {
        "locally_equivalent": bool(dist <= tol),
        "invariant_distance": _json(dist),
        "tol": _json(tol),
        "g1_a": _json(ia.g1),
        "g2_a": _json(ia.g2),
        "g1_b": _json(ib.g1),
        "g2_b": _json(ib.g2),
    }


def _cmd_pe(args) -> dict:
    v = is_perfect_entangler(load_gate(args.gate))
    return {
        "is_pe": bool(v.is_pe),
        "hull_margin": _json(v.margin),
        "weights": _json(v.weights) if v.weights is not None else None,
    }


def _cmd_kak(args) -> dict:
    d = kak_decompose(load_gate(args.gate))
    return {
        "alpha": _json(d.alpha),
        "coords": _json(d.coords),
        "k1": _json(d.k1),
        "k2": _json(d.k2),
        "a_factor": _json(d.a_factor),
        "k1_factors": _local_factor_doc(d.k1),
        "k2_factors": _local_factor_doc(d.k2),
        "residual": _json(d.residual),
    }


def _cmd_entangle_input(args) -> dict:
    psi_in, psi_out = entangling_input(load_gate(args.gate))
    return {
        "psi_in": _json(psi_in),
        "psi_out": _json(psi_out),
        "ent_in_abs": _json(abs(ent(psi_in))),
        "ent_out_abs": _json(abs(ent(psi_out))),
    }


def _cmd_trajectory(args) -> dict | str:
    spec = parse_hamiltonian(args.hamiltonian)
    t_max = _as_real(args.t_max, "--t-max")  # linspace would warn on an infinite end
    times = np.linspace(0.0, t_max, _as_count(args.steps, "--steps", 0))
    table = trajectory(spec, times)
    columns = (table.t, table.coords, table.g1, table.g2, table.is_pe)
    rows = list(zip(*(column.tolist() for column in columns)))
    if args.format == "csv":
        lines = ["t,c1,c2,c3,g1_re,g1_im,g2,is_pe\n"]
        for t, c, g1, g2, is_pe in rows:
            reals = _json([t, *c, g1.real, g1.imag, g2])
            lines.append(",".join(map(str, reals)) + f",{int(is_pe)}\n")
        return "".join(lines)
    return {
        "hamiltonian": {"kind": spec.kind, "params": _json(spec.params)},
        "samples": [
            {"t": _json(t), "c": _json(c), "g1": _json(g1), "g2": _json(g2), "is_pe": is_pe}
            for t, c, g1, g2, is_pe in rows
        ],
    }


def _cmd_volumes(_args) -> dict:
    v = pe_volume_exact()
    return {k: _json(x) for k, x in {**asdict(v), "fraction": v.fraction}.items()}


def _cmd_pe_fraction(args) -> dict:
    frac = pe_fraction_mc(args.samples, args.seed)
    return {"samples": args.samples, "seed": args.seed, "fraction": _json(frac)}


def _cmd_synth(args) -> dict:
    u = load_gate(args.gate)
    spec = parse_hamiltonian(args.hamiltonian)
    plan = synthesize(u, spec)
    doc = _plan_doc(plan, verify_plan(plan, u))
    if args.nonnegative:
        nn = with_nonnegative_times(plan)
        doc["nonnegative_times"] = _json(nn.times) if nn is not None else None
    return doc


def _cmd_josephson(args) -> dict:
    r = josephson_cnot_min_time(e_l=args.e_l)
    return {
        "alpha_ratio": _json(r.alpha_ratio),
        "t": _json(r.t),
        "pulse_index": r.pulse_index,
        "g1": _json(r.invariants.g1),
        "g2": _json(r.invariants.g2),
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
    p.add_argument("--equiv-tol", type=float, default=_TOL_EQUIVALENT)
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
    p.set_defaults(func=_cmd_trajectory)

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
        doc = args.func(args)
    except WeylgateError as exc:
        json.dump({"error": {"type": type(exc).__name__, "message": str(exc)}}, sys.stderr)
        sys.stderr.write("\n")
        # 2: a verified numerical contract failed inside; 1: bad input
        return 2 if isinstance(exc, (VerificationError, ConvergenceError)) else 1
    if isinstance(doc, str):
        sys.stdout.write(doc)
    else:
        json.dump(doc, sys.stdout, indent=2)
        sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
