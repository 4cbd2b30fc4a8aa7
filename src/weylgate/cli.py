"""Command-line interface.

Each command is declared once, as an entry of ``_COMMANDS``: its name, its
help, the builder of its document and its arguments; ``build_parser`` loops
over the table.  A builder returns library values (arrays, complex numbers,
floats, None, bools, ints, text), and ``main`` formats the document once
(``_json``: reals at 12 significant digits, a complex number as [re, im])
and prints it as one JSON document.  Two outputs are text their builder
writes: a trajectory's CSV rows, and the gate file of ``gate``, at 17 digits
(lossless for doubles).  Exit codes: 0 success, 1 bad input, 2 numerical
failure (a verification or search that did not meet its bound).

Gates on the command line are either a known name (``cnot``, ``swap``,
``cu(0.3,0,0)``, ...) or a path to a JSON gate file with a ``matrix`` field
holding 4x4 entries as [re, im] pairs of finite reals.  Hamiltonians are
``isotropic``, ``xy``, ``ising``, ``exchange(jxx,jyy[,jxy,jyx])`` or
``josephson(alpha[,e_l])``.
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
    NotUnitaryError,
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
from .linalg import _as_array, _as_count, _as_real, _as_tol
from .synth import steps, synthesize, verify_plan, with_nonnegative_times

DIGITS = 12
FILE_DIGITS = 17


def _json(x, digits: int = DIGITS):
    """A command's document for JSON: a dict walked, None, bools, ints and
    text as they are, reals at ``digits`` significant digits, a complex
    number as [re, im], an array or a sequence as nested lists."""
    if isinstance(x, dict):
        return {k: _json(v, digits) for k, v in x.items()}
    if x is None or isinstance(x, (bool, int, str)):
        return x
    if np.ndim(x):
        return [_json(v, digits) for v in x]
    if np.iscomplexobj(x):
        return [_json(x.real, digits), _json(x.imag, digits)]
    return float(f"{float(x):.{digits}g}")


def load_gate(text: str):
    """A gate from a name or a JSON gate-file path, as an array the library
    checks; the file's pairs go through the library's one parser."""
    try:
        return named_gate(text)
    except InvalidInputError:
        pass
    try:
        with open(text, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InvalidInputError(
            f"UnknownGate: {text!r} is neither a known name nor a readable file"
        ) from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InvalidInputError(f"InvalidSpec: {text!r} is not valid JSON") from exc
    if not isinstance(doc, dict) or "matrix" not in doc:
        raise InvalidInputError("InvalidSpec: gate file needs a 'matrix' field")
    try:
        pairs = _as_array(doc["matrix"], (4, 4, 2), "matrix", NotUnitaryError, float)
    except InvalidInputError as exc:  # a wrong shape or a ragged nesting
        raise InvalidInputError("InvalidSpec: matrix entries must be [re, im] pairs") from exc
    return pairs[..., 0] + 1j * pairs[..., 1]


def _cmd_invariants(args) -> dict:
    return asdict(local_invariants(load_gate(args.gate)))  # g1, g2, g2_imag_residual


def _cmd_coords(args) -> dict:
    return {"c": gate_coords(load_gate(args.gate))}


def _cmd_equiv(args) -> dict:
    tol = _as_tol(args.equiv_tol, None, "--equiv-tol")
    ia, ib = local_invariants(load_gate(args.gate_a)), local_invariants(load_gate(args.gate_b))
    dist = invariant_distance(ia, ib)
    return {
        "locally_equivalent": dist <= tol,
        "invariant_distance": dist,
        "tol": tol,
        "g1_a": ia.g1,
        "g2_a": ia.g2,
        "g1_b": ib.g1,
        "g2_b": ib.g2,
    }


def _cmd_pe(args) -> dict:
    v = is_perfect_entangler(load_gate(args.gate))
    return {"is_pe": v.is_pe, "hull_margin": v.margin, "weights": v.weights}


def _cmd_kak(args) -> dict:
    d = kak_decompose(load_gate(args.gate))
    return {
        "alpha": d.alpha,
        "coords": d.coords,
        "k1": d.k1,
        "k2": d.k2,
        "a_factor": d.a_factor,
        "k1_factors": asdict(factor_local(d.k1)),  # a, b, phase
        "k2_factors": asdict(factor_local(d.k2)),
        "residual": d.residual,
    }


def _cmd_entangle_input(args) -> dict:
    psi_in, psi_out = entangling_input(load_gate(args.gate))
    return {
        "psi_in": psi_in,
        "psi_out": psi_out,
        "ent_in_abs": abs(ent(psi_in)),
        "ent_out_abs": abs(ent(psi_out)),
    }


def _cmd_trajectory(args) -> dict | str:
    spec = parse_hamiltonian(args.hamiltonian)
    t_max = _as_real(args.t_max, "--t-max")  # linspace would warn on an infinite end
    n = _as_count(args.steps, "--steps", 0)
    try:
        times = np.linspace(0.0, t_max, n)
    except (ValueError, MemoryError, IndexError) as exc:  # IndexError: NumPy 2.4 on a count ≥ 2^63
        raise InvalidInputError(f"--steps {n} is more points than one grid can hold") from exc
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
        "hamiltonian": asdict(spec),  # kind, params
        "samples": [
            {"t": t, "c": c, "g1": g1, "g2": g2, "is_pe": is_pe} for t, c, g1, g2, is_pe in rows
        ],
    }


def _cmd_volumes(_args) -> dict:
    v = pe_volume_exact()
    return {**asdict(v), "fraction": v.fraction}


def _cmd_pe_fraction(args) -> dict:
    frac = pe_fraction_mc(args.samples, args.seed)
    return {"samples": args.samples, "seed": args.seed, "fraction": frac}


def _cmd_synth(args) -> dict:
    u = load_gate(args.gate)
    plan = synthesize(u, parse_hamiltonian(args.hamiltonian))
    doc = {
        "hamiltonian": asdict(plan.hamiltonian),
        "times": plan.times,
        "residual": verify_plan(plan, u),
        "steps": [
            {"pulse": val} if kind == "pulse" else {"local": val, "factors": asdict(factor_local(val))}
            for kind, val in steps(plan)
        ],
    }
    if args.nonnegative:
        nn = with_nonnegative_times(plan)
        doc["nonnegative_times"] = None if nn is None else nn.times
    return doc


def _cmd_josephson(args) -> dict:
    r = josephson_cnot_min_time(e_l=args.e_l)
    g = r.invariants
    return {"alpha_ratio": r.alpha_ratio, "t": r.t, "pulse_index": r.pulse_index, "g1": g.g1, "g2": g.g2}


def _cmd_gate(args) -> str:
    # Written at 17 digits, which round-trip every double, and not again at 12.
    doc = {"name": args.name, "matrix": np.asarray(named_gate(args.name), dtype=complex)}
    return json.dumps(_json(doc, FILE_DIGITS), indent=2) + "\n"


def _arg(*flags, **options) -> tuple:
    """One argument of a command: what its ``add_argument`` call takes."""
    return flags, options


# Each command once: its name, its help, the builder of its document and its
# arguments, in the order ``weylgate --help`` lists them.
_GATE = _arg("gate")
_COMMANDS = (
    ("invariants", "local-equivalence invariants of a gate", _cmd_invariants, [_GATE]),
    ("coords", "canonical Weyl-chamber coordinates", _cmd_coords, [_GATE]),
    ("equiv", "test local equivalence of two gates", _cmd_equiv, [
        _arg("gate_a"),
        _arg("gate_b"),
        _arg("--equiv-tol", type=float, default=_TOL_EQUIVALENT),
    ]),
    ("pe", "perfect-entangler test (convex hull)", _cmd_pe, [_GATE]),
    ("kak", "KAK decomposition", _cmd_kak, [_GATE]),
    ("entangle-input", "product state a perfect entangler maximally entangles", _cmd_entangle_input, [
        _GATE,
    ]),
    ("trajectory", "coordinate/invariant flow of exp(iHt)", _cmd_trajectory, [
        _arg("hamiltonian"),
        _arg("--t-max", type=float, default=float(2 * np.pi)),
        _arg("--steps", type=int, default=101),
        _arg("--format", choices=("json", "csv"), default="json"),
    ]),
    ("volumes", "exact chamber and perfect-entangler volumes", _cmd_volumes, []),
    ("pe-fraction", "Monte-Carlo perfect-entangler fraction", _cmd_pe_fraction, [
        _arg("--samples", type=int, default=1_000_000),
        _arg("--seed", type=int, default=0),
    ]),
    ("synth", "three-pulse synthesis of a gate from a coupling", _cmd_synth, [
        _GATE,
        _arg("hamiltonian"),
        _arg("--nonnegative", action="store_true", help="also report non-negative durations"),
    ]),
    ("josephson-min-time", "fastest CNOT-class point of the Josephson model", _cmd_josephson, [
        _arg("--e-l", type=float, default=1.0),
    ]),
    ("gate", "print a named gate as a JSON gate file", _cmd_gate, [_arg("name")]),
)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="weylgate",
        description="Weyl-chamber analysis and synthesis of two-qubit gates",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, help_text, build, arguments in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for flags, options in arguments:
            p.add_argument(*flags, **options)
        p.set_defaults(func=build)
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
        json.dump(_json(doc), sys.stdout, indent=2)
        sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
