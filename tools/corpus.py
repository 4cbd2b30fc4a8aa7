"""The differential corpus: fixed inputs of the analysis chain and the outputs
the library gave for them, in ``tests/data/corpus.npz``.

    python tools/corpus.py            # build the inputs, compute, write the file
    python tools/corpus.py --check    # recompute from the stored inputs and
                                      # report bit-identity field by field

The inputs are seeded and stored in the file, so ``--check`` recomputes from
exactly what was written.  They cover:

* ``gate_*``: Haar-random gates with a global phase, the named gates, the
  nine chamber vertices dressed with random locals at ε = 0, 1e-12, 1e-9
  and 1e-7, dressed points on both sides of ``TOL_BASE`` with c1 > π/2, and
  dressed points on c1 + c2 = π, and dressed points on the L–A2 edge
  (c1 = π/2, c3 = 0) and beside it.  Each goes through the chain that
  ``analyze_haar`` times: ``local_invariants``, ``gate_coords``,
  ``kak_decompose``, ``is_perfect_entangler`` and, for a perfect entangler
  with weights, ``entangling_input`` (NaN rows elsewhere).
* ``local_*``: ``factor_local`` of each Haar gate's KAK factors k1 and k2:
  the single-qubit factors a and b and the phase.
* ``fold_*``: coordinate triples at the mod-π boundaries (±0, ±1e-17, π and
  its neighboring floats, c3 at ``TOL_BASE`` ± 1 ulp, c1 + c2 = π, |c| up
  to 1e15, the L–A2 edge and its neighboring floats, and coordinates just
  below 2^53) and the raw coordinates of the gates, through the fold.
* ``big_*``: triples just below 2^53 through ``canonicalize``, and triples
  at and past it, where it raises (``big_raises``; NaN rows).
* ``flow_*``: the five couplings of the flow benchmark at 100 times each,
  through ``trajectory``.  Every coupling's rows within its certificate's
  reach are closed-form folds, josephson's too; the far times reach past
  it (1e6 on every coupling but ising, 2e5 on josephson), so the spectrum
  path runs for every coupling but ising, whose reach is 1.3e6.
* ``plan_*``: seeded targets over six specs, isotropic,
  exchange(1, 0.5, 0.2, 0) and four seeded custom couplings, 15 plans
  each, through ``synthesize`` and ``with_nonnegative_times`` (NaN rows
  and ``plan_rewritten`` False where it returns None).

Rows added after the first corpus (the L–A2 gates, the last two couplings
and their plans) draw from their own seeded generator, so the rows before
them keep their inputs and specs.  A change that moves an output on purpose
writes the file again and gives the reason.  ``tests/test_corpus.py`` checks the same outputs at the A-suite
tolerances, reading the file alone.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "tests" / "data" / "corpus.npz"
sys.path.insert(0, str(ROOT / "src"))

import weylgate as wg  # noqa: E402  (the checkout's sources, never an installed copy)
from weylgate import chamber  # noqa: E402
from weylgate.cartan import TOL_BASE, _fold_element, _fold_image, _raw_coords  # noqa: E402

SEED = 20261019
HAAR_GATES = 600
PLANS = 60  # over the first four specs
EXTRA_PLANS = 30  # over the last two
FLOW_KINDS = ("isotropic", "xy", "ising", "exchange", "josephson")
NAMED = ("identity", "cnot", "cz", "swap", "sqrtswap", "sqrtswap_inv", "iswap", "cu(0.3,0.2,0.1)")
VERTICES = ("O", "A1", "A2", "A3", "L", "M", "N", "P", "Q")
EPSILONS = (0.0, 1e-12, 1e-9, 1e-7)
PI = np.pi
INPUTS = ("gate_u", "fold_in", "big_in", "flow_t", "plan_custom", "plan_target", "plan_spec")
EDGE_C2 = (0.0, 0.3, PI / 4, 1.2, PI / 2)  # along L–A2, from L to A2
TWO_53 = 2.0**53


def _haar_u4(rng) -> np.ndarray:
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _su2(rng) -> np.ndarray:
    q = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
    return q / np.sqrt(np.linalg.det(q))


def _local(rng) -> np.ndarray:
    """A random SU(2)⊗SU(2) gate."""
    return np.kron(_su2(rng), _su2(rng))


def _dressed(rng, c) -> np.ndarray:
    return np.exp(2j * PI * rng.random()) * (_local(rng) @ wg.canonical_gate(c) @ _local(rng))


def _gates(rng, extra) -> np.ndarray:
    gates = [np.exp(2j * PI * rng.random()) * _haar_u4(rng) for _ in range(HAAR_GATES)]
    gates += [wg.named_gate(name) for name in NAMED]
    for name in VERTICES:
        vertex = getattr(chamber, f"VERTEX_{name}")
        for eps in EPSILONS:
            gates.append(_dressed(rng, vertex + eps * rng.uniform(-1.0, 1.0, 3)))
    for c1 in (1.7, 2.2, 2.9):  # c3 about TOL_BASE, c1 > π/2
        for c3 in (0.0, 0.5 * TOL_BASE, TOL_BASE, 2.0 * TOL_BASE, 1e-7):
            gates.append(_dressed(rng, [c1, 0.4, c3]))
    for c1 in (1.6, 2.0, 2.5, 3.0):  # on c1 + c2 = π
        gates.append(_dressed(rng, [c1, PI - c1, 0.3 * (PI - c1)]))
    for c2 in EDGE_C2:  # on the L–A2 edge, and beside it on the base and above it
        for c1, c3 in ((PI / 2, 0.0), (PI / 2 + 1e-9, 0.0), (PI / 2, 1e-9)):
            gates.append(_dressed(extra, [c1, c2, c3]))
    return np.array(gates)


def _fold_rows(rng, gates) -> np.ndarray:
    up, down = np.nextafter(PI, 4.0), np.nextafter(PI, 3.0)
    tb_up, tb_down = np.nextafter(TOL_BASE, 1.0), np.nextafter(TOL_BASE, 0.0)
    edges = [0.0, -0.0, 1e-17, -1e-17, PI, -PI, up, down, -up, -down, PI / 2, 2 * PI, 1e5, -1e5, 1e15]
    rows = [[a, b, c] for a in edges[:6] for b in edges[:6] for c in edges[:6]]
    rows += [[a, 0.3, c] for a in edges for c in edges]
    rows += [[c1, 0.4, c3] for c1 in (1.7, 2.9) for c3 in (tb_down, TOL_BASE, tb_up, -TOL_BASE)]
    rows += [[c1, PI - c1, c3] for c1 in (1.6, 2.0, PI / 2, PI) for c3 in (0.0, 0.2, -0.2)]
    rows += rng.uniform(-10.0, 10.0, size=(200, 3)).tolist()
    half, half_up = PI / 2, np.nextafter(PI / 2, 4.0)
    rows += [[c1, c2, c3] for c1 in (half, half_up, np.nextafter(half, 0.0)) for c2 in EDGE_C2
             for c3 in (0.0, -0.0, 1e-17, -1e-17, TOL_BASE)]
    below = np.nextafter(TWO_53, 0.0)
    rows += [[below, 0.3, 0.2], [-below, below, 0.0], [2.0**52 + 0.5, -below, 1.0], [below, below, below]]
    raw = _raw_coords(np.array([wg.m_spectrum(u).theta_balanced for u in gates]))
    return np.concatenate([np.array(rows, dtype=float), raw])


def _couplings(rng, count) -> list[np.ndarray]:
    """``count`` seeded two-body Hamiltonians whose Cartan coefficients clear 0.05."""
    paulis = [wg.PAULIS[a] for a in "xyz"]
    out = []
    while len(out) < count:
        c = rng.uniform(-1.0, 1.0, size=(3, 3))
        if np.linalg.svd(c, compute_uv=False).min() >= 0.05:
            out.append(0.5 * sum(c[a, b] * np.kron(paulis[a], paulis[b]) for a in range(3) for b in range(3)))
    return out


def _big_rows() -> np.ndarray:
    """Triples just below 2^53, where canonicalize folds, and at or past it, where it raises."""
    below = np.nextafter(TWO_53, 0.0)
    return np.array([
        [below, 0.3, 0.2], [-below, 1.0, 0.5], [2.0**52 + 0.5, below, -below], [1e15, 2.0**52, 0.1],
        [TWO_53, 0.3, 0.2], [0.3, -TWO_53, 0.2], [0.1, 0.2, np.nextafter(TWO_53, 1e17)], [1e16, 0.0, 0.0],
    ])


def build_inputs() -> dict[str, np.ndarray]:
    rng, extra = np.random.default_rng(SEED), np.random.default_rng(SEED + 1)
    gates = _gates(rng, extra)
    far = [-1.5, 3e4, 2e5, 1e6]
    flow_t = np.array([np.concatenate([np.linspace(0.0, 2.2 * PI, 96), far]) for _ in FLOW_KINDS])
    return {
        "gate_u": gates,
        "fold_in": _fold_rows(rng, gates),
        "big_in": _big_rows(),
        "flow_t": flow_t,
        "plan_custom": np.array(_couplings(rng, 2) + _couplings(extra, 2)),
        "plan_target": np.array([_haar_u4(rng) for _ in range(PLANS)] + [_haar_u4(extra) for _ in range(EXTRA_PLANS)]),
        "plan_spec": np.concatenate([np.arange(PLANS) % 4, 4 + np.arange(EXTRA_PLANS) % 2]),
    }


def _flow_spec(kind: str):
    if kind == "exchange":
        return wg.HamiltonianSpec.exchange(1.0, 0.5, 0.2, 0.0)
    if kind == "josephson":
        return wg.HamiltonianSpec.josephson(1.2)
    return getattr(wg.HamiltonianSpec, kind)()


def _nan(shape, dtype=float) -> np.ndarray:
    return np.full(shape, np.nan, dtype=dtype)


def _canonicalized(c):
    """canonicalize(c), or None where it raises InvalidInputError."""
    try:
        return wg.canonicalize(c)
    except wg.InvalidInputError:
        return None


def compute(inp: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Every output of the corpus from its inputs."""
    rows = []
    for u in inp["gate_u"]:
        inv = wg.local_invariants(u)
        d = wg.kak_decompose(u)
        v = wg.is_perfect_entangler(u)
        witness = wg.entangling_input(u) if v.is_pe and v.weights is not None else (_nan(4, complex),) * 2
        rows.append({
            "gate_g1": inv.g1, "gate_g2": inv.g2, "gate_g2_residual": inv.g2_imag_residual,
            "gate_coords": wg.gate_coords(u),
            "kak_alpha": d.alpha, "kak_k1": d.k1, "kak_k2": d.k2, "kak_coords": d.coords,
            "kak_a_factor": d.a_factor, "kak_residual": d.residual,
            "pe_is_pe": v.is_pe, "pe_margin": v.margin, "pe_phases": v.phases,
            "pe_weights": _nan(4) if v.weights is None else v.weights,
            "witness_in": witness[0], "witness_out": witness[1],
        })
    result = {k: np.array([row[k] for row in rows]) for k in rows[0]}

    haar = zip(result["kak_k1"][:HAAR_GATES], result["kak_k2"][:HAAR_GATES])
    factors = [[wg.factor_local(k) for k in pair] for pair in haar]
    for field in ("a", "b", "phase"):
        result[f"local_{field}"] = np.array([[getattr(f, field) for f in pair] for pair in factors])

    big = [_canonicalized(c) for c in inp["big_in"]]
    result["big_canon"] = np.array([_nan(3) if c is None else c for c in big])
    result["big_raises"] = np.array([c is None for c in big])

    result["fold_image"] = _fold_image(inp["fold_in"])
    result["fold_p"], result["fold_n"] = _fold_element(inp["fold_in"], result["fold_image"])

    tables = [wg.trajectory(_flow_spec(kind), t) for kind, t in zip(FLOW_KINDS, inp["flow_t"])]
    for col in ("coords", "g1", "g2", "g2_imag_residual", "is_pe"):
        result[f"flow_{col}"] = np.array([getattr(table, col) for table in tables])

    specs = [wg.HamiltonianSpec.isotropic(), wg.HamiltonianSpec.exchange(1.0, 0.5, 0.2, 0.0)]
    specs += [wg.HamiltonianSpec.custom(h) for h in inp["plan_custom"]]
    plans = {k: [] for k in ("plan_times", "plan_locals", "plan_rewritten", "plan_nn_times", "plan_nn_locals")}
    for target, s in zip(inp["plan_target"], inp["plan_spec"]):
        plan = wg.synthesize(target, specs[s])
        nn = wg.with_nonnegative_times(plan)
        plans["plan_times"].append(plan.times)
        plans["plan_locals"].append(plan.locals)
        plans["plan_rewritten"].append(nn is not None)
        plans["plan_nn_times"].append(_nan(3) if nn is None else nn.times)
        plans["plan_nn_locals"].append(_nan((4, 4, 4), complex) if nn is None else nn.locals)
    result |= {k: np.array(v) for k, v in plans.items()}
    return result


def check(stored: dict[str, np.ndarray]) -> int:
    """Recompute from the stored inputs; print one line per output field.
    Returns the number of fields that are not bit-identical."""
    fresh = compute({k: stored[k] for k in INPUTS})
    bad = 0
    for key in sorted(fresh):
        a, b = stored[key], fresh[key]
        if a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes():
            print(f"{key:20s} identical ({a.shape[0]} rows)")
            continue
        bad += 1
        if a.shape != b.shape or a.dtype != b.dtype:
            print(f"{key:20s} DIFFERS: {a.dtype}{a.shape} stored, {b.dtype}{b.shape} now")
            continue
        rows = (a.reshape(len(a), -1).view(np.uint8) != b.reshape(len(b), -1).view(np.uint8)).any(-1)
        worst = np.nanmax(np.abs(a.astype(complex) - b.astype(complex))) if a.dtype != bool else 1
        print(f"{key:20s} DIFFERS in {rows.sum()} of {len(a)} rows, max |diff| {worst:.3e}")
    print("all fields bit-identical" if not bad else f"{bad} fields differ")
    return bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true", help="compare against the stored corpus")
    args = parser.parse_args(argv)
    if args.check:
        with np.load(CORPUS) as data:
            return 1 if check(dict(data)) else 0
    inp = build_inputs()
    CORPUS.parent.mkdir(exist_ok=True)
    np.savez_compressed(CORPUS, **inp, **compute(inp))
    print(f"wrote {CORPUS.relative_to(ROOT)} ({CORPUS.stat().st_size} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
