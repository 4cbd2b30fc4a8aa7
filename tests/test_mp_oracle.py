"""Canonical coordinates, local invariants and the perfect-entangler verdict
against a 40-digit oracle.

The corpus records what the library returned, and the scipy oracles run the
same double-precision LAPACK: neither says how far an answer is from the true
one.  Here mpmath carries 40 significant digits through the paper's route
(Sec. III, the spectrum of m gives the coordinates): m = U_Bᵀ·U_B with U_B
in the magic basis, scaled to det 1, its eigenvalues (``mp.eig``), their
phases balanced to sum zero, the raw coordinates and the fold to the chamber
point, as ``gate_coords`` reads them; g1 = tr²m / (16 det U),
g2 = Re (tr²m - tr m²) / (4 det U); and the hull margin cos(g/2), g the
widest gap between the sorted phases.  The double-precision input is taken as
exact, so the difference is the library's forward error (Higham, *Accuracy
and Stability of Numerical Algorithms*, 2nd ed., SIAM 2002, ch. 1).

The inputs are a fixed slice of the corpus gates: the first 100 Haar rows,
and the nine chamber vertices dressed with random locals at ε = 0, 1e-12,
1e-9 and 1e-7.  Each output must lie within 1e-13 of the oracle; the worst
measured over all 600 Haar rows and the 36 dressed vertices is 6.7e-16 on
the coordinates, 1.0e-15 on g1 and 3.1e-15 on g2, all on this slice.  The
perfect entanglers' witness states, taken as exact, have their Ent formed at
40 digits.

The Hamiltonian side is checked the same way, each bound stated beside its
check: U(t) of the corpus's five flow couplings against ``mp.expm(i·H·t)``,
the certified closed-form rows of the two-body and Josephson flows against
the oracle of that 40-digit U(t), with the certificate's soundness on them,
``solve_times`` against ``mp.lu_solve`` on a slice of the corpus plans, and
the Josephson CNOT root against ``mp.findroot`` of its 40-digit condition and
the 40-digit invariants of exp(iHt) at the returned (α, t).
"""

from functools import lru_cache
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import weylgate as wg
from conftest import certified_bound
from weylgate import chamber, hamflow
from weylgate.cartan import _TOL_CHAMBER, TOL_BASE
from weylgate.invariants import _gate

with np.load(Path(__file__).resolve().parent / "data" / "corpus.npz") as _file:
    GATES, FLOW_T, PLAN_TARGET, PLAN_SPEC, PLAN_CUSTOM = (
        _file[k] for k in ("gate_u", "flow_t", "plan_target", "plan_spec", "plan_custom")
    )

BOUND = 1e-13
HAAR = 100  # of the corpus's 600 Haar rows, which come first
# After the Haar rows and the eight named gates: each vertex at each ε.
VERTICES = ("O", "A1", "A2", "A3", "L", "M", "N", "P", "Q")
EPSILONS = (0.0, 1e-12, 1e-9, 1e-7)
FIRST_VERTEX_ROW = 608
ROWS = {f"haar{i}": i for i in range(HAAR)} | {
    f"{v}-{eps:g}": FIRST_VERTEX_ROW + len(EPSILONS) * j + k
    for j, v in enumerate(VERTICES)
    for k, eps in enumerate(EPSILONS)
}
DIGITS = 40


def _fold(c):
    """The chamber point of raw coordinates ``c``: the moves of
    ``cartan._fold_image``, then magnitudes sorted descending."""
    pi = mp.pi
    c = sorted((x - pi * mp.floor(x / pi) for x in c), reverse=True)
    if c[0] + c[1] > pi:
        c = sorted([pi - c[1], pi - c[0], c[2]], reverse=True)
    if c[2] <= TOL_BASE and c[0] > pi / 2 + _TOL_CHAMBER:
        c = [pi - c[0], c[1], -c[2]]
    return sorted((abs(x) for x in c), reverse=True)


def _invariants(u):
    """(m, det U, g1, g2) of an mpmath matrix ``u``, at the working precision."""
    q = mp.matrix(np.rint(np.sqrt(2.0) * wg.MAGIC).tolist()) / mp.sqrt(2)  # exact
    ub = q.H * u * q
    m = ub.T * ub
    det = mp.det(u)
    tr, tr_m2 = (sum(x[i, i] for i in range(4)) for x in (m, m * m))
    return m, det, tr * tr / (16 * det), ((tr * tr - tr_m2) / (4 * det)).real


def _oracle(u):
    """(chamber point, g1, g2, hull margin) of ``u`` at DIGITS significant digits."""
    with mp.workdps(DIGITS):
        return _oracle_of(mp.matrix(u.tolist()))


def _oracle_of(u):
    """_oracle of an mpmath matrix ``u``, at the working precision."""
    m, det, g1, g2 = _invariants(u)
    # e^{-2iα}·m is m of the det-one gate e^{-iα}·U, α = arg(det U)/4.
    scaled = mp.exp(-1j * mp.arg(det) / 2) * m
    theta = sorted(mp.arg(z) for z in mp.eig(scaled, left=False, right=False))
    gaps = [b - a for a, b in zip(theta, theta[1:] + [theta[0] + 2 * mp.pi])]
    margin = mp.cos(max(gaps) / 2)
    # Phases summing to 2πk: the k largest lose 2π, or the -k smallest gain it.
    k = int(mp.nint(sum(theta) / (2 * mp.pi)))
    if k > 0:
        theta = theta[: 4 - k] + [t - 2 * mp.pi for t in theta[4 - k :]]
    elif k < 0:
        theta = [t + 2 * mp.pi for t in theta[:-k]] + theta[-k:]
    raw = [(theta[0] + theta[1]) / 2, (theta[1] + theta[3]) / 2, (theta[0] + theta[3]) / 2]
    return _fold(raw), g1, g2, margin


@pytest.mark.parametrize("row", ROWS.values(), ids=ROWS.keys())
def test_coordinates_and_invariants_match_the_oracle(row):
    # The margin's worst measured error is 4.3e-16, on this slice.
    u = GATES[row]
    coords, g1, g2, margin = _oracle(u)
    inv = wg.local_invariants(u)
    assert np.abs(wg.gate_coords(u) - np.array(coords, dtype=float)).max() <= BOUND
    assert abs(inv.g1 - complex(g1)) <= BOUND
    assert abs(inv.g2 - float(g2)) <= BOUND
    assert abs(wg.is_perfect_entangler(u).margin - float(margin)) <= BOUND


def test_witness_states_match_the_oracle():
    # The library's states, taken as exact, with Ent(ψ) = ψᵀ·P·ψ formed at
    # 40 digits (P's entries are 0 and ±1/2, exact).  |Ent(ψ_in)| is
    # |Σ w·z|/2: 0, or in the margin band, where the weights are ½ and ½ on
    # the ends of the widest gap g, |cos(g/2)|/2, half the margin checked
    # above.  |Ent(ψ_out)| is 1/2, ``ent`` is the 40-digit form, and ψ_out is
    # the 40-digit U·ψ_in.  Measured at most 3.9e-16, 7.3e-16, 7.3e-17 and
    # 1.4e-16 over the 110 perfect entanglers of the slice, 17 in the band.
    checked = 0
    for row in ROWS.values():
        u = GATES[row]
        verdict = wg.is_perfect_entangler(u)
        if verdict.weights is None:
            continue
        in_band = verdict.margin <= wg.entangler.TOL_HULL
        states = wg.entangling_input(u)
        with mp.workdps(DIGITS):
            p = mp.matrix(wg.P_ENT.tolist())
            x, y = (mp.matrix(psi.tolist()) for psi in states)
            ent_in, ent_out = ((v.T * p * v)[0] for v in (x, y))
            image = mp.matrix(u.tolist()) * x
            errors = (
                abs(abs(ent_in) - (abs(verdict.margin) / 2 if in_band else 0)),
                abs(abs(ent_out) - mp.mpf(1) / 2),
                *(abs(wg.ent(psi) - e) for psi, e in zip(states, (ent_in, ent_out))),
                max(abs(image[i] - y[i]) for i in range(4)),
            )
        assert max(errors) <= BOUND, row
        checked += 1
    assert checked == 110


def _kak_errors(u):
    """(α error, 40-digit residual, residual error) of ``kak_decompose(u)``,
    its factors taken as exact.  α is arg(det U)/4 at 40 digits minus
    (π/2)·Σn for the fold's translation n, and the difference is wrapped to
    (-π, π]; the residual is ‖U - e^{iα}·k1·A(c)·k2‖_F at 40 digits."""
    d = wg.kak_decompose(u)
    n = _gate(u).fold[2]
    with mp.workdps(DIGITS):
        alpha = mp.arg(mp.det(mp.matrix(u.tolist()))) / 4 - mp.pi / 2 * int(n.sum())
        miss = alpha - mp.mpf(d.alpha)
        miss -= 2 * mp.pi * mp.nint(miss / (2 * mp.pi))
        k1, a, k2 = (mp.matrix(x.tolist()) for x in (d.k1, d.a_factor, d.k2))
        rest = mp.matrix(u.tolist()) - mp.expj(mp.mpf(d.alpha)) * k1 * a * k2
        residual = mp.sqrt(sum(abs(z) ** 2 for z in rest))
        return float(abs(miss)), float(residual), float(abs(residual - d.residual))


def test_kak_phase_and_residual_match_the_oracle():
    # Measured at most 3.4e-16 on α and 1.9e-16 on the residual, whose
    # 40-digit value is at most 3.6e-14, over the slice.
    for row in ROWS.values():
        alpha_error, residual, residual_error = _kak_errors(GATES[row])
        assert max(alpha_error, residual_error) <= BOUND, row
        assert residual <= 1e-9, row


def test_undressed_vertex_rows_are_the_vertices():
    # The slice reads the rows it names: at ε = 0 each dressed vertex is its
    # vertex's chamber point.
    for j, vertex in enumerate(VERTICES):
        u = GATES[FIRST_VERTEX_ROW + len(EPSILONS) * j]
        target = wg.canonicalize(getattr(chamber, f"VERTEX_{vertex}"))
        assert np.abs(wg.gate_coords(u) - target).max() <= 1e-12, vertex


# ---------------------------------------------------------------------------
# The Hamiltonian side: flows, pulse times and the Josephson root

# The corpus's flow couplings, in the order of its flow rows.
FLOW_SPECS = {
    "isotropic": wg.HamiltonianSpec.isotropic(),
    "xy": wg.HamiltonianSpec.xy(),
    "ising": wg.HamiltonianSpec.ising(),
    "exchange": wg.HamiltonianSpec.exchange(1.0, 0.5, 0.2, 0.0),
    "josephson": wg.HamiltonianSpec.josephson(1.2),
}
NEAR = slice(0, 96, 10)  # ten of each row's 96 times on [0, 2.2π]
FAR = slice(97, 100)  # 3e4, 2e5 and 1e6: 1e6 past the certified reach of every coupling but ising
FAR_ULPS = 8  # measured at most 1.9 units of ε·‖H‖_max·|t|
PLAN_SPECS = [wg.HamiltonianSpec.isotropic(), wg.HamiltonianSpec.exchange(1.0, 0.5, 0.2, 0.0)]
PLAN_SPECS += [wg.HamiltonianSpec.custom(h) for h in PLAN_CUSTOM]
PLANS = range(0, len(PLAN_TARGET), 3)  # 30 of the 90 plans, every coupling among them


def _flow_error(spec, t):
    """max |U(t) - exp(i·H·t)| over the entries, with the library's H taken as exact."""
    h = wg.realize(spec)
    with mp.workdps(DIGITS):
        want = mp.expm(1j * mp.matrix(h.tolist()) * mp.mpf(float(t)))
        miss = want - mp.matrix(wg.expm_i_hermitian(h, t).tolist())
        return float(max(abs(z) for row in miss.tolist() for z in row))


@pytest.mark.parametrize("kind", FLOW_SPECS)
def test_flow_matches_the_oracle(kind):
    # Measured at most 3.6e-15 at the near times.  At a far time the phases
    # w·t round at ε·‖H‖·|t|, so each is bounded by that on its own: at
    # most 5.9e-10 there, on josephson at t = 1e6, inside the A-suite's 1e-8.
    spec, times = FLOW_SPECS[kind], FLOW_T[list(FLOW_SPECS).index(kind)]
    for t in times[NEAR]:
        assert _flow_error(spec, t) <= BOUND, t
    scale = np.abs(wg.realize(spec)).max() * np.finfo(float).eps
    for t in times[FAR]:
        assert _flow_error(spec, t) <= FAR_ULPS * scale * abs(t), t


TWO_BODY_FLOWS = [kind for kind in FLOW_SPECS if kind != "josephson"]


@lru_cache(maxsize=None)
def _certified_rows(kind):
    """The certified rows of a corpus flow among its NEAR and FAR times: per
    row, (index, t, the library's table, the 40-digit chamber point, g1 and
    g2 of exp(i·H·t), and the distance between the table's invariants and those)."""
    spec, times = FLOW_SPECS[kind], FLOW_T[list(FLOW_SPECS).index(kind)]
    table, h = wg.trajectory(spec, times), wg.realize(spec)
    rows = []
    for i in (*range(96)[NEAR], *range(100)[FAR]):
        if abs(times[i]) > spec._generator.reach:
            continue
        with mp.workdps(DIGITS):
            coords, g1, g2, _ = _oracle_of(mp.expm(1j * mp.matrix(h.tolist()) * mp.mpf(float(times[i]))))
            dist = mp.sqrt(abs(mp.mpc(table.g1[i]) - g1) ** 2 + (mp.mpf(table.g2[i]) - g2) ** 2)
        rows.append((i, times[i], table, np.array(coords, dtype=float), complex(g1), float(g2), float(dist)))
    return rows


@pytest.mark.parametrize("kind", FLOW_SPECS)
def test_certified_flow_rows_match_the_oracle(kind):
    # A certified row is the fold of t·c, or of the Josephson raw
    # coordinates, and the closed form of its point, with no U(t).  Measured
    # at most 8.2e-15 at the near times (g2 on exchange).  At a far time, 3e4
    # on each coupling, 2e5 on all but josephson and 1e6 on ising, the
    # rounding of the raw coordinates and of their fold's mod π grows with
    # |t|, so each is bounded as U(t) is there: at most 4.8 units of
    # ε·‖H‖_max·|t| (g2 on isotropic at t = 3e4, 1.6e-11).  On josephson,
    # at most 1.3e-15 at the near times and 0.86 units (8.3e-12) at 3e4.
    rows = _certified_rows(kind)
    far = {"josephson": [97], "ising": [97, 98, 99]}.get(kind, [97, 98])
    assert [i for i, *_ in rows] == [*range(96)[NEAR], *far]
    scale = np.abs(wg.realize(FLOW_SPECS[kind])).max() * np.finfo(float).eps
    for i, t, table, coords, g1, g2, _ in rows:
        errors = np.abs(table.coords[i] - coords).max(), abs(table.g1[i] - g1), abs(table.g2[i] - g2)
        assert max(errors) <= (BOUND if i < 96 else FAR_ULPS * scale * abs(t)), t


@pytest.mark.parametrize("kind", FLOW_SPECS)
def test_certificate_bounds_the_oracle_distance(kind):
    # The certificate is sound on every row it covers: the 40-digit distance
    # between the row's invariants and those of exp(i·H·t) is at most the
    # row's bound, |t|·slope + _FLOOR; measured at most 0.0121 of it, and
    # 0.0013 on josephson.  The measured δ of a two-body coupling,
    # slope/L - ‖c‖₁·_ROUND_LINE, holds the 40-digit residual
    # ‖H - e0·I - k†·A_H(c)·k‖_F of the Cartan form, k taken as exact; the
    # Josephson closed form is that of H itself.
    g = FLOW_SPECS[kind]._generator
    for _, t, _, _, _, _, dist in _certified_rows(kind):
        assert dist <= certified_bound(g, t), t
    if kind not in TWO_BODY_FLOWS:
        return
    c, k = g.two_body.coeffs, g.two_body.k
    with mp.workdps(DIGITS):
        h = mp.matrix(g.h.tolist())
        # A_H(c) = Σ c_j·σjσj/2 at 40 digits, the words' entries 0, ±1: exact.
        words = (np.kron(p, p) for p in (wg.PAULIS["x"], wg.PAULIS["y"], wg.PAULIS["z"]))
        a = sum((mp.mpf(float(cj)) * mp.matrix(w.tolist()) for cj, w in zip(c, words)), mp.zeros(4)) / 2
        km = mp.matrix(k.tolist())
        rest = h - (sum(h[j, j] for j in range(4)) / 4) * mp.eye(4) - km.H * a * km
        residual = mp.sqrt(sum(abs(z) ** 2 for z in rest))
    assert float(residual) <= g.slope / hamflow._L - np.abs(c).sum() * hamflow._ROUND_LINE


def test_pulse_times_match_the_oracle():
    # M·t = γ with M written from the paper's frames, solved by LU at 40
    # digits; measured at most 2.6e-16 over the 30 plans.
    for row in PLANS:
        c = wg.cartan_conjugate(wg.realize(PLAN_SPECS[PLAN_SPEC[row]])).coeffs
        gamma = wg.kak_decompose(PLAN_TARGET[row]).coords
        with mp.workdps(DIGITS):
            c1, c2, c3 = (mp.mpf(float(x)) for x in c)
            m = mp.matrix([[c1, -c3, c3], [c2, -c1, -c2], [c3, c2, -c1]])
            want = np.array(mp.lu_solve(m, mp.matrix(gamma.tolist())).tolist(), dtype=float)
        assert np.abs(wg.solve_times(c, gamma) - want.ravel()).max() <= BOUND


def test_josephson_root_matches_the_oracle():
    # α is the root of the 40-digit f on the returned pulse count, and the
    # 40-digit exp(iHt) at the returned (α, t) is CNOT-class: G1 = 0, G2 = 1.
    # Measured 3.7e-16 on α, 4.9e-32 on |G1| and 1.9e-30 on |G2 - 1|: both
    # vanish to second order in the miss of (α, t).
    root = wg.josephson_cnot_min_time()
    with mp.workdps(DIGITS):
        q = root.pulse_index * mp.pi / 4
        alpha = mp.findroot(
            lambda a: 2 * a**2 * mp.cos(mp.sqrt(1 + a**-2) * q) ** 2 - (a**2 - 1),
            mp.mpf(root.alpha_ratio),
        )
        a = mp.mpf(root.alpha_ratio)
        # Integer matrices, exact: x1 + x2 and σyσy.
        x, y, eye = wg.PAULIS["x"], wg.PAULIS["y"], np.eye(2)
        h = -(a / 2) * mp.matrix((np.kron(x, eye) + np.kron(eye, x)).tolist())
        h += a * a * mp.matrix(np.kron(y, y).tolist())
        _, _, g1, g2 = _invariants(mp.expm(1j * h * mp.mpf(root.t)))
        errors = abs(alpha - a), abs(g1), abs(g2 - 1)
    assert max(errors) <= BOUND
