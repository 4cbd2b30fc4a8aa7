"""The analysis chain against the committed differential corpus.

``tests/data/corpus.npz`` holds fixed inputs and the outputs the library gave
for them (``tools/corpus.py`` writes it and, with ``--check``, reports
bit-identity field by field).  Here the outputs are checked at the A-suite
tolerances: the invariants at 1e-10, chamber points and trajectories at
1e-8, KAK and witnesses at 1e-9, plans at 1e-8.  The fields that turn with
LAPACK's eigenvector signs and orderings (k1, k2, α, the weights, the
witness states, the plan locals and the tensor factors of k1 and k2) are
checked by their defining properties instead: reconstruction, locality, the
hull and Ent conditions, the plan product against its target, and
e^{iφ}·(a ⊗ b) against the factor.
"""

from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import weylgate as wg
from conftest import assert_same_chamber_point

with np.load(Path(__file__).resolve().parent / "data" / "corpus.npz") as _file:
    CORPUS = dict(_file)

GATES = range(len(CORPUS["gate_u"]))
PI = np.pi
EDGE_C2 = (0.0, 0.3, PI / 4, 1.2, PI / 2)  # the last 15 gates: three per point of the L–A2 edge
FLOWS = {
    "isotropic": wg.HamiltonianSpec.isotropic,
    "xy": wg.HamiltonianSpec.xy,
    "ising": wg.HamiltonianSpec.ising,
    "exchange": lambda: wg.HamiltonianSpec.exchange(1.0, 0.5, 0.2, 0.0),
    "josephson": lambda: wg.HamiltonianSpec.josephson(1.2),
}


def _ent(psi) -> complex:
    return complex(psi @ wg.P_ENT @ psi)


def test_corpus_is_small_and_covers_the_chain():
    assert (Path(__file__).resolve().parent / "data" / "corpus.npz").stat().st_size < 1 << 20
    assert len(CORPUS["gate_u"]) >= 600 and len(CORPUS["plan_target"]) == 90
    assert len(CORPUS["plan_custom"]) == 4 and (np.bincount(CORPUS["plan_spec"]) == 15).all()
    assert CORPUS["local_a"].shape == (600, 2, 2, 2)
    assert CORPUS["big_raises"].any() and not CORPUS["big_raises"].all()
    assert CORPUS["flow_t"].shape == (len(FLOWS), 100)
    assert CORPUS["pe_is_pe"].any() and not CORPUS["pe_is_pe"].all()
    assert CORPUS["plan_rewritten"].any() and not CORPUS["plan_rewritten"].all()


def test_gate_invariants_and_coordinates():
    for i in GATES:
        u = CORPUS["gate_u"][i]
        inv = wg.local_invariants(u)
        assert abs(inv.g1 - CORPUS["gate_g1"][i]) < 1e-10, i
        assert abs(inv.g2 - CORPUS["gate_g2"][i]) < 1e-10, i
        assert abs(inv.g2_imag_residual - CORPUS["gate_g2_residual"][i]) < 1e-10, i
        assert_same_chamber_point(wg.gate_coords(u), CORPUS["gate_coords"][i], 1e-8)


def test_kak_fields_and_properties():
    for i in GATES:
        u = CORPUS["gate_u"][i]
        d = wg.kak_decompose(u)
        assert_same_chamber_point(
            wg.canonicalize(d.coords), wg.canonicalize(CORPUS["kak_coords"][i]), 1e-8
        )
        assert_allclose(d.a_factor, wg.canonical_gate(d.coords), atol=1e-12)
        assert d.residual <= 1e-9 and CORPUS["kak_residual"][i] <= 1e-9
        assert np.linalg.norm(wg.kak_reconstruct(d) - u) <= 1e-9, i
        assert wg.is_local_gate(d.k1) and wg.is_local_gate(d.k2), i
        stored = wg.KakDecomposition(
            alpha=float(CORPUS["kak_alpha"][i]),
            k1=CORPUS["kak_k1"][i],
            k2=CORPUS["kak_k2"][i],
            coords=CORPUS["kak_coords"][i],
            a_factor=CORPUS["kak_a_factor"][i],
            residual=float(CORPUS["kak_residual"][i]),
        )
        assert np.linalg.norm(wg.kak_reconstruct(stored) - u) <= 1e-9, i


def test_factor_local_of_the_kak_factors():
    # a and b have det 1 and e^{iφ}·(a ⊗ b) is the factor, both as stored and
    # from a fresh factor_local of the stored factor.
    for i in range(len(CORPUS["local_a"])):
        for j, k in enumerate((CORPUS["kak_k1"][i], CORPUS["kak_k2"][i])):
            f = wg.factor_local(k)
            stored = (CORPUS["local_a"][i, j], CORPUS["local_b"][i, j], CORPUS["local_phase"][i, j])
            for a, b, phase in ((f.a, f.b, f.phase), stored):
                assert abs(np.linalg.det(a) - 1) <= 1e-12 and abs(np.linalg.det(b) - 1) <= 1e-12, i
                assert np.linalg.norm(np.exp(1j * phase) * np.kron(a, b) - k) <= 1e-9, i


def test_l_a2_edge_rows():
    # Dressed at (π/2, c2, 0), at c1 = π/2 + 1e-9 (the base mirror's side) and at c3 = 1e-9.
    edge = CORPUS["gate_coords"][-3 * len(EDGE_C2):]
    want = np.array([[PI / 2, c2, 0.0] for c2 in EDGE_C2 for _ in range(3)])
    assert_allclose(edge, want, rtol=0.0, atol=1e-8)


def test_coordinates_near_two_to_the_53():
    for c, raises, want in zip(CORPUS["big_in"], CORPUS["big_raises"], CORPUS["big_canon"]):
        if raises:
            with pytest.raises(wg.InvalidInputError):
                wg.canonicalize(c)
            continue
        got = wg.canonicalize(c)
        assert_allclose(got, want, rtol=0.0, atol=1e-12)
        assert wg.in_chamber(got)


def test_pe_verdict_and_witness():
    for i in GATES:
        u = CORPUS["gate_u"][i]
        v = wg.is_perfect_entangler(u)
        assert abs(v.margin - CORPUS["pe_margin"][i]) <= 1e-9, i
        if abs(v.margin + wg.entangler.TOL_HULL) > 1e-12:  # not within rounding of the band's edge
            assert v.is_pe == CORPUS["pe_is_pe"][i], i
        # The phases as a set: each stored phase has a match, and each new one.
        gap = np.abs(v.phases[:, None] - CORPUS["pe_phases"][i][None, :])
        assert gap.min(0).max() <= 1e-9 and gap.min(1).max() <= 1e-9, i
        assert (v.weights is None) == np.isnan(CORPUS["pe_weights"][i]).any(), i
        if v.weights is None:
            continue
        for w, z in ((v.weights, v.phases), (CORPUS["pe_weights"][i], CORPUS["pe_phases"][i])):
            assert w.min() >= 0.0 and abs(w.sum() - 1.0) <= 1e-9 and abs(w @ z) <= 1e-9, i
        fresh = wg.entangling_input(u)
        for psi_in, psi_out in (fresh, (CORPUS["witness_in"][i], CORPUS["witness_out"][i])):
            assert abs(np.linalg.norm(psi_in) - 1.0) <= 1e-9, i
            assert np.linalg.norm(u @ psi_in - psi_out) <= 1e-9, i
            assert abs(_ent(psi_in)) < 1e-9 and abs(abs(_ent(psi_out)) - 0.5) < 1e-9, i


def test_fold_rows():
    image = wg.cartan._fold_image(CORPUS["fold_in"])
    assert_allclose(image, CORPUS["fold_image"], rtol=0.0, atol=1e-12)
    p, n = wg.cartan._fold_element(CORPUS["fold_in"], image)
    assert (p == CORPUS["fold_p"]).all() and (n == CORPUS["fold_n"]).all()


@pytest.mark.parametrize("k, kind", list(enumerate(FLOWS)))
def test_trajectory_columns(k, kind):
    table = wg.trajectory(FLOWS[kind](), CORPUS["flow_t"][k])
    assert_allclose(table.g1, CORPUS["flow_g1"][k], rtol=0.0, atol=1e-8)
    assert_allclose(table.g2, CORPUS["flow_g2"][k], rtol=0.0, atol=1e-8)
    assert_allclose(table.g2_imag_residual, CORPUS["flow_g2_imag_residual"][k], rtol=0.0, atol=1e-8)
    assert (table.is_pe == CORPUS["flow_is_pe"][k]).all()
    for got, want in zip(table.coords, CORPUS["flow_coords"][k]):
        assert_same_chamber_point(got, want, 1e-8)


def _specs():
    return [
        wg.HamiltonianSpec.isotropic(),
        wg.HamiltonianSpec.exchange(1.0, 0.5, 0.2, 0.0),
        *(wg.HamiltonianSpec.custom(h) for h in CORPUS["plan_custom"]),
    ]


def _assert_plan(plan, target):
    assert all(wg.factor_local(k) is not None for k in plan.locals)  # raises when not local
    assert wg.verify_plan(plan, target) <= 1e-8


def test_plans_and_their_rewrites():
    specs = _specs()
    for i, (target, s) in enumerate(zip(CORPUS["plan_target"], CORPUS["plan_spec"])):
        plan = wg.synthesize(target, specs[s])
        assert_allclose(plan.times, CORPUS["plan_times"][i], rtol=0.0, atol=1e-8)
        _assert_plan(plan, target)
        stored = wg.CircuitPlan(tuple(CORPUS["plan_locals"][i]), tuple(CORPUS["plan_times"][i]), specs[s])
        _assert_plan(stored, target)
        nn = wg.with_nonnegative_times(plan)
        assert (nn is not None) == CORPUS["plan_rewritten"][i], i
        if nn is None:
            continue
        assert min(nn.times) >= 0.0
        assert_allclose(nn.times, CORPUS["plan_nn_times"][i], rtol=0.0, atol=1e-8)
        _assert_plan(nn, target)
        stored = wg.CircuitPlan(tuple(CORPUS["plan_nn_locals"][i]), tuple(CORPUS["plan_nn_times"][i]), specs[s])
        _assert_plan(stored, target)
