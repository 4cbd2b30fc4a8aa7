"""The stacked cores: a stack of gates gives, row by row, what one gate gives.

``trajectory`` runs all of its times through the ``(..., 4, 4)`` cores in one
pass.  The reference here is the per-point loop it ran before: U(t) for one
t at a time, through the public single-gate functions.  A row read from the
spectrum, as that loop reads it, matches it bit for bit, with invariants
within 1e-14.  A two-body or Josephson row within the certificate's reach
is a fold in closed form: its coordinates match within 1e-12, and its g1
and g2 are the closed form of its own point, bit for bit, within the row's
certified bound of the loop's (tests/test_closed_form.py).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

import weylgate as wg
from conftest import PI, PROPERTY, assert_same_chamber_point, certified_bound, gate_at, rand_u4
from weylgate import HamiltonianSpec, chamber
from weylgate.chamber import VERTEX_A3, VERTEX_L, VERTEX_O, VERTEX_P, _gate_coords
from weylgate.invariants import _g_from_coords, _Gate, _spectrum_of_m
from weylgate.linalg import _SIMDIAG_WEIGHTS, TOL_EIG, _eigh, _simdiag

NAMED_KINDS = (
    HamiltonianSpec.isotropic(),
    HamiltonianSpec.xy(),
    HamiltonianSpec.ising(),
    HamiltonianSpec.exchange(1.0, 0.5, 0.2, 0.0),
    HamiltonianSpec.josephson(1.2),
)
couplings = st.lists(st.floats(-1.0, 1.0), min_size=9, max_size=9)
# A two-body coupling plus 0.5·σz⊗I: single-qubit terms of another shape than
# Josephson's, so every row reads the spectrum.
Z1 = np.kron(wg.PAULIS["z"], np.eye(2))
specs = st.one_of(
    st.sampled_from(NAMED_KINDS),
    couplings.map(lambda c: HamiltonianSpec.custom(wg.assemble_nonlocal(c))),
    couplings.map(lambda c: HamiltonianSpec.custom(wg.assemble_nonlocal(c) + 0.5 * Z1)),
)
# Multiples of π, t = 0 among them, ahead of a grid like the CLI's.
grids = st.tuples(st.floats(0.1, 4 * PI), st.integers(1, 40)).map(
    lambda g: np.concatenate([PI * np.arange(-2, 5), np.linspace(0.0, g[0], g[1])])
)


def per_point(spec, times):
    """The loop ``trajectory`` ran before the stacked cores, one U(t) at a time."""
    h = wg.realize(spec)
    out = []
    for t in times:
        u = wg.expm_i_hermitian(h, float(t))
        coords = wg.gate_coords(u)
        out.append((float(t), coords, wg.local_invariants(u), wg.pe_from_coords(coords)))
    return out


@settings(PROPERTY, max_examples=60)
@given(specs, grids)
def test_trajectory_matches_per_point_loop(spec, times):
    samples = wg.trajectory(spec, times)
    assert len(samples) == len(times)
    g = spec._generator
    folded = np.abs(times) <= g.reach
    reads_spectrum = g.josephson is None and g.two_body is None
    assert not folded.any() if reads_spectrum else folded.all()  # josephson's rows are folded too
    closed_g1, closed_g2 = _g_from_coords(samples.coords[folded])
    assert_array_equal(samples.g1[folded], closed_g1)
    assert_array_equal(samples.g2[folded], closed_g2)
    assert_array_equal(samples.g2_imag_residual[folded], 0.0)
    for i, (s, (t, coords, inv, is_pe)) in enumerate(zip(samples, per_point(spec, times))):
        assert s.t == t
        assert s.is_pe == is_pe
        # Built-in types: the CLI's json.dump rejects np.bool_.
        assert type(s.t) is float and type(s.is_pe) is bool
        assert type(s.invariants.g1) is complex
        assert type(s.invariants.g2) is float and type(s.invariants.g2_imag_residual) is float
        if folded[i]:
            assert_same_chamber_point(s.coords, coords, atol=1e-12)
            assert wg.invariant_distance(s.invariants, inv) <= certified_bound(g, t)
            continue
        assert_array_equal(s.coords, coords)
        assert abs(s.invariants.g1 - inv.g1) <= 1e-14
        assert abs(s.invariants.g2 - inv.g2) <= 1e-14
        assert abs(s.invariants.g2_imag_residual - inv.g2_imag_residual) <= 1e-14


def _gate_stack():
    """Haar gates with random phases, and dressed gates near chamber vertices."""
    rng = np.random.default_rng(11)
    gates = [rand_u4(rng) * np.exp(1j * rng.uniform(-PI, PI)) for _ in range(40)]
    for v in (VERTEX_O, VERTEX_L, VERTEX_P, VERTEX_A3):
        for eps in (0.0, 1e-9):
            gates.append(gate_at(v + eps * rng.standard_normal(3), rng, rng.uniform(-PI, PI)))
    return np.array(gates)


def _spectrum(u):
    """The spectrum of a stack (..., 4, 4) of checked gates, by the stacked cores."""
    return _Gate(u).spectrum


def test_stacked_spectrum_equals_row_by_row():
    stack = _gate_stack()
    spec = _spectrum(stack)
    shifted = np.rint(spec.theta.sum(axis=-1) / (2 * PI)) != 0
    assert 0 < shifted.sum() < len(stack)  # both sides of the balanced-phase branch
    for i, u in enumerate(stack):
        row = _spectrum(u)
        assert_array_equal(spec.theta[i], row.theta)
        assert_array_equal(spec.theta_balanced[i], row.theta_balanced)
        assert_array_equal(spec.frame[i], row.frame)


VERTICES = [getattr(chamber, f"VERTEX_{v}") for v in "O A1 A2 A3 L M N P Q".split()]
# A Haar gate (None) or a chamber vertex perturbed by eps, both dressed with a phase.
gate_recipes = st.tuples(
    st.one_of(st.none(), st.sampled_from(VERTICES)),
    st.sampled_from([0.0, 1e-12, 1e-9, 1e-6]),
    st.integers(0, 2**32 - 1),
)


def _recipe_gate(recipe):
    vertex, eps, seed = recipe
    rng = np.random.default_rng(seed)
    if vertex is None:
        return rand_u4(rng) * np.exp(1j * rng.uniform(-PI, PI))
    return gate_at(vertex + eps * rng.uniform(-1.0, 1.0, 3), rng, rng.uniform(-PI, PI))


def _scaled_u_spectrum(u):
    """Reference: the spectrum of m(e^{-iα}·U), the gate itself scaled to det 1."""
    alpha = np.angle(np.linalg.det(u)) / 4.0
    return _spectrum_of_m(_Gate(np.exp(-1j * alpha)[..., None, None] * u).m)


@settings(PROPERTY, max_examples=60)
@given(st.lists(gate_recipes, min_size=1, max_size=6))
def test_spectrum_of_scaled_m_matches_scaled_u(recipes):
    stack = np.array([_recipe_gate(r) for r in recipes])
    spec, ref = _spectrum(stack), _scaled_u_spectrum(stack)
    # A phase at ±π may land on either end of the principal branch, and the
    # 2π of the balancing may go to either of two tied phases.
    wrapped = np.angle(np.exp(1j * (spec.theta - ref.theta)))
    assert np.abs(wrapped).max() <= 1e-14
    balanced = np.sort(spec.theta_balanced, -1) - np.sort(ref.theta_balanced, -1)
    assert np.abs(balanced).max() <= 1e-14


def test_stacked_gate_coords_equal_row_by_row():
    stack = _gate_stack()
    coords, (g1, g2c) = _gate_coords(stack)
    assert coords.shape == (len(stack), 3)
    for i, u in enumerate(stack):
        row_coords, (row_g1, row_g2c) = _gate_coords(u)
        assert_array_equal(coords[i], row_coords)
        # NumPy rounds a complex product on arrays and on scalars differently
        # in the last bit, so the invariants agree to rounding only.
        assert abs(g1[i] - row_g1) <= 1e-14 and abs(g2c[i] - row_g2c) <= 1e-14


def _rotate(d, o):
    return (o * d) @ o.T


def _off_diagonal(f):
    return np.linalg.norm(f - np.diag(np.diag(f)))


def test_simdiag_retries_only_the_colliding_row():
    rng = np.random.default_rng(5)
    w0 = _SIMDIAG_WEIGHTS[0]
    frames = [np.linalg.qr(rng.standard_normal((4, 4)))[0] for _ in range(3)]
    diagonals = [
        (rng.uniform(-2, 2, 4), rng.uniform(-2, 2, 4)),
        # da + w0·db ties in its first two entries, which differ in da and db.
        (np.array([1.0, 1.0 + w0, -0.5, 2.0]), np.array([1.0, 0.0, 0.3, -1.2])),
        (rng.uniform(-2, 2, 4), rng.uniform(-2, 2, 4)),
    ]
    a = np.array([_rotate(da, o) for (da, _), o in zip(diagonals, frames)])
    b = np.array([_rotate(db, o) for (_, db), o in zip(diagonals, frames)])
    scale = np.maximum(1.0, np.maximum(np.linalg.norm(a, axis=(1, 2)), np.linalg.norm(b, axis=(1, 2))))

    # Precondition: at the first weight only the middle frame mixes the pair.
    _, v0 = _eigh(a + w0 * b)
    first_ok = [_off_diagonal(v.T @ ai @ v) <= TOL_EIG * s for v, ai, s in zip(v0, a, scale)]
    assert first_ok == [True, False, True]

    da, db, vecs = _simdiag(a, b)
    for i in range(3):
        v = vecs[i]
        assert np.linalg.norm(v.T @ v - np.eye(4)) <= 1e-12 and np.linalg.det(v) > 0
        assert np.linalg.norm(_rotate(da[i], v) - a[i]) <= 1e-10 * scale[i]
        assert np.linalg.norm(_rotate(db[i], v) - b[i]) <= 1e-10 * scale[i]
    for i in (0, 2):
        solo = _simdiag(a[i], b[i])
        assert_array_equal(da[i], solo[0])
        assert_array_equal(db[i], solo[1])
        assert_array_equal(vecs[i], solo[2])
