"""Two-body and Josephson flows in closed form: ``trajectory`` folds t·c, or
the Josephson raw coordinates, instead of reading the spectrum of m(U(t)),
on every row its certificate covers, and agrees with the spectrum path.

The spectrum path is ``_gate_coords`` of the same stack of U(t).  A row is
certified when its bound, |t|·slope + _FLOOR with one slope per coupling,
is at most 1e-8: its coordinates agree with the spectrum's within 1e-12, or
are exactly the base mirror where c3 lands at TOL_BASE; its PE verdict
agrees; its g1 and g2 are the closed form of its own point, bit for bit,
with no imaginary residual, and lie within its certified bound of U(t)'s.
Every other row, times far beyond the reach among them, is read from the
spectrum: coordinates and invariants bit for bit.
"""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

import weylgate as wg
from conftest import BAD_TIMES, PI, PROPERTY, TWO_BODY, assert_same_chamber_point, certified_bound, rand_local
from weylgate import HamiltonianSpec, NotNonlocalError, hamflow
from weylgate.cartan import _WORDS, TOL_BASE, _split, assemble_nonlocal, cartan_element
from weylgate.chamber import _TOL_VERIFY, _gate_coords
from weylgate.entangler import _in_pe
from weylgate.invariants import _g_from_coords


def _custom(coeffs, e0=0.0, local=None):
    """custom(assemble_nonlocal(coeffs) + e0·I), plus single-qubit terms
    (1/2)·Σ local_j·W_j over x1, y1, z1, x2, y2, z2 when given."""
    h = assemble_nonlocal(coeffs) + e0 * np.eye(4)
    if local is not None:
        h = h + 0.5 * np.tensordot(local, _WORDS[:6], 1)
    return HamiltonianSpec.custom(h)


def _assert_paths_agree(spec, times):
    """The certified rows against the spectrum path; returns how many there are."""
    times = np.asarray(times, dtype=float)
    table, g = wg.trajectory(spec, times), spec._generator
    ref, (g1, g2c) = _gate_coords(g.flow(times[:, None, None]))
    folded = np.abs(times) <= g.reach
    assert len(table) == len(times)
    assert_array_equal(table.t, times)
    for got, want in zip(table.coords, ref):
        assert_same_chamber_point(got, want, atol=1e-12)
    assert_array_equal(table.is_pe, _in_pe(ref))
    closed_g1, closed_g2 = _g_from_coords(table.coords[folded])
    assert_array_equal(table.g1[folded], closed_g1)
    assert_array_equal(table.g2[folded], closed_g2)
    assert_array_equal(table.g2_imag_residual[folded], 0.0)
    miss = np.hypot(np.abs(table.g1 - g1), table.g2 - g2c.real)[folded]
    assert (miss <= certified_bound(g, times[folded])).all()
    assert_array_equal(table.coords[~folded], ref[~folded])
    assert_array_equal(table.g1[~folded], g1[~folded])
    assert_array_equal(table.g2[~folded], g2c.real[~folded])
    assert_array_equal(table.g2_imag_residual[~folded], np.abs(g2c.imag)[~folded])
    return folded.sum()


# ---------------------------------------------------------------------------
# The closed form against the spectrum path

couplings = st.lists(st.floats(-1.0, 1.0), min_size=9, max_size=9)
specs = st.one_of(
    st.sampled_from(list(TWO_BODY)).map(lambda k: TWO_BODY[k]()),
    st.tuples(couplings, st.floats(-2.0, 2.0)).map(lambda p: _custom(*p)),
)
times = st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=20)


@PROPERTY
@given(specs, times)
@example(HamiltonianSpec.isotropic(), [0.0, -0.0, -1.0, -PI])
def test_closed_form_matches_spectrum_path(spec, times):
    _assert_paths_agree(spec, times)


def _around(t):
    """t and its two neighbouring floats."""
    return [np.nextafter(t, -np.inf), t, np.nextafter(t, np.inf)]


@pytest.mark.parametrize("kind", TWO_BODY)
def test_closed_form_at_fold_edges(kind):
    spec = TWO_BODY[kind]()
    c = spec._generator.cartan.coeffs
    edges = [0.0, -0.0]
    for cj in c[np.abs(c) > 1e-12]:
        # t·c_j on a multiple of π, and c1 + c2 = π: the fold's two cuts.
        for k in range(-3, 4):
            edges += _around(k * PI / cj)
    for k in (-2, -1, 1, 2):
        edges += _around(k * PI / (c[0] + c[1]))
    _assert_paths_agree(spec, edges)


# c1 > π/2 on the base, with c3 at, and one rounding either side of, TOL_BASE.
BASE_EDGE = [
    cartan_element([c1, 0.4, c3])
    for c1 in (2.0, 3.0)
    for c3 in (TOL_BASE, np.nextafter(TOL_BASE, 0.0), np.nextafter(TOL_BASE, 1.0), 2e-9, 0.5e-9)
]


@pytest.mark.parametrize("h", BASE_EDGE)
def test_closed_form_at_the_base_mirror(h):
    spec = HamiltonianSpec.custom(h)
    _assert_paths_agree(spec, [*_around(1.0), -1.0, 0.5, 1.5, 2.0])


def test_closed_form_with_tolerated_single_qubit_terms():
    # _conjugate drops single-qubit terms of norm up to 1e-9, which the
    # certificate holds: the rows past |t| ≈ 1.5 read the spectrum.
    rng = np.random.default_rng(16)
    local = rng.standard_normal(6)
    spec = _custom(rng.uniform(-1.0, 1.0, 9), 0.3, 5e-10 * local / np.linalg.norm(local))
    assert spec._generator.two_body is not None
    assert 0 < _assert_paths_agree(spec, np.linspace(0.0, 2 * PI, 201)) < 201


@pytest.mark.parametrize("scale", [1e-12, 1e-200])
def test_a_dropped_single_qubit_part_sends_its_rows_to_the_spectrum(scale):
    # A locally dressed two-body coupling plus a single-qubit part of its own
    # size: at ‖h‖ ≤ about 1e-10 that part passes _conjugate's absolute
    # bound, and the coupling counts as two-body.  The certificate holds
    # that part's norm, as _conjugate measured it, with no under- or
    # overflow: every row where L·|t| times its norm is past the bound
    # reads the spectrum, here every row but t = 0.
    rng = np.random.default_rng(34)
    k = rand_local(rng)
    h = k @ assemble_nonlocal(rng.uniform(-1.0, 1.0, 9)) @ k.conj().T
    spec = HamiltonianSpec.custom(scale * (h + 0.5 * np.tensordot(rng.uniform(-1.0, 1.0, 6), _WORDS[:6], 1)))
    g = spec._generator
    assert g.two_body is not None and g.josephson is None
    times = np.linspace(0.0, 4.0, 50) / scale
    local = 0.5 * np.tensordot(_split(g.h / scale).local_coeffs, _WORDS[:6], 1)
    dropped = scale * np.linalg.norm(local, 2)
    past = hamflow._L * np.abs(times) * dropped > _TOL_VERIFY
    assert past.sum() == len(times) - 1
    assert _assert_paths_agree(spec, times) == 1


@pytest.mark.parametrize("scale", [1e-200, 1e-12, 1.0, 1e8, 1e150])
def test_dressed_couplings_reach_far_at_every_scale(scale):
    # s·k·h·k† for a random local k and two-body h: the two-body test and
    # the certificate raise no warning (the suite turns any into an error),
    # and the reach is at least 1e5 in units of 1/‖H‖_F (measured 1.5e5 to
    # 3.1e5 here).  Near rows agree with the spectrum path.
    rng = np.random.default_rng(0)
    k = rand_local(rng)
    h = k @ assemble_nonlocal(rng.uniform(-1.0, 1.0, 9)) @ k.conj().T
    spec = HamiltonianSpec.custom(scale * h)
    g = spec._generator
    assert g.two_body is not None and g.josephson is None
    norm = scale * np.linalg.norm(h)
    assert g.reach * norm >= 1e5
    assert _assert_paths_agree(spec, np.array([0.0, 1.0, -2.5, 10.0]) / norm) == 4


# ---------------------------------------------------------------------------
# Times beyond the certificate's reach

FAR_TIMES = [1e7, 1e8, 1e12, 1e17, 1e300, 1e308, -1e308]


@pytest.mark.parametrize("kind", TWO_BODY)
def test_far_times_read_the_spectrum(kind):
    spec = TWO_BODY[kind]()
    flow = spec._generator.flow
    mixed = [0.5, *FAR_TIMES, 2.0]  # the first and last are folded
    for s, t in zip(wg.trajectory(spec, mixed)[1:-1], FAR_TIMES):
        ref, (g1, g2c) = _gate_coords(flow(np.array([t])[:, None, None]))
        np.testing.assert_array_equal(s.coords, ref[0])
        assert s.invariants.g1 == complex(g1[0])
        assert s.invariants.g2 == float(g2c[0].real)
        assert s.is_pe == _in_pe(ref[0])


@pytest.mark.parametrize("kind", TWO_BODY)
@pytest.mark.parametrize("bad, error", BAD_TIMES.values(), ids=BAD_TIMES.keys())
def test_bad_times_keep_their_error(kind, bad, error):
    with pytest.raises(error):
        wg.trajectory(TWO_BODY[kind](), bad)


# ---------------------------------------------------------------------------
# What the closed form costs


@pytest.mark.parametrize(
    "make_spec", [*TWO_BODY.values(), lambda: HamiltonianSpec.josephson(1.2)], ids=[*TWO_BODY, "josephson"]
)
def test_two_body_flow_reads_no_spectrum(spy, make_spec):
    spec = make_spec()
    calls = spy("_simdiag")
    wg.trajectory(spec, np.linspace(-1e4, 1e4, 101))
    assert len(calls["_simdiag"]) == 0


@pytest.mark.parametrize("kind", TWO_BODY)
def test_rows_within_reach_form_no_gate(spy, kind):
    # The spec is made under the spy, so its flow calls the spied _evolve.
    calls = spy("_magic", "_simdiag", "_evolve")
    spec = TWO_BODY[kind]()
    g = spec._generator
    assert g.reach > 1e4  # which derives the Cartan form, through a magic transform of its own
    calls.clear()
    wg.trajectory(spec, np.linspace(-1e4, 1e4, 101))
    assert calls.counts() == {}
    # Rows past the reach, and only those, form U(t) and read its spectrum.
    times = np.array([0.5, 3.0 * g.reach, -1.0, -2.0 * g.reach, 1e4])
    far = np.abs(times) > g.reach
    table = wg.trajectory(spec, times)
    assert calls.counts() == {"_magic": 1, "_simdiag": 1, "_evolve": 1}
    assert calls["_simdiag"] == [(2, 4, 4)]
    assert_array_equal(table.coords[far], _gate_coords(g.flow(times[far, None, None]))[0])
    assert_array_equal(table.coords[~far], hamflow._folded(g, times[~far])[0])


@pytest.mark.parametrize("kind", TWO_BODY)
def test_a_fresh_two_body_coupling_is_derived_in_one_pass(spy, kind):
    # Rows within reach of a fresh spec: one magic transform and one
    # eigendecomposition, the Cartan form's, which the certificate reads
    # too; no Pauli split and no flow.
    calls = spy("_magic", "_eigh", "_split", "_flow")
    wg.trajectory(TWO_BODY[kind](), np.linspace(-1e4, 1e4, 101))
    assert calls.counts() == {"_magic": 1, "_eigh": 1}


@pytest.mark.parametrize("alpha, e_l", [(1.2, 1.0), (0.5, 1e-12)], ids=["josephson(1.2)", "josephson(0.5,1e-12)"])
def test_a_fresh_josephson_coupling_derives_no_flow(spy, alpha, e_l):
    calls = spy("_magic", "_eigh", "_split", "_flow")
    wg.trajectory(HamiltonianSpec.josephson(alpha, e_l), np.linspace(-1e3, 1e3, 101) / e_l)
    assert calls.counts() == {}


@pytest.mark.parametrize(
    "make_spec", [*TWO_BODY.values(), lambda: HamiltonianSpec.josephson(1.2)], ids=[*TWO_BODY, "josephson"]
)
def test_rows_past_the_reach_derive_the_flow_once_per_spec(spy, make_spec):
    calls = spy("_flow")
    spec = make_spec()
    far = 3.0 * spec._generator.reach
    wg.trajectory(spec, [0.5, -1.0])
    assert calls.counts() == {}
    for _ in range(3):
        wg.trajectory(spec, [0.5, far, -far])
    assert calls.counts() == {"_flow": 1}


def test_no_cartan_form_is_derived_once(spy):
    # A Josephson trajectory reads its own closed form and asks for no
    # Cartan form; a coupling with single-qubit terms of another shape
    # learns once that it has none.
    calls = spy("_conjugate")
    josephson = HamiltonianSpec.josephson(1.2)
    spec = HamiltonianSpec.custom(wg.realize(josephson) + 0.1 * _WORDS[2])  # and the word z1
    for _ in range(8):
        wg.trajectory(josephson, np.linspace(0.0, 2.0, 5))
    assert calls.counts() == {}
    for _ in range(8):
        wg.trajectory(spec, np.linspace(0.0, 2.0, 5))
    assert len(calls["_conjugate"]) == 1
    assert spec._generator.two_body is None
    for _ in range(2):  # and the Cartan form still raises on every read
        with pytest.raises(NotNonlocalError):
            spec._generator.cartan


# ---------------------------------------------------------------------------
# The Josephson flow in closed form

# (alpha_ratio, e_l).  At E_L = 1e-12 and 1e-200 _conjugate's absolute bound
# also counts the coupling as two-body; the Josephson closed form takes precedence.
JOSEPHSON = {
    f"josephson({a:g},{e_l:g})": (a, e_l) for a, e_l in [(1.2, 1.0), (0.5, 1e-12), (1.2, 1e-200), (2.0, 1e160)]
}
# Times in units of 1/E_L: near ones, all within every reach drawn here
# (9.5e3/E_L at α = 3), and far ones, past every reach (4.4e5/E_L at α = 0.2).
scaled_times = st.lists(
    st.one_of(st.floats(-20.0, 20.0), st.floats(1e8, 1e12), st.floats(-1e12, -1e8)), min_size=1, max_size=20
)
josephson_params = st.tuples(
    st.floats(0.2, 3.0), st.one_of(st.floats(0.25, 4.0), st.sampled_from([1e-200, 1e-12, 1e160]))
)


@PROPERTY
@given(josephson_params, scaled_times)
@example((1.2, 1e-200), [0.0, -0.0, 2.7309, -PI, 1e9])
@example((1.2, 1e160), [0.0, 2.7309, 15.0, -1e10])
def test_josephson_closed_form_matches_spectrum_path(params, times):
    alpha, e_l = params
    spec = HamiltonianSpec.josephson(alpha, e_l)
    assert spec._generator.josephson is not None
    times = np.asarray(times) / e_l
    assert _assert_paths_agree(spec, times) == (np.abs(times) <= 20.0 / e_l).sum()


@pytest.mark.parametrize("alpha, e_l", JOSEPHSON.values(), ids=JOSEPHSON.keys())
def test_josephson_rows_within_reach_form_no_gate(spy, alpha, e_l):
    # The spec is made under the spy, so its flow calls the spied _evolve.
    calls = spy("_magic", "_simdiag", "_evolve")
    spec = HamiltonianSpec.josephson(alpha, e_l)
    g = spec._generator
    assert g.reach > 1e3 / e_l  # derived from h alone: no magic transform, no Cartan form
    assert calls.counts() == {}
    wg.trajectory(spec, np.linspace(-1e3, 1e3, 101) / e_l)
    assert calls.counts() == {}
    # Rows past the reach, and only those, form U(t) and read its spectrum.
    times = np.array([0.5 / e_l, 3.0 * g.reach, -1.0 / e_l, -2.0 * g.reach, 1e3 / e_l])
    far = np.abs(times) > g.reach
    table = wg.trajectory(spec, times)
    assert calls.counts() == {"_magic": 1, "_simdiag": 1, "_evolve": 1}
    assert calls["_simdiag"] == [(2, 4, 4)]
    assert_array_equal(table.coords[far], _gate_coords(g.flow(times[far, None, None]))[0])
    assert_array_equal(table.coords[~far], hamflow._folded(g, times[~far])[0])


def _off_by_one_ulp(i, j, imag=False):
    """The josephson(1.2) matrix with entry (i, j) one ulp up, in its real or
    imaginary part, and (j, i) its conjugate."""
    h = wg.realize(HamiltonianSpec.josephson(1.2))
    part = h[i, j].imag if imag else h[i, j].real
    h[i, j] += (np.nextafter(part, np.inf) - part) * (1j if imag else 1.0)
    h[j, i] = h[i, j].conjugate()
    return h


OFF_SHAPE = {
    "h01": _off_by_one_ulp(0, 1),
    "h02": _off_by_one_ulp(0, 2),
    "h03": _off_by_one_ulp(0, 3),
    "h12": _off_by_one_ulp(1, 2),
    "imag h01": _off_by_one_ulp(0, 1, imag=True),
}


@pytest.mark.parametrize("h", OFF_SHAPE.values(), ids=OFF_SHAPE.keys())
def test_a_matrix_off_the_josephson_shape_reads_the_spectrum(spy, h):
    assert HamiltonianSpec.custom(wg.realize(HamiltonianSpec.josephson(1.2)))._generator.josephson is not None
    spec = HamiltonianSpec.custom(h)
    g = spec._generator
    assert g.josephson is None and g.two_body is None
    calls = spy("_simdiag")
    times = np.linspace(0.0, 2.0, 5)
    table = wg.trajectory(spec, times)
    assert calls["_simdiag"] == [(5, 4, 4)]
    assert_array_equal(table.coords, _gate_coords(g.flow(times[:, None, None]))[0])


def test_the_zero_matrix_takes_no_josephson_closed_form():
    # E_J = 0: the Josephson expression with E_J = β = 0 is the zero
    # matrix, yet its closed form would divide by Ω = 0.
    spec = HamiltonianSpec.custom(np.zeros((4, 4)))
    assert spec._generator.josephson is None
    assert_array_equal(wg.trajectory(spec, [0.0, 1.0, -3.0]).coords, 0.0)


@pytest.mark.parametrize(
    "couplings",
    [(1.0, 0.5, 0.2, 0.0), (0.7, 0.3, 0.1, 0.05), (-1.0, 0.5, 0.0, 0.0), (0.2, -0.9, -0.4, 0.3),
     (1.0, 1.0, 0.0, 0.0), (0.0, 0.0, 0.6, 0.6)],
)
def test_exchange_coords_is_the_cartan_form(couplings):
    c = HamiltonianSpec.exchange(*couplings)._generator.cartan.coeffs
    np.testing.assert_allclose(wg.exchange_coords(*couplings), c, rtol=0, atol=1e-14)
