"""Two-body flows in closed form: ``trajectory`` folds t·c instead of reading
the spectrum of m(U(t)), and agrees with the spectrum path.

The spectrum path is ``_gate_coords`` of the same stack of U(t), with no raw
coordinates.  Coordinates agree within 1e-12, or are exactly the base mirror
where c3 lands at TOL_BASE; the PE verdicts agree; the invariants are bit
for bit the same, since both paths read them from U(t).  Times whose t·c lies
beyond the fold's reach are read from the spectrum, bit for bit.
"""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import weylgate as wg
from conftest import BAD_TIMES, PI, PROPERTY, TWO_BODY, assert_same_chamber_point
from weylgate import HamiltonianSpec, LocalInvariants, NotNonlocalError, chamber
from weylgate.cartan import _WORDS, TOL_BASE, assemble_nonlocal, cartan_element
from weylgate.chamber import _TOL_VERIFY, _gate_coords
from weylgate.entangler import _in_pe


def _custom(coeffs, e0=0.0, local=None):
    """custom(assemble_nonlocal(coeffs) + e0·I), plus single-qubit terms
    (1/2)·Σ local_j·W_j over x1, y1, z1, x2, y2, z2 when given."""
    h = assemble_nonlocal(coeffs) + e0 * np.eye(4)
    if local is not None:
        h = h + 0.5 * np.tensordot(local, _WORDS[:6], 1)
    return HamiltonianSpec.custom(h)


def _assert_paths_agree(spec, times):
    times = np.asarray(times, dtype=float)
    samples = wg.trajectory(spec, times)
    ref, (g1, g2c) = _gate_coords(spec._generator.flow(times[:, None, None]))
    assert len(samples) == len(times)
    for s, t, c, pe, a, b in zip(samples, times, ref, _in_pe(ref), g1, g2c):
        assert s.t == t
        assert_same_chamber_point(s.coords, c, atol=1e-12)
        assert s.is_pe == pe
        assert s.invariants == LocalInvariants(complex(a), float(b.real), float(abs(b.imag)))


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
    # _conjugate drops single-qubit terms of norm up to 1e-9.
    rng = np.random.default_rng(16)
    local = rng.standard_normal(6)
    spec = _custom(rng.uniform(-1.0, 1.0, 9), 0.3, 5e-10 * local / np.linalg.norm(local))
    assert spec._generator.two_body is not None
    _assert_paths_agree(spec, np.linspace(0.0, 2 * PI, 201))


# ---------------------------------------------------------------------------
# Times beyond the fold's reach

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
# The closed-form check at its bound


@pytest.mark.parametrize(
    "factor, simdiags", [(1 + 1e-6, [(1, 4, 4)]), (1 - 1e-6, [])], ids=["past", "inside"]
)
def test_a_row_past_the_check_alone_reads_the_spectrum(monkeypatch, spy, factor, simdiags):
    # The check of the folded points at _TOL_VERIFY: a row just past it, and
    # only that row, is read from its gate's spectrum; just inside, none is.
    spec, times, row = TWO_BODY["exchange"](), np.linspace(0.1, 3.0, 7), 3
    u = spec._generator.flow(times[:, None, None])
    folded, spectrum = wg.trajectory(spec, times), _gate_coords(u[row])[0]
    miss = chamber._miss

    def one_row_misses(c, g1, g2c):
        d = miss(c, g1, g2c)
        if len(d) == len(times):  # the check of the folded points
            d[row] = _TOL_VERIFY * factor
        return d

    monkeypatch.setattr(chamber, "_miss", one_row_misses)
    calls = spy("_simdiag")
    table = wg.trajectory(spec, times)
    assert calls["_simdiag"] == simdiags
    expected = folded.coords.copy()
    if simdiags:
        expected[row] = spectrum
    np.testing.assert_array_equal(table.coords, expected)
    np.testing.assert_array_equal(table.is_pe, _in_pe(expected))
    for column in ("t", "g1", "g2", "g2_imag_residual"):
        np.testing.assert_array_equal(getattr(table, column), getattr(folded, column))


# ---------------------------------------------------------------------------
# What the closed form costs


@pytest.mark.parametrize(
    "make_spec, simdiags",
    [*((make, 0) for make in TWO_BODY.values()), (lambda: HamiltonianSpec.josephson(1.2), 1)],
    ids=[*TWO_BODY, "josephson"],
)
def test_two_body_flow_reads_no_spectrum(spy, make_spec, simdiags):
    spec = make_spec()
    calls = spy("_simdiag")
    wg.trajectory(spec, np.linspace(-1e4, 1e4, 101))
    assert len(calls["_simdiag"]) == simdiags


def test_no_cartan_form_is_derived_once(spy):
    calls = spy("_conjugate")
    spec = HamiltonianSpec.josephson(1.2)
    for _ in range(8):
        wg.trajectory(spec, np.linspace(0.0, 2.0, 5))
    assert len(calls["_conjugate"]) == 1
    assert spec._generator.two_body is None
    for _ in range(2):  # and the Cartan form still raises on every read
        with pytest.raises(NotNonlocalError):
            spec._generator.cartan


@pytest.mark.parametrize(
    "couplings",
    [(1.0, 0.5, 0.2, 0.0), (0.7, 0.3, 0.1, 0.05), (-1.0, 0.5, 0.0, 0.0), (0.2, -0.9, -0.4, 0.3),
     (1.0, 1.0, 0.0, 0.0), (0.0, 0.0, 0.6, 0.6)],
)
def test_exchange_coords_is_the_cartan_form(couplings):
    c = HamiltonianSpec.exchange(*couplings)._generator.cartan.coeffs
    np.testing.assert_allclose(wg.exchange_coords(*couplings), c, rtol=0, atol=1e-14)
