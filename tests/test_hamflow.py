"""Coordinate flows generated by two-body Hamiltonians."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from conftest import PI
from weylgate import (
    HamiltonianSpec,
    LocalInvariants,
    PAULIS,
    cartan_element,
    closed_form_invariants,
    exchange_coords,
    expm_i_hermitian,
    gate_coords,
    josephson_cnot_min_time,
    josephson_invariants,
    local_invariants,
    parse_hamiltonian,
    realize,
    split_hamiltonian,
    Trajectory,
    TrajectorySample,
    trajectory,
)


def test_realize_isotropic():
    h = realize(HamiltonianSpec.isotropic())
    assert_array_equal(h, cartan_element([0.5, 0.5, 0.5]))
    assert_array_equal(h, h.conj().T)


def test_realize_xy_and_ising():
    assert_array_equal(realize(HamiltonianSpec.xy()), cartan_element([0.5, 0.5, 0.0]))
    assert_array_equal(realize(HamiltonianSpec.ising()), cartan_element([0.0, 0.0, 0.5]))


@pytest.mark.parametrize("kind", ["isotropic", "xy", "ising"])
def test_realize_named_kind_hands_out_a_fresh_matrix(kind):
    # The named matrices are built once; a write to one realize result
    # reaches neither a later result nor a fresh spec's generator.
    c = {"isotropic": [0.5] * 3, "xy": [0.5, 0.5, 0.0], "ising": [0.0, 0.0, 0.5]}[kind]
    spec = getattr(HamiltonianSpec, kind)
    realize(spec())[:] = 7.0
    assert_array_equal(realize(spec()), cartan_element(c))
    assert_array_equal(spec()._generator.h, cartan_element(c))


def test_realize_exchange():
    h = realize(HamiltonianSpec.exchange(1.0, 0.5, 0.2, -0.1))
    sx, sy = PAULIS["x"], PAULIS["y"]
    expected = 0.5 * (
        1.0 * np.kron(sx, sx) + 0.5 * np.kron(sy, sy) + 0.2 * np.kron(sx, sy) - 0.1 * np.kron(sy, sx)
    )
    assert_array_equal(h, expected)
    s = split_hamiltonian(h)
    assert_allclose(s.nonlocal_coeffs[0], 1.0, atol=1e-15)  # xx
    assert_allclose(s.nonlocal_coeffs[1], 0.2, atol=1e-15)  # xy
    assert_allclose(s.nonlocal_coeffs[3], -0.1, atol=1e-15)  # yx
    assert_allclose(s.nonlocal_coeffs[4], 0.5, atol=1e-15)  # yy
    assert s.local_norm == 0.0


def test_realize_josephson():
    alpha, e_l = 1.2, 1.0
    h = realize(HamiltonianSpec.josephson(alpha, e_l))
    sx, sy = PAULIS["x"], PAULIS["y"]
    expected = -(alpha * e_l / 2.0) * (np.kron(sx, np.eye(2)) + np.kron(np.eye(2), sx))
    expected = expected + alpha**2 * e_l * np.kron(sy, sy)
    assert_array_equal(h, expected)


def test_realize_custom_roundtrip():
    rng = np.random.default_rng(61)
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = z + z.conj().T
    spec = HamiltonianSpec.custom(h)
    assert_array_equal(realize(spec), h)


def test_parse_hamiltonian():
    assert parse_hamiltonian("isotropic").kind == "isotropic"
    assert parse_hamiltonian("heisenberg").kind == "isotropic"
    assert parse_hamiltonian("xy").kind == "xy"
    assert parse_hamiltonian("ising").kind == "ising"
    spec = parse_hamiltonian("exchange(1, 0.5)")
    assert spec.kind == "exchange"
    assert spec.params[:2] == (1.0, 0.5)
    spec = parse_hamiltonian("josephson(1.2)")
    assert spec.kind == "josephson"
    with pytest.raises(ValueError):
        parse_hamiltonian("donuts")


def test_isotropic_coordinate_flow():
    # Straight line along the chamber diagonal, then the reflected branch
    # back toward the swap-inverse wall.
    spec = HamiltonianSpec.isotropic()
    for t in np.linspace(0.05, PI - 0.05, 8):
        sample = trajectory(spec, [t])[0]
        assert_allclose(sample.coords, [t / 2, t / 2, t / 2], atol=1e-8)
    for t in np.linspace(PI + 0.05, 2 * PI - 0.05, 6):
        sample = trajectory(spec, [t])[0]
        assert_allclose(sample.coords, [t / 2, PI - t / 2, PI - t / 2], atol=1e-8)


def test_trajectory_samples_carry_invariants_and_pe():
    spec = HamiltonianSpec.isotropic()
    samples = trajectory(spec, np.linspace(0.0, PI, 9))
    assert samples[0].is_pe is False
    mid = samples[4]  # t = π/2: the square-root-of-swap class, a PE vertex
    assert mid.is_pe is True
    assert abs(mid.invariants.g1 - 0.25j) < 1e-9
    assert samples[-1].is_pe is False  # swap class


def _scalars(row) -> tuple:
    inv = row.invariants
    return row.t, inv.g1, inv.g2, inv.g2_imag_residual, row.is_pe


def _assert_same_row(a, b):
    """Rows a and b hold the same built-in types and the same values."""
    assert type(a) is type(b) is TrajectorySample
    for x, y, kind in zip(_scalars(a), _scalars(b), (float, complex, float, float, bool)):
        assert type(x) is type(y) is kind and x == y
    assert_array_equal(a.coords, b.coords, strict=True)


def test_trajectory_is_a_table_of_rows():
    times = np.linspace(-1.0, 7.0, 9)
    table = trajectory(HamiltonianSpec.exchange(1.0, 0.5, 0.2, 0.0), times)
    assert isinstance(table, Trajectory) and len(table) == 9
    assert table.coords.shape == (9, 3) and table.g1.dtype == complex and table.is_pe.dtype == bool
    rows = list(table)
    assert len(rows) == 9
    for i, row in enumerate(rows):
        _assert_same_row(table[i], row)
        _assert_same_row(table[i - 9], row)
        _assert_same_row(table[np.int64(i)], row)
        assert row.t == times[i]
        assert row.invariants == LocalInvariants(table.g1[i], table.g2[i], table.g2_imag_residual[i])
        assert row.coords.base is not None and np.shares_memory(row.coords, table.coords)
    for i in (9, -10):
        with pytest.raises(IndexError):
            table[i]
    with pytest.raises(TypeError):
        table[0.5]


@pytest.mark.parametrize("cut", [slice(2, 5), slice(None, None, -2), slice(7, 3), slice(-3, None)])
def test_trajectory_slices_are_tables(cut):
    table = trajectory(HamiltonianSpec.isotropic(), np.linspace(0.0, PI, 9))
    part = table[cut]
    assert isinstance(part, Trajectory)
    assert_array_equal(part.t, table.t[cut], strict=True)
    assert_array_equal(part.coords, table.coords[cut], strict=True)
    rows = list(table)[cut]
    assert len(part) == len(rows)
    for a, b in zip(part, rows):
        _assert_same_row(a, b)


COLUMNS = ("t", "coords", "g1", "g2", "g2_imag_residual", "is_pe")


@pytest.mark.parametrize("spec", [HamiltonianSpec.exchange(1.0, 0.5, 0.2, 0.0), HamiltonianSpec.josephson(1.2)])
def test_trajectory_columns_are_the_tables_own(spec):
    times = np.linspace(0.0, PI, 7)
    table, other = trajectory(spec, times), trajectory(spec, times)
    before = {name: getattr(other, name).copy() for name in COLUMNS}
    for name in COLUMNS:
        column = getattr(table, name)
        assert column.flags.writeable, name
        column[...] = 0
    for name in COLUMNS:
        assert_array_equal(getattr(other, name), before[name], strict=True)
        assert_array_equal(getattr(trajectory(spec, times), name), before[name], strict=True)


def test_closed_form_isotropic():
    h = realize(HamiltonianSpec.isotropic())
    for t in np.linspace(0.0, 2 * PI, 25):
        inv = closed_form_invariants("isotropic", t)
        ref = local_invariants(expm_i_hermitian(h, t))
        assert abs(inv.g1 - ref.g1) < 1e-10
        assert abs(inv.g2 - ref.g2) < 1e-10


def test_closed_form_xy():
    h = realize(HamiltonianSpec.xy())
    for t in np.linspace(0.0, 2 * PI, 25):
        inv = closed_form_invariants("xy", t)
        ref = local_invariants(expm_i_hermitian(h, t))
        assert abs(inv.g1 - (np.cos(t / 2) ** 4)) < 1e-12
        assert abs(inv.g1 - ref.g1) < 1e-10
        assert abs(inv.g2 - ref.g2) < 1e-10


def test_closed_form_ising():
    h = realize(HamiltonianSpec.ising())
    for t in np.linspace(0.0, 2 * PI, 25):
        inv = closed_form_invariants("ising", t)
        ref = local_invariants(expm_i_hermitian(h, t))
        assert abs(inv.g1 - np.cos(t / 2) ** 2) < 1e-12
        assert abs(inv.g2 - (2.0 + np.cos(t))) < 1e-12
        assert abs(inv.g1 - ref.g1) < 1e-10
        assert abs(inv.g2 - ref.g2) < 1e-10


def test_closed_form_unknown_kind():
    with pytest.raises(ValueError):
        closed_form_invariants("exchange", 1.0)


def test_exchange_coords_closed_form():
    rng = np.random.default_rng(62)
    for _ in range(15):
        jxx, jyy, jxy, jyx = rng.uniform(-0.8, 0.8, size=4)
        c = exchange_coords(jxx, jyy, jxy, jyx)
        r1 = np.hypot(jxx + jyy, jxy - jyx)
        r2 = np.hypot(jxx - jyy, jxy + jyx)
        assert_allclose(c, [(r1 + r2) / 2, abs(r1 - r2) / 2, 0.0], atol=1e-12)
        # Cross-check against the actual flow at t = 1.
        h = realize(HamiltonianSpec.exchange(jxx, jyy, jxy, jyx))
        from weylgate import canonicalize

        assert_allclose(gate_coords(expm_i_hermitian(h, 1.0)), canonicalize(c), atol=1e-8)


def test_josephson_invariants_match_matrix():
    alpha, e_l = 1.3, 1.0
    h = realize(HamiltonianSpec.josephson(alpha, e_l))
    for t in np.linspace(0.0, 4.0, 21):
        inv = josephson_invariants(alpha, e_l, t)
        ref = local_invariants(expm_i_hermitian(h, t))
        assert abs(inv.g1 - ref.g1) < 1e-9
        assert abs(inv.g2 - ref.g2) < 1e-9


def test_josephson_flow_stays_on_chamber_base():
    spec = HamiltonianSpec.josephson(1.2, 1.0)
    for sample in trajectory(spec, np.linspace(0.0, 3.0, 16)):
        assert abs(sample.coords[2]) < 1e-8


def test_josephson_cnot_min_time_frozen():
    result = josephson_cnot_min_time()
    assert abs(result.alpha_ratio - 1.199151) < 1e-5
    assert abs(result.t - 2.730939) < 1e-5
    assert result.pulse_index == 5
    assert abs(result.invariants.g1) < 1e-6
    assert abs(result.invariants.g2 - 1.0) < 1e-6


def test_josephson_cnot_scales_with_energy():
    fast = josephson_cnot_min_time(e_l=2.0)
    ref = josephson_cnot_min_time(e_l=1.0)
    assert abs(fast.alpha_ratio - ref.alpha_ratio) < 1e-9
    assert abs(fast.t - ref.t / 2.0) < 1e-9


def test_josephson_cnot_matches_gate_class():
    result = josephson_cnot_min_time()
    h = realize(HamiltonianSpec.josephson(result.alpha_ratio, 1.0))
    u = expm_i_hermitian(h, result.t)
    c = gate_coords(u)
    assert_allclose(c, [PI / 2, 0.0, 0.0], atol=1e-5)


def test_josephson_cnot_min_time_scales_with_e_l():
    # E_L only rescales time: the same root, the same pulse, t·E_L fixed.
    ref = josephson_cnot_min_time(1.0)
    for e_l in (0.5, 2.0):
        result = josephson_cnot_min_time(e_l)
        assert result.alpha_ratio == ref.alpha_ratio
        assert result.pulse_index == ref.pulse_index == 5
        assert abs(result.t * e_l - ref.t) <= 1e-12 * ref.t


def _scalar_cnot_search(e_l):
    """The Josephson search one pulse count and one bracket at a time, each
    root bisected on scalars: (α, t, pulse index, invariants) of the fastest
    verified root."""
    best = None
    for k in range(9):
        q = (2 * k + 1) * np.pi / 4.0

        def f(alpha):
            return 2.0 * alpha**2 * np.cos(np.sqrt(1.0 + alpha**-2) * q) ** 2 - (alpha**2 - 1.0)

        grid = np.linspace(1.0 + 1e-9, 12.0, 4001)
        vals = f(grid)
        for i in np.nonzero(np.signbit(vals[:-1]) != np.signbit(vals[1:]))[0]:
            lo, hi = grid[i], grid[i + 1]
            for _ in range(100):
                mid = 0.5 * (lo + hi)
                lo, hi = (lo, mid) if np.signbit(f(lo)) != np.signbit(f(mid)) else (mid, hi)
            alpha = 0.5 * (lo + hi)
            t = q / (alpha**2 * e_l)
            inv = local_invariants(expm_i_hermitian(realize(HamiltonianSpec.josephson(alpha, e_l)), t))
            if abs(inv.g1) <= 1e-6 and abs(inv.g2 - 1.0) <= 1e-6 and (best is None or t < best[1]):
                best = float(alpha), float(t), 2 * k + 1, inv
    return best


@pytest.mark.parametrize("e_l", [1e-3, 0.5, 1.0, 2.0, 1e3])
def test_stacked_cnot_search_is_the_scalar_search(e_l):
    # All brackets bisected at once take the same steps as one at a time.
    result = josephson_cnot_min_time(e_l)
    assert (result.alpha_ratio, result.t, result.pulse_index, result.invariants) == _scalar_cnot_search(e_l)


# Two roundings on each side (E_J = α·E_L, then the term), so at most 4 units
# of roundoff apart; measured at most 2.2e-16 on realize and 1.6e-16 on t·E_L.
SCALE_RTOL = 4 * 2.0**-53


@pytest.mark.parametrize("e_l", [1e-200, 1e-160, 1e100, 1e160])
def test_josephson_energy_scale_reaches_the_extremes(e_l):
    # E_L scales H, and so the root's time, at any representable scale: the
    # coupling term is α²·E_L, with no E_J² to underflow below 1e-154 or to
    # overflow above 1e154.
    ref_h = realize(HamiltonianSpec.josephson(1.2, 1.0))
    h = realize(HamiltonianSpec.josephson(1.2, e_l))
    nonzero = ref_h != 0
    assert_array_equal(h == 0, ~nonzero)
    assert np.max(np.abs(h / e_l - ref_h)[nonzero] / np.abs(ref_h[nonzero])) <= SCALE_RTOL
    ref, result = josephson_cnot_min_time(1.0), josephson_cnot_min_time(e_l)
    assert (result.alpha_ratio, result.pulse_index) == (ref.alpha_ratio, ref.pulse_index)
    assert abs(result.t * e_l - ref.t) <= SCALE_RTOL * ref.t


@pytest.mark.parametrize("e_l", [1e-200, 1e-160, 1e100, 1e160, 1e300])
def test_josephson_trajectory_scales_with_energy(e_l):
    # At times τ/E_L the flow is the E_L = 1 flow at τ.  Measured at most
    # 1.4e-14 (g2 at 1e100); an E_J² that underflows misses by 1.2e-3 at
    # 1e-160 and leaves the flow at the identity at 1e-200.  At 1e160 and
    # past, the split's single-qubit norm is taken scaled, so it does not
    # overflow.
    tau = np.linspace(0.0, 4.0, 50)
    ref = trajectory(HamiltonianSpec.josephson(1.2, 1.0), tau)
    table = trajectory(HamiltonianSpec.josephson(1.2, e_l), tau / e_l)
    for got, want in ((table.coords, ref.coords), (table.g1, ref.g1), (table.g2, ref.g2)):
        assert np.max(np.abs(got - want)) <= 1e-13


def test_custom_coupling_past_1e154_is_its_josephson_spec():
    # ||h||_F is about 2.3e160, so the squares of an unscaled Frobenius norm
    # overflow.  check_hermitian takes both norms of h scaled by a power of
    # two, which accepts the matrix; its coupling is then read as Josephson,
    # and every column of its table is the josephson spec's, bit for bit.
    spec = HamiltonianSpec.josephson(1.2, 1e160)
    custom = HamiltonianSpec.custom(realize(spec))
    times = np.linspace(0.0, 4e-160, 50)
    table, ref = trajectory(custom, times), trajectory(spec, times)
    for name in ("t", "coords", "g1", "g2", "g2_imag_residual", "is_pe"):
        assert_array_equal(getattr(table, name), getattr(ref, name), err_msg=name)
