"""Three-pulse circuit synthesis and time bookkeeping."""

import pickle
import sys
from collections import Counter

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import rand_nonlocal_hamiltonian, rand_u4
from weylgate import (
    CircuitPlan,
    DegenerateHamiltonianError,
    HamiltonianSpec,
    WeylgateError,
    cnot_from_isotropic,
    expm_i_hermitian,
    fundamental_period,
    gate_coords,
    is_local_gate,
    kak_decompose,
    named_gate,
    plan_unitary,
    realize,
    solve_times,
    steps,
    synthesize,
    verify_plan,
    with_nonnegative_times,
)
from weylgate.hamflow import _L3, _generator
from weylgate.synth import TOL_TIME, _plan_product

PI = np.pi


def test_solve_times_isotropic_cnot():
    # For the swap-symmetric generator the cnot-class point needs a half-π
    # pulse, a skipped pulse, and another half-π pulse.
    times = solve_times([0.5, 0.5, 0.5], [PI / 2, 0.0, 0.0])
    assert_allclose(times, [PI / 2, 0.0, PI / 2], atol=1e-12)


def test_solve_times_degenerate():
    with pytest.raises(DegenerateHamiltonianError):
        solve_times([0.0, 0.0, 0.5], [PI / 2, 0.0, 0.0])


def test_synthesize_named_gates():
    spec = HamiltonianSpec.isotropic()
    for name in ("cnot", "swap", "iswap", "sqrtswap"):
        plan = synthesize(named_gate(name), spec)
        assert verify_plan(plan, named_gate(name)) < 1e-8, name
        assert len(plan.times) == 3
        assert len(plan.locals) == 4
        for k in plan.locals:
            assert is_local_gate(k)


def test_synthesize_random_targets_random_generators():
    rng = np.random.default_rng(71)
    worst = 0.0
    for _ in range(50):
        target = rand_u4(rng)
        spec = HamiltonianSpec.custom(rand_nonlocal_hamiltonian(rng))
        plan = synthesize(target, spec)
        worst = max(worst, verify_plan(plan, target))
    assert worst < 1e-8


def test_plan_unitary_order():
    # locals[3]·U(t2)·locals[2]·U(t1)·locals[1]·U(t0)·locals[0]
    rng = np.random.default_rng(72)
    spec = HamiltonianSpec.isotropic()
    h = realize(spec)
    from conftest import rand_local

    locs = tuple(rand_local(rng) for _ in range(4))
    times = (0.3, 0.7, 1.1)
    plan = CircuitPlan(locals=locs, times=times, hamiltonian=spec)
    expected = locs[0]
    for t, k in zip(times, locs[1:]):
        expected = k @ expm_i_hermitian(h, t) @ expected
    assert_allclose(plan_unitary(plan), expected, atol=1e-12)


def test_steps_elides_zero_pulses():
    spec = HamiltonianSpec.isotropic()
    plan = synthesize(named_gate("cnot"), spec)
    # One pulse solves to zero; the shortest schedule keeps two.
    sched = steps(plan)
    pulses = [entry for kind, entry in sched if kind == "pulse"]
    locals_ = [entry for kind, entry in sched if kind == "local"]
    assert len(pulses) == 2
    assert len(locals_) == 3
    # The schedule multiplies back to the plan.
    h = realize(spec)
    u = np.eye(4, dtype=complex)
    for kind, entry in sched:
        u = (entry if kind == "local" else expm_i_hermitian(h, entry)) @ u
    assert_allclose(u, plan_unitary(plan), atol=1e-10)


def test_cnot_from_isotropic_structure():
    plan = cnot_from_isotropic()
    assert_allclose(plan.times, [PI / 2, PI / 2, 0.0], atol=1e-12)
    # The two-pulse circuit lands in the cnot class (not the literal matrix).
    u = plan_unitary(plan)
    assert_allclose(gate_coords(u), [PI / 2, 0.0, 0.0], atol=1e-9)
    from weylgate import locally_equivalent

    assert locally_equivalent(u, named_gate("cnot"), tol=1e-9)
    # Halfway through, the evolution passes the square-root-of-swap class.
    h = realize(plan.hamiltonian)
    midpoint = expm_i_hermitian(h, plan.times[0])
    assert_allclose(gate_coords(midpoint), [PI / 4, PI / 4, PI / 4], atol=1e-9)


def test_conjugated_pulse_product_identity():
    # The three fixed conjugation frames permute/flip the generator's Cartan
    # coefficients column-by-column, so the product of conjugated pulses is
    # a single Cartan exponential with the mixed coefficient sums.
    from weylgate import WEYL_REFLECTIONS, cartan_element

    r = WEYL_REFLECTIONS
    l1 = np.eye(4, dtype=complex)
    l2 = r["c3-c2"].gate @ r["c1+c3"].gate
    l3 = r["c2-c1"].gate @ r["c3-c2"].gate @ r["c1+c2"].gate
    rng = np.random.default_rng(75)
    for _ in range(10):
        c = rng.uniform(-1.0, 1.0, size=3)
        t = rng.uniform(-2.0, 2.0, size=3)
        h = cartan_element(c)
        lhs = np.eye(4, dtype=complex)
        for tj, lj in zip(t, (l1, l2, l3)):
            lhs = (lj @ expm_i_hermitian(h, tj) @ lj.conj().T) @ lhs
        mixing = np.array(
            [
                [c[0], -c[2], c[2]],
                [c[1], -c[0], -c[1]],
                [c[2], c[1], -c[0]],
            ]
        )
        rhs = expm_i_hermitian(cartan_element(mixing @ t), 1.0)
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_mixing_matrix_determinant_nonnegative_on_chamber():
    # The duration solve is well-posed on the whole ordered cell: the
    # coefficient matrix determinant is ≥ 0 there, vanishing only at 0.
    rng = np.random.default_rng(76)
    c = np.sort(rng.uniform(0.0, np.pi, size=(100_000, 3)), axis=1)[:, ::-1]
    c = c[c[:, 0] + c[:, 1] <= np.pi]
    c1, c2, c3 = c[:, 0], c[:, 1], c[:, 2]
    # det [[c1,-c3,c3],[c2,-c1,-c2],[c3,c2,-c1]] expanded by the first row.
    det = (
        c1 * (c1**2 + c2**2)
        + c3 * (-c2 * c1 - c2 * c3)
        + c3 * (c2**2 + c1 * c3)
    )
    assert np.min(det) >= 0.0
    away = np.linalg.norm(c, axis=1) > 0.1
    assert np.min(det[away]) > 0.0


def test_fundamental_period_isotropic():
    t = fundamental_period(HamiltonianSpec.isotropic())
    assert t is not None
    assert_allclose(t, 2 * PI, atol=1e-9)


def test_fundamental_period_xy():
    t = fundamental_period(HamiltonianSpec.xy())
    assert t is not None
    assert_allclose(t, 2 * PI, atol=1e-9)


def test_fundamental_period_incommensurate():
    assert fundamental_period(HamiltonianSpec.exchange(1.0, np.sqrt(2.0))) is None


def test_nonnegative_rewrite():
    rng = np.random.default_rng(73)
    spec = HamiltonianSpec.isotropic()
    fixed = 0
    for _ in range(30):
        target = rand_u4(rng)
        plan = synthesize(target, spec)
        if min(plan.times) >= 0:
            continue
        lifted = with_nonnegative_times(plan)
        assert lifted is not None
        assert min(lifted.times) >= 0
        assert verify_plan(lifted, plan_unitary(plan)) < 1e-8
        assert verify_plan(lifted, target) < 1e-8
        fixed += 1
    assert fixed > 0


def test_nonnegative_rewrite_is_the_period_shift():
    # Each negative t becomes t + n·T, n = ceil(-t/T), and its local takes
    # U(-n·T) in front; the rewrite is returned while the shifted segments
    # U(t + n·T)·U(-n·T) together miss the U(t) they replace by at most
    # 1e-8, which bounds the distance between the two plans.
    spec = HamiltonianSpec.isotropic()
    period, flow = fundamental_period(spec), spec._generator.flow
    rng = np.random.default_rng(75)
    for scale in (None, 10.0, 1e3, 1e6):
        for _ in range(10):
            plan = synthesize(rand_u4(rng), spec)
            if scale is not None:
                plan = CircuitPlan(plan.locals, tuple(rng.uniform(-scale, scale, 3).tolist()), spec)
            if min(plan.times) >= 0:
                continue
            lifted = with_nonnegative_times(plan)
            assert verify_plan(lifted, plan_unitary(plan)) <= 1e-8
            assert lifted.locals[3] is plan.locals[3]
            for t, new_t, k, new_k in zip(plan.times, lifted.times, plan.locals, lifted.locals):
                if t >= 0:
                    assert new_t == t and new_k is k
                    continue
                n = int(np.ceil(-t / period))
                assert new_t == t + n * period
                np.testing.assert_array_equal(new_k, flow(-n * period) @ k)
    # Rounding in U(t) at |t| = 1e9 misses by more than 1e-8.
    plan = cnot_from_isotropic()
    assert with_nonnegative_times(CircuitPlan(plan.locals, (-1e9, 0.5, 0.0), spec)) is None


def test_nonnegative_rewrite_keeps_nonnegative_plans():
    plan = cnot_from_isotropic()
    lifted = with_nonnegative_times(plan)
    assert lifted is not None
    assert_allclose(lifted.times, plan.times, atol=1e-12)


def test_noise_level_times_are_zero():
    # CNOT from the Ising-like exchange coupling needs one pulse; the other two
    # solve to ~1e-16 and must not be lifted by a full period each.
    plan = synthesize(named_gate("cnot"), HamiltonianSpec.exchange(1.0, 0.0))
    assert abs(plan.times[0] - PI / 2) < 1e-12
    assert plan.times[1:] == (0.0, 0.0)
    assert with_nonnegative_times(plan) is plan


def test_nonnegative_rewrite_without_period():
    # No commensurable recurrence time: the rewrite isn't available for
    # plans that actually need it.
    spec = HamiltonianSpec.exchange(1.0, np.sqrt(2.0))
    rng = np.random.default_rng(74)
    for _ in range(10):
        plan = synthesize(rand_u4(rng), spec)
        if min(plan.times) < 0:
            assert with_nonnegative_times(plan) is None
            return
    pytest.skip("no negative-time plan drawn")


# ---------------------------------------------------------------------------
# The generator record: derived once per spec object


def _count_calls(monkeypatch, names):
    """Counts of weylgate private functions, wrapped in every weylgate
    namespace that holds them."""
    import weylgate.hamflow as hamflow
    import weylgate.linalg as linalg

    counts = Counter()
    for name in names:
        fn = getattr(hamflow, name, None) or getattr(linalg, name)

        def wrapper(*args, _name=name, _fn=fn, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "weylgate" and getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, wrapper)
    return counts


# isotropic and xy: test_fundamental_period_isotropic and _xy above.
@pytest.mark.parametrize(
    "spec, period",
    [(HamiltonianSpec.ising(), 2 * PI), (HamiltonianSpec.exchange(1.0, 1.0 / 3.0), 3 * PI)],
    ids=["ising", "exchange(1, 1/3)"],
)
def test_fundamental_period_commensurate(spec, period):
    assert_allclose(fundamental_period(spec), period, rtol=1e-12)


def _random_two_body_specs(n, seed=80):
    from weylgate import assemble_nonlocal

    rng = np.random.default_rng(seed)
    return [HamiltonianSpec.custom(assemble_nonlocal(rng.uniform(-1.0, 1.0, 9))) for _ in range(n)]


def test_incommensurate_period_rejected_before_the_flow(monkeypatch):
    # limit_denominator finds a fraction within ~1e-12 of any ratio; the
    # miss π·q·|ratio − p/q| at the candidate period is what rejects it.
    specs = [
        HamiltonianSpec.exchange(1.0, np.sqrt(2.0)),
        HamiltonianSpec.exchange(1.0, 0.5, 0.2, 0.0),
        *_random_two_body_specs(20),
    ]
    counts = _count_calls(monkeypatch, ["_m_scalar"])
    for spec in specs:
        assert fundamental_period(spec) is None
    assert counts["_m_scalar"] == 0


def test_generator_derived_once_per_spec(monkeypatch):
    specs = [HamiltonianSpec.isotropic(), *_random_two_body_specs(1, seed=81)]
    counts = _count_calls(monkeypatch, ["_conjugate", "_flow", "_period"])
    rng = np.random.default_rng(82)
    for spec in specs:
        counts.clear()
        for _ in range(5):
            plan = synthesize(rand_u4(rng), spec)
            with_nonnegative_times(CircuitPlan(plan.locals, (-1.0, 0.5, 0.25), spec))
        assert dict(counts) == {"_conjugate": 1, "_flow": 1, "_period": 1}


def test_pulse_time_matrix_derived_once_per_spec(monkeypatch):
    spec = _random_two_body_specs(1, seed=87)[0]
    counts = _count_calls(monkeypatch, ["_pulse_time_matrix"])
    rng = np.random.default_rng(88)
    for _ in range(50):
        synthesize(rand_u4(rng), spec)
    assert counts["_pulse_time_matrix"] == 1


def test_degenerate_spec_raises_on_every_call():
    # A raise is not kept by the spec: each call derives the matrix again.
    spec = HamiltonianSpec.exchange(1e-5, 0.0)
    message = "pulse-time system is singular (det 1.000e-15) for coefficients [1.e-05 0.e+00 0.e+00]"
    for _ in range(3):
        with pytest.raises(DegenerateHamiltonianError) as info:
            synthesize(named_gate("cnot"), spec)
        assert str(info.value) == message


def _assembly_couplings():
    rng = np.random.default_rng(85)
    return [
        HamiltonianSpec.isotropic(),
        HamiltonianSpec.exchange(1.0, 0.5, 0.2, 0.0),
        *_random_two_body_specs(2, seed=86),
        rand_nonlocal_hamiltonian(rng),  # an explicit matrix, derived afresh per call
    ]


@pytest.mark.parametrize(
    "hamiltonian",
    _assembly_couplings(),
    ids=["isotropic", "exchange(1, 0.5, 0.2, 0)", "custom-1", "custom-2", "matrix"],
)
def test_synthesize_is_kak_time_solve_and_frames(hamiltonian):
    # The plan from public pieces: the target's KAK, the time solve on the
    # coupling's Cartan coefficients, the snap of noise-level durations, and
    # the frames around the generator's pulse locals.
    g = _generator(hamiltonian)
    kd, k1, k2 = g.pulse_locals
    rng = np.random.default_rng(87)
    for _ in range(10):
        target = rand_u4(rng)
        d = kak_decompose(target)
        times = [0.0 if abs(t) <= TOL_TIME else t for t in solve_times(g.cartan.coeffs, d.coords)]
        plan = synthesize(target, hamiltonian)
        assert [t.hex() for t in plan.times] == [float(t).hex() for t in times]
        for got, want in zip(plan.locals, (kd @ d.k2, k1, k2, d.k1 @ _L3 @ g.cartan.k)):
            np.testing.assert_array_equal(got, want)


def _pulse_loop(plan):
    """The plan multiplied out pulse by pulse, each U(t) formed on its own."""
    h = realize(plan.hamiltonian)
    u = plan.locals[0]
    for t, k in zip(plan.times, plan.locals[1:]):
        u = k @ expm_i_hermitian(h, t) @ u
    return u


def test_eigenbasis_product_matches_the_pulse_loop():
    from conftest import rand_local

    rng = np.random.default_rng(89)
    specs = [
        HamiltonianSpec.isotropic(),
        HamiltonianSpec.exchange(1.0, 0.5, 0.2, 0.0),
        HamiltonianSpec.josephson(1.2),
        *_random_two_body_specs(2, seed=90),
    ]
    for spec in specs:
        for _ in range(10):
            locs = tuple(rand_local(rng) for _ in range(4))
            plan = CircuitPlan(locs, tuple(rng.uniform(-3.0, 3.0, 3).tolist()), spec)
            assert np.max(np.abs(plan_unitary(plan) - _pulse_loop(plan))) <= 1e-13
    for spec in (specs[0], specs[1], *specs[3:]):
        g = _generator(spec)
        for _ in range(10):
            plan = synthesize(rand_u4(rng), spec)
            # A synthesized plan's middle factors are the coupling's kept ones.
            for kept, k in zip(g.middle, plan.locals[1:3]):
                np.testing.assert_array_equal(kept, g.in_eigenbasis(k))
            l0, _, _, l3 = plan.locals
            u = _plan_product(g, l0, g.middle, l3, plan.times)
            assert np.max(np.abs(u - _pulse_loop(plan))) <= 1e-13


def _differential_specs():
    rng = np.random.default_rng(83)
    return [
        HamiltonianSpec.isotropic,
        HamiltonianSpec.xy,
        HamiltonianSpec.ising,
        lambda: HamiltonianSpec.exchange(1.0, 0.5, 0.2, 0.0),
        lambda: HamiltonianSpec.exchange(1.0, 1.0 / 3.0),
        *(
            (lambda h=rand_nonlocal_hamiltonian(rng): HamiltonianSpec.custom(h))
            for _ in range(4)
        ),
    ]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except WeylgateError as exc:  # the same failure must come back either way
        return type(exc)


def _assert_same_plan(a, b):
    if not isinstance(a, CircuitPlan):
        assert a is b
        return
    assert a.times == b.times
    for ka, kb in zip(a.locals, b.locals):
        np.testing.assert_array_equal(ka, kb)


@pytest.mark.parametrize("make_spec", _differential_specs())
def test_shared_spec_plans_equal_fresh_spec_plans(make_spec):
    shared = make_spec()
    rng = np.random.default_rng(84)
    for _ in range(20):
        target = rand_u4(rng)
        plan = _outcome(synthesize, target, shared)
        fresh = _outcome(synthesize, target, make_spec())
        _assert_same_plan(plan, fresh)
        if isinstance(plan, CircuitPlan):
            _assert_same_plan(
                _outcome(with_nonnegative_times, plan),
                _outcome(with_nonnegative_times, CircuitPlan(fresh.locals, fresh.times, make_spec())),
            )


def test_josephson_spec_keeps_its_flow_and_rejects_synthesis():
    from weylgate import NotNonlocalError, trajectory

    spec = HamiltonianSpec.josephson(1.2)
    assert len(trajectory(spec, np.linspace(0.0, 2.0, 5))) == 5
    for _ in range(2):
        with pytest.raises(NotNonlocalError):
            synthesize(named_gate("cnot"), spec)
    assert len(trajectory(spec, [0.5])) == 1


def test_plans_and_realize_own_their_arrays():
    spec = HamiltonianSpec.isotropic()
    plan = synthesize(named_gate("cnot"), spec)
    other = synthesize(named_gate("swap"), spec)
    expected = plan_unitary(plan)
    realize(spec)[:] = 7.0
    other.locals[1][:] = 0.0
    other.locals[2][:] = 0.0
    np.testing.assert_array_equal(plan_unitary(plan), expected)
    assert verify_plan(synthesize(named_gate("cnot"), spec), named_gate("cnot")) < 1e-8


def test_used_spec_pickles():
    spec = HamiltonianSpec.isotropic()
    plan = synthesize(named_gate("cnot"), spec)
    loaded = pickle.loads(pickle.dumps(spec))
    assert loaded == spec
    replayed = CircuitPlan(plan.locals, plan.times, loaded)
    np.testing.assert_array_equal(plan_unitary(replayed), plan_unitary(plan))
