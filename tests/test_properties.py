"""Property tests of the chamber geometry: the fold, gate coordinates, KAK
and the perfect-entangler predicates.

Inputs come from ``hypothesis`` (derandomized, so every run draws the same
examples); the oracles are the symmetry group itself (``weyl_orbit``), the
closed-form invariants, the defining identities of the inverse and of
local equivalence, the chamber polyhedron, a scalar fold that records its
moves, and a polygon walk over the hull of m's eigenvalues.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from conftest import gate_at, rand_chamber_point, rand_local, rand_u4
from weylgate import (
    WEYL_REFLECTIONS,
    canonical_gate,
    canonicalize,
    chamber,
    coords_of_inverse,
    ent,
    entangling_input,
    gate_coords,
    in_chamber,
    invariants_from_coords,
    is_local_gate,
    is_perfect_entangler,
    kak_decompose,
    kak_reconstruct,
    pe_from_coords,
    weyl_orbit,
)
from weylgate.cartan import _WEYL_ACTIONS, _WEYL_GATES, MAGIC
from weylgate.chamber import _TOL_CHAMBER, TOL_BASE, _fold
from weylgate.entangler import TOL_HULL
from weylgate.invariants import _raw_coords

PI = np.pi

PROPERTY = settings(derandomize=True, max_examples=150, deadline=None, database=None)

coord = st.floats(-7.0, 7.0, allow_nan=False, allow_infinity=False)
triples = st.tuples(coord, coord, coord).map(np.array)
seeds = st.integers(0, 2**32 - 1)
# Where the fold's tests and roundings sit: the π/4 lattice, signed zeros,
# ±π, values a rounding error from 0, and c3 around TOL_BASE.
special_coord = st.one_of(
    st.integers(-16, 16).map(lambda k: k * PI / 4),
    st.sampled_from([0.0, -0.0, PI, -PI, 1e-17, -1e-17, 5e-10, -5e-10, 1e-9, -1e-9, 2e-9]),
    coord,
)
special_triples = st.tuples(special_coord, special_coord, special_coord).map(np.array)


@st.composite
def triple_stacks(draw):
    """A stack of shape (3,), (N, 3) or (a, b, 3) of special triples."""
    lead = draw(
        st.one_of(
            st.just(()),
            st.tuples(st.integers(0, 6)),
            st.tuples(st.integers(1, 3), st.integers(1, 3)),
        )
    )
    size = int(np.prod(lead))
    rows = draw(st.lists(special_triples, min_size=size, max_size=size))
    return np.array(rows, dtype=float).reshape(lead + (3,))


def _reference_fold(c):
    """The scalar fold, one triple at a time, recording its moves in order:
    ``(axis, n)`` for the π-translation c[axis] -> c[axis] - n·π, or a
    WEYL_REFLECTIONS label for c -> action @ c."""
    c = np.array(c, dtype=float)
    moves: list = []

    def translate(*axes):
        for axis in axes:
            n = int(np.floor(c[axis] / PI))
            if n:
                c[axis] -= n * PI
                moves.append((axis, n))

    def reflect(label):
        c[:] = WEYL_REFLECTIONS[label].action @ c
        moves.append(label)

    def sort_descending():
        for i in (0, 1, 0):
            if c[i] < c[i + 1]:
                reflect(("c2-c1", "c3-c2")[i])  # swap c[i], c[i+1]

    translate(0, 1, 2)
    sort_descending()
    if c[0] + c[1] > PI:
        reflect("c1+c2")  # -> (-c2, -c1, c3)
        translate(0, 1)
        sort_descending()
    if c[2] <= TOL_BASE and c[0] > PI / 2 + _TOL_CHAMBER:
        reflect("c1+c3")  # -> (-c3, c2, -c1)
        reflect("c1-c3")  # -> (-c1, c2, -c3)
        translate(0)  # -> (π-c1, c2, -c3)
        sort_descending()
    return c + 0.0, moves


def _composed(moves):
    """The moves composed in exact integer arithmetic: (M, t) with
    image = M·c + π·t."""
    m, t = np.eye(3, dtype=int), np.zeros(3, dtype=int)
    for move in moves:
        if isinstance(move, str):
            a = WEYL_REFLECTIONS[move].action.astype(int)
            m, t = a @ m, a @ t
        else:
            axis, n = move
            t[axis] -= n
    return m, t


# canonicalize's contract: where c3 lands within rounding of TOL_BASE with
# c1 > π/2, a point or its exact base mirror may come back.  The band is how
# near TOL_BASE both answers must sit for the mirror to be accepted.
_BASE_BAND = 4 * np.spacing(PI)


def _assert_same_chamber_point(a, b, atol):
    """a equals b within ``atol``, or, both with c3 inside the band around
    TOL_BASE, the one with c1 > π/2 is the other's base mirror [π-c1, c2, c3]."""
    if np.max(np.abs(a - b)) <= atol:
        return
    hi, lo = (a, b) if a[0] > b[0] else (b, a)
    assert hi[0] > PI / 2, (a, b)
    assert abs(a[2] - TOL_BASE) <= _BASE_BAND and abs(b[2] - TOL_BASE) <= _BASE_BAND, (a, b)
    assert_allclose(np.sort([PI - hi[0], hi[1], hi[2]])[::-1], lo, atol=atol)

# Vertices, edges and faces of the chamber, as points of a parameter s in [0, 1].
_SPECIAL = (
    lambda s: [0.0, 0.0, 0.0],
    lambda s: [PI / 2, 0.0, 0.0],
    lambda s: [PI / 2, PI / 2, 0.0],
    lambda s: [PI / 2, PI / 2, PI / 2],
    lambda s: [PI / 4, PI / 4, PI / 4],
    lambda s: [3 * PI / 4, PI / 4, PI / 4],
    lambda s: [s * PI / 2, 0.0, 0.0],  # O-L edge
    lambda s: [s * PI / 2, s * PI / 2, 0.0],  # O-A2 edge
    lambda s: [s * PI / 2, s * PI / 2, s * PI / 2],  # O-A3 edge
    lambda s: [PI - s * PI / 2, s * PI / 2, s * PI / 2],  # A1-A3 edge
    lambda s: [PI / 2, s * PI / 2, 0.0],  # L-A2 edge
    lambda s: [PI / 2, PI / 2, s * PI / 2],  # A2-A3 edge
    lambda s: [PI / 2 + s * PI / 4, PI / 2 - s * PI / 4, s * PI / 4],  # c1+c2 = π face
    lambda s: [PI / 3 + s, PI / 3, PI / 3],  # c2 = c3 face
    lambda s: [PI / 3 + s, PI / 3 + s, PI / 4],  # c1 = c2 face
    lambda s: [PI / 3 + s, PI / 5, 0.0],  # base
)


@st.composite
def boundary_gates(draw):
    """A chamber vertex, edge or face point, perturbed by 1e-15 to 1e-6 and
    dressed with random locals and a global phase."""
    point = np.array(draw(st.sampled_from(_SPECIAL))(draw(st.floats(0.0, 1.0))))
    scale = 10.0 ** draw(st.floats(-15.0, -6.0))
    rng = np.random.default_rng(draw(seeds))
    return gate_at(point + scale * rng.uniform(-1.0, 1.0, 3), rng, phase=rng.uniform(0.0, 2 * PI))


@PROPERTY
@given(triples)
def test_fold_idempotent_and_in_chamber(c):
    out = canonicalize(c)
    assert in_chamber(out)
    assert_allclose(canonicalize(out), out, atol=1e-12)


@PROPERTY
@given(triples)
@example(np.array([1.0, 1e-9, -1.0]))
def test_fold_constant_on_orbit(c):
    ref = canonicalize(c)
    for image in weyl_orbit(c):
        _assert_same_chamber_point(canonicalize(image), ref, atol=1e-9)


@PROPERTY
@given(triple_stacks())
def test_stacked_fold_matches_reference(c):
    image, p, n = _fold(c)
    assert image.shape == n.shape == c.shape and p.shape == c.shape[:-1]
    for row, got in zip(c.reshape(-1, 3), image.reshape(-1, 3)):
        ref, _ = _reference_fold(row)
        assert_array_equal(got, ref)
        assert_array_equal(canonicalize(row), np.sort(np.abs(ref))[::-1])


@PROPERTY
@given(triple_stacks())
def test_stacked_fold_element_is_reference_moves(c):
    image, p, n = _fold(c)
    for row, q, k in zip(c.reshape(-1, 3), p.reshape(-1), n.reshape(-1, 3)):
        m, t = _composed(_reference_fold(row)[1])
        assert_array_equal(_WEYL_ACTIONS[q], m)
        assert_array_equal(k, t)


@pytest.mark.parametrize("p", range(24))
def test_weyl_table_gate_realizes_its_element(p):
    action, g = _WEYL_ACTIONS[p], _WEYL_GATES[p]
    assert np.array_equal(np.abs(action) @ np.ones(3), np.ones(3))  # a signed permutation
    assert np.prod(action.sum(0)) == 1  # an even number of sign flips
    assert is_local_gate(g)
    rng = np.random.default_rng(p)
    for c in (rng.uniform(-PI, PI, 3), rng.uniform(-7.0, 7.0, 3), [PI / 2, PI / 4, 0.0]):
        c = np.asarray(c)
        assert_allclose(g @ canonical_gate(c) @ g.conj().T, canonical_gate(action @ c), atol=1e-12)


def test_weyl_table_is_the_group():
    keys = {tuple(a.astype(int).ravel()) for a in _WEYL_ACTIONS}
    assert len(keys) == 24 and np.array_equal(_WEYL_ACTIONS[0], np.eye(3))


def test_base_mirror_flips_on_recorded_inputs():
    # Both answers of canonicalize's contract come back on these inputs.
    c = np.array([1.0, 1e-9, -1.0])
    outs = [canonicalize(image) for image in weyl_orbit(c)]
    assert any(np.max(np.abs(o - canonicalize(c))) > 1e-9 for o in outs)
    u = gate_at([4.0, 1e-9, -1.0])
    rng = np.random.default_rng(0)
    v = np.exp(1j * rng.uniform(0.0, 2 * PI)) * (rand_local(rng) @ u @ rand_local(rng))
    assert np.max(np.abs(gate_coords(v) - gate_coords(u))) > 1e-7


@PROPERTY
@given(triples)
def test_fold_moves_reproduce_output(c):
    out, moves = _reference_fold(c)
    x = c.copy()
    for move in moves:
        if isinstance(move, str):
            x = WEYL_REFLECTIONS[move].action @ x
        else:
            axis, n = move
            x[axis] -= n * PI
    assert_array_equal(x, out)
    assert in_chamber(out, tol=TOL_BASE)
    a, b = invariants_from_coords(c), invariants_from_coords(out)
    assert abs(a.g1 - b.g1) < 1e-12 and abs(a.g2 - b.g2) < 1e-12


@PROPERTY
@given(triples, seeds)
@example(np.array([4.0, 1e-9, -1.0]), 0)
def test_gate_coords_ignore_dressing_and_phase(c, seed):
    rng = np.random.default_rng(seed)
    u = gate_at(c)
    v = np.exp(1j * rng.uniform(0.0, 2 * PI)) * (rand_local(rng) @ u @ rand_local(rng))
    _assert_same_chamber_point(gate_coords(v), gate_coords(u), atol=1e-7)


@PROPERTY
@given(seeds, st.booleans())
def test_coords_of_inverse_matches_adjoint(seed, structured):
    rng = np.random.default_rng(seed)
    u = gate_at(rng.uniform(-PI, PI, 3), rng) if structured else rand_u4(rng)
    assert_allclose(coords_of_inverse(gate_coords(u)), gate_coords(u.conj().T), atol=1e-7)


def _eigvals_theta(u):
    """The phases of e^{-2iα}·m(U), α = arg(det U)/4, ascending in (-π, π],
    from LAPACK's general eigensolver, sharing no code with the record or
    _simdiag."""
    ub = MAGIC.conj().T @ u @ MAGIC
    alpha = np.angle(np.linalg.det(u)) / 4.0
    return np.sort(np.angle(np.linalg.eigvals(np.exp(-2j * alpha) * (ub.T @ ub))))


def _eigvals_coords(u):
    """The chamber point of u from _eigvals_theta: the phases balanced to
    sum 0, read as raw coordinates in the order eigvals returns them, and
    folded by the scalar reference fold."""
    theta = _eigvals_theta(u)
    k = int(np.rint(theta.sum() / (2 * PI)))
    if k > 0:
        theta[4 - k :] -= 2 * PI
    elif k < 0:
        theta[:-k] += 2 * PI
    image, _ = _reference_fold(_raw_coords(theta))
    return np.sort(np.abs(image))[::-1]


def _oracle_gates():
    """Haar gates with a random phase, and the chamber vertices perturbed by
    0 to 1e-7, each dressed ten times with random locals and a phase."""
    rng = np.random.default_rng(12)
    gates = [np.exp(2j * PI * rng.random()) * rand_u4(rng) for _ in range(300)]
    for v in (getattr(chamber, f"VERTEX_{name}") for name in "O A1 A2 A3 L M N P Q".split()):
        for eps in (0.0, 1e-12, 1e-9, 1e-7):
            for _ in range(10):
                c = v + eps * rng.uniform(-1.0, 1.0, 3)
                gates.append(gate_at(c, rng, phase=rng.uniform(0.0, 2 * PI)))
    return gates


def test_gate_coords_match_eigvals_oracle():
    for u in _oracle_gates():
        _assert_same_chamber_point(gate_coords(u), _eigvals_coords(u), atol=1e-12)


def _eigvals_margin(u):
    """cos of half the widest gap between the _eigvals_theta phases."""
    theta = _eigvals_theta(u)
    return np.cos(np.diff(theta, append=theta[0] + 2 * PI).max() / 2)


def test_pe_verdict_matches_eigvals_margin_and_polyhedron():
    # One boundary for both verdicts: the hull's margin ≥ -tol is the
    # polyhedron's face bound, read from an independent eigensolver.
    for u in _oracle_gates():
        is_pe = is_perfect_entangler(u).is_pe
        assert is_pe == (_eigvals_margin(u) >= -TOL_HULL)
        assert is_pe == pe_from_coords(_eigvals_coords(u))


def test_pe_verdict_inside_the_band():
    # These oracle gates lie 8.0e-10 to 8.6e-10 past a PE face.  A gap
    # bound of π + tol, which allows half that excess, once called them
    # non-PE while pe_from_coords called them PE.
    gates = _oracle_gates()
    for index in (401, 528, 562, 563):
        u = gates[index]
        v = is_perfect_entangler(u)
        assert -TOL_HULL <= v.margin < np.cos((PI + TOL_HULL) / 2), index
        assert v.is_pe and pe_from_coords(gate_coords(u)), index
        psi_in, psi_out = entangling_input(u)
        assert abs(ent(psi_in)) <= TOL_HULL
        assert abs(abs(ent(psi_out)) - 0.5) <= 1e-9


@PROPERTY
@given(boundary_gates())
def test_kak_on_chamber_boundary(u):
    d = kak_decompose(u)
    assert d.residual <= 1e-9
    assert np.linalg.norm(kak_reconstruct(d) - u) <= 1e-9
    # Within TOL_BASE of the base the KAK factor keeps the mirror's exact
    # image, c3 ≤ 0; the chamber point it names is gate_coords'.
    assert in_chamber(d.coords, tol=TOL_BASE)
    assert_allclose(canonicalize(d.coords), gate_coords(u), atol=1e-9)


# Vertices, edges and faces of the perfect-entangler polyhedron
# (c1+c2 = π/2, c2+c3 = π/2, c1-c2 = π/2), as points of s in [0, 1].
_PE_SPECIAL = (
    lambda s: [3 * PI / 4, PI / 4, 0.0],  # M
    lambda s: [PI / 4, PI / 4, 0.0],  # Q
    lambda s: [PI / 4 + s * PI / 4, PI / 4 - s * PI / 4, 0.0],  # Q-L edge
    lambda s: [PI / 4 + s * PI / 8, PI / 4 - s * PI / 8, PI / 8],  # c1+c2 = π/2 face
    lambda s: [PI / 4 + s * PI / 2, PI / 4, PI / 4],  # P-N edge
    lambda s: [PI / 2 - s * PI / 4, PI / 2 - s * PI / 4, s * PI / 4],  # A2-P edge
    lambda s: [PI / 2 + s * PI / 8, PI / 4, PI / 4],  # c2+c3 = π/2 face
    lambda s: [PI / 2 + s * PI / 4, s * PI / 4, 0.0],  # L-M edge
    lambda s: [PI / 2 + s * PI / 4, s * PI / 4, s * PI / 4],  # L-N edge
    lambda s: [PI / 2 + s * PI / 4, s * PI / 4, s * PI / 8],  # c1-c2 = π/2 face
)


@st.composite
def pe_gates(draw):
    """A chamber point (on a vertex, edge or face of the chamber or of the
    perfect-entangler polyhedron, or uniform in the chamber), perturbed by 0
    to 1e-7 and dressed with random locals and a global phase."""
    rng = np.random.default_rng(draw(seeds))
    if draw(st.booleans()):
        point = np.array(draw(st.sampled_from(_SPECIAL + _PE_SPECIAL))(draw(st.floats(0.0, 1.0))))
    else:
        point = rand_chamber_point(rng)
    scale = draw(st.one_of(st.just(0.0), st.floats(-16.0, -7.0).map(lambda e: 10.0**e)))
    return gate_at(point + scale * rng.uniform(-1.0, 1.0, 3), rng, phase=rng.uniform(0.0, 2 * PI))


def _polygon_margin(z):
    """Reference hull margin: signed distance from 0 to the hull of the
    unit-circle points z, by walking the hull's edges (points within 1e-9
    count as one)."""
    pts = [z[0]]
    for p in z[1:]:
        if all(abs(p - q) > 1e-9 for q in pts):
            pts.append(p)
    if len(pts) == 1:
        return -abs(pts[0])
    if len(pts) == 2:
        return -_dist_to_segment(pts[0], pts[1])
    pts = sorted(pts, key=np.angle)
    edge_dist = []
    for i, p in enumerate(pts):
        q = pts[(i + 1) % len(pts)]
        d = q - p
        # signed distance of the origin from the edge line; interior is left
        edge_dist.append((d.real * (-p).imag - d.imag * (-p).real) / abs(d))
    if min(edge_dist) >= 0:
        return float(min(edge_dist))
    return -float(
        min(_dist_to_segment(pts[i], pts[(i + 1) % len(pts)]) for i in range(len(pts)))
    )


def _dist_to_segment(p, q):
    d = q - p
    t = ((0 - p).real * d.real + (0 - p).imag * d.imag) / (abs(d) ** 2)
    t = min(1.0, max(0.0, t))
    return float(abs(p + t * d))


@PROPERTY
@given(pe_gates())
def test_pe_verdicts_agree_away_from_boundary(u):
    v = is_perfect_entangler(u)
    if abs(v.margin) > 1e-6:
        assert v.is_pe == (v.margin > 0) == pe_from_coords(gate_coords(u))


@PROPERTY
@given(pe_gates())
def test_pe_verdict_is_margin_threshold(u):
    v = is_perfect_entangler(u)
    assert v.is_pe == (v.margin >= -TOL_HULL)


@PROPERTY
@given(pe_gates())
def test_pe_margin_matches_polygon_reference(u):
    v = is_perfect_entangler(u)
    assert abs(v.margin - _polygon_margin(v.phases)) <= 1e-9


@PROPERTY
@given(pe_gates())
def test_pe_witness_contract(u):
    v = is_perfect_entangler(u)
    if not v.is_pe:
        return
    assert np.all(v.weights >= 0.0)
    assert abs(v.weights.sum() - 1.0) <= 1e-12
    assert abs(v.weights @ v.phases) <= TOL_HULL
    psi_in, psi_out = entangling_input(u)
    assert abs(np.linalg.norm(psi_in) - 1.0) <= 1e-12
    assert abs(ent(psi_in)) <= 1e-9
    assert abs(abs(ent(psi_out)) - 0.5) <= 1e-9
    assert_allclose(psi_out, u @ psi_in, atol=1e-12)
