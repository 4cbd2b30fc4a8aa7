"""Property tests of the chamber geometry: the fold, gate coordinates, KAK
and the perfect-entangler predicates.

Inputs come from ``hypothesis`` (derandomized, so every run draws the same
examples); the oracles are the symmetry group itself (``weyl_orbit``), the
closed-form invariants, the defining identities of the inverse and of
local equivalence, the chamber polyhedron, and a polygon walk over the
hull of m's eigenvalues.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from conftest import gate_at, rand_chamber_point, rand_local, rand_u4
from weylgate import (
    WEYL_REFLECTIONS,
    canonicalize,
    coords_of_inverse,
    ent,
    entangling_input,
    gate_coords,
    in_chamber,
    invariants_from_coords,
    is_perfect_entangler,
    kak_decompose,
    kak_reconstruct,
    pe_from_coords,
    weyl_orbit,
)
from weylgate.chamber import TOL_BASE, _fold
from weylgate.entangler import TOL_HULL

PI = np.pi

PROPERTY = settings(derandomize=True, max_examples=150, deadline=None, database=None)

coord = st.floats(-7.0, 7.0, allow_nan=False, allow_infinity=False)
triples = st.tuples(coord, coord, coord).map(np.array)
seeds = st.integers(0, 2**32 - 1)

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
def test_fold_constant_on_orbit(c):
    ref = canonicalize(c)
    for image in weyl_orbit(c):
        assert_allclose(canonicalize(image), ref, atol=1e-9)


@PROPERTY
@given(triples)
def test_fold_moves_reproduce_output(c):
    out, moves = _fold(c)
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
def test_gate_coords_ignore_dressing_and_phase(c, seed):
    rng = np.random.default_rng(seed)
    u = gate_at(c)
    v = np.exp(1j * rng.uniform(0.0, 2 * PI)) * (rand_local(rng) @ u @ rand_local(rng))
    assert_allclose(gate_coords(v), gate_coords(u), atol=1e-7)


@PROPERTY
@given(seeds, st.booleans())
def test_coords_of_inverse_matches_adjoint(seed, structured):
    rng = np.random.default_rng(seed)
    u = gate_at(rng.uniform(-PI, PI, 3), rng) if structured else rand_u4(rng)
    assert_allclose(coords_of_inverse(gate_coords(u)), gate_coords(u.conj().T), atol=1e-7)


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
    assert v.is_pe == (v.margin >= np.cos((PI + TOL_HULL) / 2))


@PROPERTY
@given(pe_gates())
def test_pe_margin_matches_polygon_reference(u):
    v = is_perfect_entangler(u)
    assert abs(v.margin - _polygon_margin(v.phases)) <= 1e-9


@PROPERTY
@given(pe_gates())
def test_pe_witness_contract(u):
    if not is_perfect_entangler(u).is_pe:
        return
    psi_in, psi_out = entangling_input(u)
    assert abs(np.linalg.norm(psi_in) - 1.0) <= 1e-12
    assert abs(ent(psi_in)) <= 1e-9
    assert abs(abs(ent(psi_out)) - 0.5) <= 1e-9
    assert_allclose(psi_out, u @ psi_in, atol=1e-12)
