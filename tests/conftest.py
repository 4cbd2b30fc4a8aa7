"""Shared helpers for the test suite: seeded random gates and states, the
hypothesis setting of the property tests, the named two-body couplings, the
malformed trajectory times, the chamber-point comparison, the certified bound
of a trajectory row and the call spy."""

import sys
from collections import defaultdict
from functools import wraps

import numpy as np
import pytest
from hypothesis import settings
from numpy.testing import assert_allclose

from weylgate import (
    HamiltonianSpec,
    InvalidInputError,
    assemble_nonlocal,
    canonical_gate,
    cartan_conjugate,
)
from weylgate.cartan import _WEYL_ACTIONS
from weylgate.chamber import TOL_BASE
from weylgate.hamflow import _FLOOR

PI = np.pi

# Derandomized, so every run draws the same examples.
PROPERTY = settings(derandomize=True, max_examples=150, deadline=None, database=None)

# The named two-body couplings, by kind.
TWO_BODY = {
    "isotropic": HamiltonianSpec.isotropic,
    "xy": HamiltonianSpec.xy,
    "ising": HamiltonianSpec.ising,
    "exchange": lambda: HamiltonianSpec.exchange(1.0, 0.5, 0.2, 0.0),
    "exchange(0.7,0.3,0.1,0.05)": lambda: HamiltonianSpec.exchange(0.7, 0.3, 0.1, 0.05),
}

# Malformed trajectory times, by name -> (times, the error they raise).
BAD_TIMES = {
    "nan": ([0.0, float("nan")], ValueError),
    "inf": ([np.inf], ValueError),
    "2d": ([[0.1, 0.2]], ValueError),
    "scalar": (0.5, ValueError),
    "text": (["0.1"], InvalidInputError),
    "complex": (np.array([0.1j]), InvalidInputError),
    "bool": ([True, False], InvalidInputError),
}


def rand_su2(rng):
    """A Haar-random SU(2) matrix."""
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(z)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return q / np.sqrt(np.linalg.det(q).astype(complex))


def rand_local(rng):
    """A Haar-random SU(2)xSU(2) gate on two qubits."""
    return np.kron(rand_su2(rng), rand_su2(rng))


def rand_u4(rng):
    """A Haar-random U(4) matrix (QR of a complex Ginibre sample)."""
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rand_chamber_point(rng):
    """A uniform point of the canonical coordinate cell (rejection sampled)."""
    while True:
        c = np.sort(rng.uniform(0.0, np.pi, size=3))[::-1]
        if c[0] + c[1] <= np.pi:
            return c


def gate_at(coords, rng=None, phase=0.0):
    """The canonical gate at ``coords``, optionally dressed with random locals."""
    u = np.exp(1j * phase) * canonical_gate(coords)
    if rng is not None:
        u = rand_local(rng) @ u @ rand_local(rng)
    return u


def rand_nonlocal_hamiltonian(rng, min_coeff=0.05):
    """A traceless two-body Hamiltonian whose Cartan coefficients all clear
    ``min_coeff`` in magnitude (rejection sampled)."""
    while True:
        coeffs = rng.uniform(-1.0, 1.0, size=9)
        h = assemble_nonlocal(coeffs)
        target = cartan_conjugate(h)
        if np.min(np.abs(target.coeffs)) >= min_coeff:
            return h


# canonicalize's contract: where c3 lands within rounding of TOL_BASE with
# c1 > π/2, a point or its exact base mirror may come back.  The band is how
# near TOL_BASE both answers must sit for the mirror to be accepted.
_BASE_BAND = 4 * np.spacing(PI)


# How far P·c + π·n may miss the fold's image for an element P that ties with
# the fold's own: 8.9e-16 was the worst measured at |c| ≤ 7.  Where no other
# element comes this near, the element is unique.
TIE_BOUND = 4 * np.spacing(PI)


def weyl_misses(c, image):
    """Per element P of the Weyl group's table, |P·c + π·n - image| at the
    nearest integer vector n, for one triple c and its fold image."""
    pc = _WEYL_ACTIONS @ c
    return np.abs(pc + PI * np.rint((image - pc) / PI) - image).max(-1)


def assert_same_chamber_point(a, b, atol):
    """a equals b within ``atol``, or, both with c3 inside the band around
    TOL_BASE, the one with c1 > π/2 is the other's base mirror [π-c1, c2, c3]."""
    if np.max(np.abs(a - b)) <= atol:
        return
    hi, lo = (a, b) if a[0] > b[0] else (b, a)
    assert hi[0] > PI / 2, (a, b)
    assert abs(a[2] - TOL_BASE) <= _BASE_BAND and abs(b[2] - TOL_BASE) <= _BASE_BAND, (a, b)
    assert_allclose(np.sort([PI - hi[0], hi[1], hi[2]])[::-1], lo, atol=atol)


def certified_bound(g, times):
    """The certified bound |t|·slope + _FLOOR of each row of a trajectory,
    for the generator record ``g`` of a Josephson or two-body coupling."""
    slope = g.slope if g.josephson is None else g.josephson.slope
    return np.abs(times) * slope + _FLOOR


class Calls(defaultdict):
    """name -> the shape of the first argument of each call, in call order."""

    def counts(self) -> dict[str, int]:
        """name -> its number of calls, for each name called at least once."""
        return {name: len(shapes) for name, shapes in self.items() if shapes}


@pytest.fixture
def spy(monkeypatch):
    """``spy(*names)`` wraps the named weylgate functions and returns the
    ``Calls`` they record.  Each is wrapped in every weylgate namespace that
    holds the same object, the package included, under any name.  A wrapper
    keeps the name of the function it wraps, so a derivation that a record
    keeps under its name (``invariants._keep``) is kept under that name."""

    def wrap(*names) -> Calls:
        calls = Calls(list)
        namespaces = [mod for key, mod in sys.modules.items() if key.split(".")[0] == "weylgate"]
        for name in names:
            found = {id(f): f for mod in namespaces if (f := getattr(mod, name, None)) is not None}
            assert len(found) == 1, f"{len(found)} weylgate objects are named {name}"
            (fn,) = found.values()

            @wraps(fn)
            def wrapper(*args, _name=name, _fn=fn, **kwargs):
                calls[_name].append(np.shape(args[0]) if args else ())
                return _fn(*args, **kwargs)

            for mod in namespaces:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        monkeypatch.setattr(mod, attr, wrapper)
        return calls

    return wrap
