"""Trajectories of canonical coordinates generated by two-qubit Hamiltonians.

A Hamiltonian H generates the gate family U(t) = exp(i·H·t); this module
tracks the invariants and chamber coordinates along t for the standard
coupling models, provides closed-form invariant curves for the exactly
solvable ones, and solves the minimum-time CNOT problem for the
Josephson-junction (capacitively coupled charge qubit) model.  A coupling
is a ``HamiltonianSpec`` (a matrix enters as ``HamiltonianSpec.custom``); its
flow and Cartan form are derived once, each on first read, and kept by the
spec (``_Generator``); what synthesis derives from them, ``synth`` keeps on
the same record.

``trajectory`` takes a coordinate path per coupling.  A purely two-body H
(up to identity) has a local k with k·H·k† = (c1 σxσx + c2 σyσy + c3 σzσz)/2,
so U(t) is locally equivalent to A(t·c): its chamber point is the fold of
the line t·c.  The Josephson H commutes with σx⊗σx, so the spectrum of
m(U(t)) has a closed form in t, and its chamber point is the fold of the
raw coordinates of that spectrum.  One certificate per coupling, derived
once and kept by its generator record, bounds how far a row's closed form
can miss the invariants of the exact U(t): |t|·slope + _FLOOR.  A two-body
coupling's slope reads the magic transform and the eigenvector frame of its
Cartan form, so the conjugation is its one derivation.  A row whose
bound is at most 1e-8, the bound gate_coords checks, is such a fold, with
the closed-form invariants of its point and g2_imag_residual 0, and no U(t)
is formed for it.  Every other time, and every time of a coupling with
single-qubit terms of any other shape, forms U(t) from the flow, which only
such rows derive, and is read from the spectrum of m(U(t)).

Supported kinds
---------------
``isotropic``    (σxσx+σyσy+σzσz)/4 — exchange with equal couplings
``xy``           (σxσx+σyσy)/4
``ising``        σzσz/4
``exchange``     (Jxx σxσx + Jyy σyσy + Jxy σxσy + Jyx σyσx)/2
``josephson``    -(E_J/2)(σx⊗I + I⊗σx) + (E_J²/E_L)·σyσy, E_J = α·E_L
``custom``       any explicit Hermitian 4x4 matrix
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cartan import _PATTERN, _WORDS, TOL_BASE, _Conjugation, _conjugate, _fold_image, cartan_element
from .chamber import _TOL_VERIFY, _chamber_point, _gate_coords
from .entangler import _in_pe
from .errors import ConvergenceError, InvalidInputError, NotNonlocalError
from .invariants import LocalInvariants, _g_from_coords, _Gate, _invariants_of, _lazy
from .linalg import _as_array, _as_instance, _as_real, _finite_math, _flow, _frobenius, check_hermitian

__all__ = [
    "HamiltonianSpec",
    "JosephsonCnot",
    "Trajectory",
    "TrajectorySample",
    "closed_form_invariants",
    "exchange_coords",
    "josephson_cnot_min_time",
    "josephson_invariants",
    "parse_hamiltonian",
    "realize",
    "trajectory",
]

_K_MAX = 8  # the largest k of the odd quarter-period counts 2k+1 josephson_cnot_min_time searches

# The certificate of a two-body trajectory row: its closed-form invariants
# lie within |t|·slope + _FLOOR of those of the exact U(t), with one slope
# per coupling.  _Generator.slope derives these constants.
_L = 12.65  # ≥ 4·√10: invariant distance per unit of spectral distance between gates
_ROUND_LINE = 1.35e-16  # per unit of |t|·‖c‖₁: half the rounding of t·c and of its fold
_ROUND_FOLD = 2.8e-15  # half the rounding of the fold that does not grow with |t|
_FLOOR = _L * _ROUND_FOLD + TOL_BASE + 1e-13  # and the base mirror's sign, and the closed form's rounding
_ROUND_JOSEPHSON = 7.9e-15  # per unit of Ω·|t|: a Josephson row's rounding (_Generator.josephson)
# δ of a two-body coupling (_Generator.slope) reads the magic transform s
# and the eigenvector frame that _conjugate formed.  The frame's residual and
# orthogonality defect are measured in long double, a 64-bit significand on
# x86 and double where the platform has no wider type, with unit roundoff
# _U_LONG.
_U = 2.0**-53
_U_LONG = float(np.finfo(np.longdouble).eps) / 2
_ROUND_MAGIC = 9.2e-16  # per unit of ‖s‖_F: the rounding of s
_HALF_PATTERN = _PATTERN.astype(np.longdouble) / 2.0
_EYE_LONG = np.eye(4, dtype=np.longdouble)
_ONES = np.ones(4)


@dataclass(frozen=True)
class HamiltonianSpec:
    """A named Hamiltonian family plus its parameters, kept as given (hashable,
    exact); ``realize`` parses them on the spec's first use."""

    kind: str
    params: tuple[float, ...] = ()

    @staticmethod
    def isotropic() -> "HamiltonianSpec":
        return HamiltonianSpec("isotropic")

    @staticmethod
    def xy() -> "HamiltonianSpec":
        return HamiltonianSpec("xy")

    @staticmethod
    def ising() -> "HamiltonianSpec":
        return HamiltonianSpec("ising")

    @staticmethod
    def exchange(jxx: float, jyy: float, jxy: float = 0.0, jyx: float = 0.0) -> "HamiltonianSpec":
        return HamiltonianSpec("exchange", (jxx, jyy, jxy, jyx))

    @staticmethod
    def josephson(alpha_ratio: float, e_l: float = 1.0) -> "HamiltonianSpec":
        return HamiltonianSpec("josephson", (alpha_ratio, e_l))

    @staticmethod
    def custom(matrix) -> "HamiltonianSpec":
        h = check_hermitian(matrix)  # each entry as (re, im): complex viewed as float pairs
        return HamiltonianSpec("custom", tuple(h.view(float).ravel().tolist()))

    @_lazy
    def _generator(self) -> "_Generator":
        """This spec's generator record, derived on first use and kept by
        the spec (a failed derivation is not kept, and raises again)."""
        return _Generator(realize(self))


# The matrices of the named kinds, built once from their Cartan
# coefficients (realize hands out copies), and the parameters per kind.
_NAMED = {
    kind: cartan_element(c)
    for kind, c in {"isotropic": [0.5, 0.5, 0.5], "xy": [0.5, 0.5, 0.0], "ising": [0.0, 0.0, 0.5]}.items()
}
_ARITY = {"isotropic": 0, "xy": 0, "ising": 0, "exchange": 4, "josephson": 2, "custom": 32}

# The Pauli words x1, x2, xx, xy, yx, yy (rows of _WORDS, see BASIS_LABELS).
_X1, _X2, _XX, _XY, _YX, _YY = _WORDS[[0, 3, 6, 7, 9, 10]]


@_finite_math
def realize(spec: HamiltonianSpec) -> np.ndarray:
    """The explicit Hermitian matrix of a HamiltonianSpec (nothing else), which it checks."""
    kind = _as_instance(_as_spec(spec).kind, str, "Hamiltonian kind")
    params = _as_array(spec.params, (_ARITY.get(kind),), f"{kind} params", InvalidInputError, float)
    if kind in _NAMED:
        return _NAMED[kind].copy()
    if kind == "exchange":
        jxx, jyy, jxy, jyx = params
        return 0.5 * (jxx * _XX + jyy * _YY + jxy * _XY + jyx * _YX)
    if kind == "josephson":
        alpha, e_l = params
        if alpha <= 0 or e_l <= 0:
            raise InvalidInputError("InvalidParams: josephson needs alpha_ratio > 0, e_l > 0")
        e_j = alpha * e_l
        return -0.5 * e_j * (_X1 + _X2) + (alpha * e_j) * _YY  # α²·E_L: E_J² under- or overflows
    if kind == "custom":
        return check_hermitian((params[0::2] + 1j * params[1::2]).reshape(4, 4))
    raise InvalidInputError(f"UnsupportedKind: {kind!r}")


class _Josephson(NamedTuple):
    """The closed form of a Josephson flow (``_Generator.josephson``): β,
    E_J and Ω = hypot(β, E_J), each scaled by 2^-e, the power of two 2^e
    that takes t to the same scale, and the slope of its rows' certificate."""

    beta: float
    e_j: float
    omega: float
    scale: float
    slope: float


class _Generator:
    """What flows need of one checked Hamiltonian h, which depends on the
    coupling alone and not on any target, each part derived on first read:
    the flow t ↦ exp(i·h·t), diagonalized as U(t) = V·e^{i·w·t}·V†, with its
    eigenpair (w, V, V†), which synthesis, the Josephson CNOT search and
    trajectory rows past the reach read; the Cartan conjugation, whose magic
    transform and frame also serve the certificate; the Josephson closed
    form; and the certificate of trajectory rows (``slope``, ``josephson``
    and ``reach``).  A trajectory whose rows are all certified derives no
    flow.

    An h with single-qubit terms has no Cartan form: ``two_body`` keeps
    None for it, and ``cartan`` raises NotNonlocalError on every use.
    """

    def __init__(self, h):
        self.h = h

    @_lazy
    def flow(self):
        """t ↦ exp(i·h·t), with the eigenpair in its ``args``."""
        return _flow(self.h)

    @_lazy
    def w(self) -> np.ndarray:
        return self.flow.args[0]

    @_lazy
    def v(self) -> np.ndarray:
        return self.flow.args[1]

    @_lazy
    def vh(self) -> np.ndarray:
        return self.flow.args[2]

    @_lazy
    def two_body(self) -> _Conjugation | None:
        """The Cartan conjugation of h (its identity part dropped), with what
        it formed on the way, or None when h has single-qubit terms."""
        try:
            return _conjugate(self.h)
        except NotNonlocalError:
            return None

    @property
    def cartan(self) -> _Conjugation:
        # _conjugate raises NotNonlocalError again, with its message
        return self.two_body or _conjugate(self.h)

    @_lazy
    def reach(self) -> float:
        """The largest |t| whose trajectory row the certificate covers, where
        |t|·slope + _FLOOR meets _TOL_VERIFY, with the Josephson closed
        form's slope for a Josephson h (``josephson``; it takes precedence
        where _conjugate also counts h as two-body) and ``slope`` for any
        other two-body h; -inf for any other h with single-qubit terms,
        whose rows all read the spectrum."""
        if self.josephson is not None:
            slope = self.josephson.slope
        elif self.two_body is not None:
            slope = self.slope
        else:
            return -np.inf
        # A slope that underflows to 0 reaches every time: what it lost,
        # below 1e-307, times any |t| < 1.8e308 is below 1e-15.
        return (_TOL_VERIFY - _FLOOR) / slope if slope else np.inf

    @_lazy
    def josephson(self) -> _Josephson | None:
        """The closed form of a Josephson h, or None for any other h.  h
        must equal -(E_J/2)(X1 + X2) + β·YY bit for bit, with E_J =
        -2·Re h01 ≠ 0 and β = -Re h03: the expression ``realize`` builds,
        so the closed form is that of the very matrix whose flow it replaces.

        Such an h commutes with σx⊗σx.  In the magic basis Q†·h·Q =
        [[-β, -i·E_J], [i·E_J, β]] ⊕ (-β) ⊕ (β), and det U(t) = 1.  With
        Ω = hypot(β, E_J), a = β/Ω, b = E_J/Ω, x = Ω·t, s = sin x and
        c = cos x, the 2×2 block of m(U(t)) is BᵀB = (c² - s²(a² - b²))·I
        - 2i·a·c·s·σz - 2i·a·b·s²·σx, so m(U(t)) has the eigenphases
        (φ, -φ, -2βt, 2βt), φ = atan2(r, p) with r = 2|a·s|·√(c² + b²s²)
        and p = c² - s²(a² - b²), and a row's raw coordinates
        (``cartan._raw_coords`` of those phases) are (0, (2βt - φ)/2,
        (2βt + φ)/2).  As cos φ = b² + a²·cos 2x, |dφ/dx| =
        2|a·c|/√(b² + a²c²) ≤ 2.  β and E_J are scaled by the power of two
        2^-e that puts the larger in [1/2, 1), and t by 2^e, which changes
        no rounding of normal numbers and keeps Ω from over- or underflowing.

        The certificate follows ``slope``: with Δ the move of the computed
        raw coordinates and their fold off an exact symmetry image of the
        exact ones, a row misses U(t)'s invariants by at most L·‖Δ‖₁/2 +
        TOL_BASE + 1e-13 (steps 2 to 4 there).  h is the flow's own matrix,
        so there is no δ.  With u = 2^-53, and hypot, sin, cos and atan2
        within 1, 4, 4 and 4 ulp (2u, 8u, 8u and 8u of their value):

        1. x̃ = fl(Ω̃·t) misses Ω·t by 3u·Ω|t|, so φ moves by 6u·Ω|t|;
           fl(2β·t) misses 2βt by 2u·|β||t| ≤ 2u·Ω|t|.
        2. The φ formula at x̃: a and b carry 3u, s and c 8u, so r carries
           27u of itself and p 27u in all (s² + c² = 1).  φ moves by at
           most |Δr| + r·|Δp| and atan2's 8u·φ, with r ≤ φ ≤ 2|x̃|: by
           124u·|x̃| to first order, and by 128u·|x̃| in all.
        3. fl(2βt ∓ φ) rounds each raw coordinate by u of itself, as
           fl(t·c_j) does a two-body one, and the coordinates' 1-norm is
           max(|2βt|, φ) ≤ 2Ω|t|: with the fold, 2Ω|t|·_ROUND_LINE +
           _ROUND_FOLD (``slope``, step 3).

        Steps 1 and 2 move each nonzero coordinate by half the moves of 2βt
        and φ, so ‖Δ‖₁/2 ≤ Ω|t|·(2·_ROUND_LINE + (2 + 6 + 128)u/2) + _ROUND_FOLD
        = Ω|t|·7.82e-15 + _ROUND_FOLD, and _ROUND_JOSEPHSON = 7.9e-15
        covers it with the factors 1 + 70u of the rounded bounds.  A row
        then misses by at most |t|·slope + _FLOOR, with slope =
        L·Ω·_ROUND_JOSEPHSON.  Underflow adds at most 2^-1075 to a
        rounding, below 1e-320 in all, which the 1e-13 of _FLOOR holds.
        """
        h = self.h
        e_j, beta = -2.0 * h[0, 1].real, -h[0, 3].real
        if e_j == 0.0 or not np.array_equal(h, -0.5 * e_j * (_X1 + _X2) + beta * _YY):
            return None
        e = int(np.frexp(max(abs(e_j), abs(beta)))[1])
        beta, e_j = float(np.ldexp(beta, -e)), float(np.ldexp(e_j, -e))
        omega = float(np.hypot(beta, e_j))
        slope = _L * float(np.ldexp(omega, e)) * _ROUND_JOSEPHSON
        return _Josephson(beta, e_j, omega, float(np.ldexp(1.0, e)), slope)

    @_lazy
    def slope(self) -> float:
        """How fast the certified bound on a two-body row's invariants grows
        with |t|: the closed form of the row's point misses the invariants of
        the exact U(t) = exp(i·h·t) by at most |t|·slope + _FLOOR.

        Let k·h·k† = A_H(c) + e0·I be the Cartan form, A_H(c) =
        (c1 σxσx + c2 σyσy + c3 σzσz)/2, k̃ an exactly unitary local gate
        near k, and B = e0·I + k̃†·A_H(c)·k̃, so that exp(i·B·t) is locally
        equivalent to A(t·c), with the invariants G(t·c) of its closed form.
        With δ ≥ ‖h − B‖₂, the row at t is bounded in four steps:

        1. ‖exp(i·h·t) - exp(i·B·t)‖₂ ≤ |t|·δ (Duhamel's formula; Higham,
           *Functions of Matrices*, SIAM 2008, ch. 10).
        2. L: for gates U and V with V†·U = exp(i·X), move V to U along
           V·exp(i·s·X), s from 0 to 1.  The phase part of X moves no
           invariant, so with X₀ = X - tr(X)/4 and X₀ in the magic basis,
           dg1 = (i/4)·tr(m)·tr(m·X₀)/det U·ds and
           dg2 = i·tr((tr(m)·m - m²)·X₀)/det U·ds.  As m is unitary,
           |tr m| ≤ 4, ‖tr(m)·m - m²‖₂ = max_j |tr(m) - λ_j(m)| ≤ 3, and
           |tr(M·X₀)| ≤ ‖M‖₂·‖X₀‖_* ≤ 4·‖M‖₂·‖X‖₂, so the invariants move
           by at most √(4² + 12²)·‖X‖₂ = 4√10·‖X‖₂, and ‖X‖₂ =
           2·asin(‖U - V‖₂/2).  _L = 12.65 covers 4√10 = 12.6491 and the
           asin, for ‖U - V‖₂ ≤ 0.01.
        3. The allowance: the row's point is the fold of fl(t·c), and each
           rounding moves it off an exact symmetry image of t·c.  fl(t·c_j)
           by u·|t·c_j|, u = 2^-53; each mod π by 8u + |n_j|·(u·π + |fl(π) - π|),
           with |n_j| ≤ |t·c_j|/3 + 1 multiples of π taken off; the
           reflection and the base mirror by u·π + |fl(π) - π| on at most
           three coordinates.  In all, with |fl(π) - π| = 1.2246e-16,
           ‖Δc‖₁ ≤ |t|·‖c‖₁·2.681e-16 + 5.49e-15, and A(c)'s phases are
           _PATTERN·c/2, so the canonical gates of the two points lie
           ‖Δc‖₁/2 apart: |t|·‖c‖₁·_ROUND_LINE + _ROUND_FOLD.
        4. The chamber point takes magnitudes: a mirrored c3 in
           [-TOL_BASE, 0] changes sign, which conjugates g1 and moves it by
           at most |c3| ≤ TOL_BASE.  The closed form's own rounding, with
           sin and cos within 4 ulp, is below 1e-13.

        So the row misses by at most L·(|t|·δ + |t|·‖c‖₁·_ROUND_LINE +
        _ROUND_FOLD) + TOL_BASE + 1e-13 = |t|·slope + _FLOOR, with slope =
        L·(δ + ‖c‖₁·_ROUND_LINE).

        δ is measured on what _conjugate formed (``two_body``): the magic
        transform s = fl(Q̂†·X·Q̂) of X = fl(h - e0·I), e0 the computed
        double, and the real frame V of Re s, with k = Q·Vᵀ·Q† and
        Λ = diag(_PATTERN·c)/2 = Q†·A_H(c)·Q.  Write V = Ṽ·P, its polar
        decomposition.  Ṽ is orthogonal with det V's sign, +1
        (``linalg._eigh``), so k̃ = Q·Ṽᵀ·Q† is local and exactly unitary,
        and Q†·(h - e0·I - k̃†·A_H(c)·k̃)·Q = S - Ṽ·Λ·Ṽᵀ, S = Q†·(h - e0·I)·Q
        exact.  As V·Λ·Vᵀ = Ṽ·P·Λ·P·Ṽᵀ, it misses Ṽ·Λ·Ṽᵀ by at most
        ‖Λ‖₂·ζ·(2 + ζ), ζ ≥ ‖P - I‖_F: with ξ = ‖Vᵀ·V - I‖_F, each singular
        value σ of V has σ ≥ √(1 - ξ) ≥ 1 - ξ and |σ - 1| = |σ² - 1|/(1 + σ),
        so ζ = ξ/(2 - ξ) for ξ < 1, and ζ = ξ for any ξ.  The first is
        taken below ξ = 1/2 and the second above, where either makes
        ζ·(2 + ζ) grow at most twice as fast as ξ, relatively.  So

            δ = ‖S - s‖_F + ‖Im s‖_F + ‖Re s - V·Λ·Vᵀ‖_F + ‖Λ‖₂·ζ·(2 + ζ).

        ‖Im s‖_F is the single-qubit norm that _conjugate tests against
        1e-9·max(1, ‖h‖_F), so δ holds the single-qubit part it drops.
        With u = 2^-53, u_L the long double's unit roundoff (2^-64 on x86)
        and γ_n = n·u/(1 - n·u) (Higham, *Accuracy and Stability of
        Numerical Algorithms*, 2nd ed., SIAM 2002, ch. 3):

        a. The transform.  Every nonzero entry of Q̂ = fl(Q) is ±a or ±i·a,
           a = fl(1/fl(√2)), so Q̂ = (1 + η)·Q with η = a·√2 - 1 = -8.9e-17,
           |η| ≤ 0.8u.  Each row and column of Q̂ holds two, so each real
           part of an entry of P = fl(Q̂†·X), and of fl(P·Q̂), is a sum of
           two rounded real products and exact zeros, which misses by
           γ_2·|Q̂†|·|X| and γ_2·|P|·|Q̂|; ‖|Q̂|‖₂ = 2a = √2·(1 + η) and
           ‖P‖_F ≈ ‖X‖_F.  X's diagonal is rounded by u of itself.  So
           ‖S - s‖_F ≤ (u + 2|η| + 2·√2·γ_2)·‖X‖_F = 8.26u·‖X‖_F to first
           order, with ‖X‖_F = ‖S‖_F ≤ ‖s‖_F·(1 + 9u) and ‖s‖_F read by
           hypot within 3u: _ROUND_MAGIC = 9.2e-16 per unit of the measured
           ‖s‖_F covers 8.26u·(1 + 13u) = 9.17e-16.
        b. The frame, which ``linalg._eigh`` does not check: R and G are
           the trajectory path's only measure of it.  s and c are scaled by
           2^-e, ‖s‖_F·2^-e in [1/2, 1), so nothing overflows and only
           entries below 2^-1022 of ‖s‖_F lose bits.  R = Re s - V·Λ·Vᵀ and
           G = I - V·Vᵀ, ‖G‖_F = ξ, are formed in long double from one
           product (V·diag(λ), V)·Vᵀ.  With n = ‖c‖₁/2 ≥ ‖Λ‖₂, λ =
           _PATTERN·c/2 rounded by γ_2^L·n, products
           of length 4 and ‖|V|·D·|V|ᵀ‖_F ≤ ‖D‖₂·‖V‖_F² ≤ ‖D‖₂·(4 + 2ξ):
           ‖R‖_F ≤ ‖R̂‖_F·(1 + 1.01u_L) + n·(γ_5^L·(4 + 2ξ)·(1 + γ_2^L) +
           2γ_2^L·(1 + ξ)) ≤ ‖R̂‖_F·(1 + 1.01u_L) + 25u_L·n·(1 + ξ), and
           ξ ≤ (‖Ĝ‖_F·(1 + 1.01u_L) + 4γ_4^L)/(1 - 2γ_4^L).  A norm, 16
           squares summed and a square root, is read within 9.1u_L, and its
           conversion to double within u: the measured r bounds ‖R̂‖_F and
           g + 17u_L bounds ξ, within 1 + u + 19u_L of themselves.
        c. The sum.  δ = 2^e·δ', with δ' = _ROUND_MAGIC·‖s‖_F + ‖Im s‖_F +
           r + n·(ζ·(2 + ζ) + 25u_L·(1 + ξ)) in scaled units, ξ and ζ read
           from g + 17u_L.  Each term is formed within a relative 16u +
           38u_L of what it bounds: ‖Im s‖_F by hypot within 2u, r within
           u + 10.2u_L, ζ·(2 + ζ) within 2·(2u + 19u_L) from ξ and 6u from
           its own four roundings, n·(…) within 4u more (the 1-norm's two
           roundings among them), then at most three additions and the
           product by the factor 1 + 24u + 64u_L, which covers these and
           the slope's last two roundings.  The factor rounds to 1 + 24u
           where u_L = 2^-64, and is 1 + 88u where long double is double.
           Its slack, above 5u·_ROUND_MAGIC/2 in scaled units, holds what
           scaling the entries of Re s and c loses below 2^-1074.  A δ that
           underflows loses at most 2^-1075, which times any |t| < 1.8e308
           the 1e-13 of _FLOOR holds.
        """
        form = self.two_body
        size = math.hypot(*form.s.real.flat, form.local)  # ‖s‖_F
        e = math.frexp(size)[1]
        lam = _HALF_PATTERN @ np.ldexp(form.coeffs, -e)
        v = form.frame.astype(np.longdouble)
        res = np.array([np.ldexp(form.s.real, -e), _EYE_LONG]) - (v * np.array([lam, _ONES])[:, None]) @ v.T
        r, g = _frobenius(res).astype(float)
        xi = g + 17.0 * _U_LONG
        zeta = xi / (2.0 - xi) if xi < 0.5 else xi
        norm1 = float(np.abs(form.coeffs).sum())
        n = math.ldexp(norm1, -e) / 2.0
        delta = _ROUND_MAGIC * math.ldexp(size, -e) + math.ldexp(form.local, -e) + r
        delta += n * (zeta * (2.0 + zeta) + 25.0 * _U_LONG * (1.0 + xi))
        return _L * (math.ldexp(delta * (1.0 + 24.0 * _U + 64.0 * _U_LONG), e) + norm1 * _ROUND_LINE)


def _as_spec(spec) -> HamiltonianSpec:
    """``spec`` if it is a HamiltonianSpec, else InvalidInputError."""
    return _as_instance(spec, HamiltonianSpec, "coupling (for a matrix, HamiltonianSpec.custom)")


def _generator(spec) -> _Generator:
    """The generator record of a spec, which the spec keeps."""
    return _as_spec(spec)._generator


def parse_hamiltonian(text: str) -> HamiltonianSpec:
    """Parse a command-line Hamiltonian description.

    Accepts ``isotropic``, ``xy``, ``ising``, ``exchange(jxx,jyy[,jxy,jyx])``,
    ``josephson(alpha[,e_l])``.
    """
    s = _as_instance(text, str, "Hamiltonian").strip().lower()
    if s in ("isotropic", "heisenberg", "xy", "ising"):
        return HamiltonianSpec("isotropic" if s == "heisenberg" else s)
    for name in ("exchange", "josephson"):
        if s.startswith(name + "(") and s.endswith(")"):
            try:
                args = [float(p) for p in s[len(name) + 1 : -1].split(",")]
            except ValueError as exc:  # an empty field too: float("") raises
                raise InvalidInputError(f"InvalidSpec: bad or empty number in {text!r}") from exc
            if name == "exchange":
                if len(args) not in (2, 4):
                    raise InvalidInputError("InvalidSpec: exchange(jxx,jyy[,jxy,jyx])")
                return HamiltonianSpec.exchange(*args)
            if len(args) not in (1, 2):
                raise InvalidInputError("InvalidSpec: josephson(alpha[,e_l])")
            return HamiltonianSpec.josephson(*args)
    raise InvalidInputError(f"UnsupportedKind: {text!r}")


@dataclass(frozen=True, eq=False)
class TrajectorySample:
    """One point of a trajectory: U(t)'s coordinates, invariants and PE status."""

    t: float
    coords: np.ndarray
    invariants: LocalInvariants
    is_pe: bool


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A trajectory as columns, one row per time: ``t`` (N), ``coords``
    (N, 3), ``g1`` (N, complex), ``g2`` (N), ``g2_imag_residual`` (N) and
    ``is_pe`` (N, bool).  A row that ``trajectory`` certified in closed form
    (two-body and Josephson couplings, within the certificate's reach) has
    the closed-form g1 and g2 of its coordinates and g2_imag_residual 0; a
    row read from the spectrum has U(t)'s own.

    It reads as the sequence of its rows: ``table[i]`` builds each
    ``TrajectorySample`` when it is read, with built-in scalars and
    ``coords[i]`` as a view, iteration reads the rows through indexing up
    to ``len``, and ``table[a:b]`` is the table of the sliced columns.
    ``trajectory`` returns columns that are fresh and writable, shared with
    no other table or call.
    """

    t: np.ndarray
    coords: np.ndarray
    g1: np.ndarray
    g2: np.ndarray
    g2_imag_residual: np.ndarray
    is_pe: np.ndarray

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Trajectory(
                self.t[i], self.coords[i], self.g1[i], self.g2[i], self.g2_imag_residual[i], self.is_pe[i]
            )
        i = operator.index(i)
        inv = LocalInvariants(complex(self.g1[i]), float(self.g2[i]), float(self.g2_imag_residual[i]))
        return TrajectorySample(float(self.t[i]), self.coords[i], inv, bool(self.is_pe[i]))


@_finite_math
def trajectory(spec, times) -> Trajectory:
    """Coordinates, invariants, and PE status of exp(iHt) along a time grid
    (a 1-D sequence of finite reals, else InvalidInputError), all times in
    one stacked pass, as a ``Trajectory`` table with one row per time.

    A two-body coupling, k·H·k† = (c1 σxσx + c2 σyσy + c3 σzσz)/2 up to
    identity, makes U(t) locally equivalent to A(t·c); the Josephson
    coupling, which commutes with σx⊗σx, gives m(U(t)) eigenphases in
    closed form.  A row whose certified bound, |t|·slope + _FLOOR with one
    slope per coupling (see ``_Generator.slope`` and
    ``_Generator.josephson``), is at most 1e-8, the bound gate_coords
    checks, is the fold of t·c or of the Josephson raw coordinates: g1 and
    g2 are the closed form of its point, g2_imag_residual is 0, and no U(t)
    is formed.  Every other row, and every row of a coupling with
    single-qubit terms of any other shape, forms U(t) and is read from the
    spectrum of m(U(t)), with U(t)'s invariants.
    """
    g = _generator(spec)
    times = _as_array(times, (None,), "times", InvalidInputError, float)
    near = np.abs(times) <= g.reach
    if not near.any():
        coords, (g1, g2c) = _gate_coords(g.flow(times[:, None, None]))
    elif near.all():
        coords, (g1, g2c) = _folded(g, times)
    else:
        coords, g1, g2c = np.empty((len(times), 3)), np.empty(len(times), complex), np.empty(len(times), complex)
        coords[near], (g1[near], g2c[near]) = _folded(g, times[near])
        far = ~near
        coords[far], (g1[far], g2c[far]) = _gate_coords(g.flow(times[far, None, None]))
    # A stack record's pair is read-only: the table takes its own copies.
    return Trajectory(times, coords, g1.copy(), g2c.real.copy(), np.abs(g2c.imag), _in_pe(coords))


def _folded(g: _Generator, times):
    """The certified rows of a coupling: the chamber points of its raw
    coordinates, the Josephson closed form's or t·c, and their closed-form
    (g1, g2)."""
    j = g.josephson
    raw = times[:, None] * g.two_body.coeffs if j is None else _josephson_raw(j, times)
    coords = _chamber_point(_fold_image(raw))
    return coords, _g_from_coords(coords)


def _josephson_raw(j: _Josephson, times):
    """The raw coordinates (0, (2βt - φ)/2, (2βt + φ)/2) of a Josephson
    flow at ``times``, a stack (N, 3) (``_Generator.josephson``)."""
    t = times * j.scale
    a, b = j.beta / j.omega, j.e_j / j.omega
    b2 = b * b
    x = j.omega * t
    s, c = np.sin(x), np.cos(x)
    ss, cc = s * s, c * c
    phi = np.arctan2(2.0 * np.abs(a * s) * np.sqrt(cc + b2 * ss), cc - (a * a - b2) * ss)
    y = 2.0 * j.beta * t
    return np.stack([np.zeros_like(y), (y - phi) / 2.0, (y + phi) / 2.0], axis=-1)


@_finite_math
def exchange_coords(jxx: float, jyy: float, jxy: float = 0.0, jyx: float = 0.0) -> np.ndarray:
    """Cartan coefficients of the generalized exchange Hamiltonian, closed form.

    The two-body part splits into two commuting rotation planes with radii

        r1 = sqrt((Jxx+Jyy)² + (Jxy-Jyx)²),   r2 = sqrt((Jxx-Jyy)² + (Jxy+Jyx)²)

    giving coefficients ((r1+r2)/2, |r1-r2|/2, 0): the flow stays on the
    chamber base, so this family never reaches the SWAP corner.
    """
    jxx, jyy, jxy, jyx = _as_array([jxx, jyy, jxy, jyx], (4,), "couplings", InvalidInputError, float)
    r1 = float(np.hypot(jxx + jyy, jxy - jyx))
    r2 = float(np.hypot(jxx - jyy, jxy + jyx))
    return np.array([(r1 + r2) / 2.0, abs(r1 - r2) / 2.0, 0.0])


@_finite_math
def closed_form_invariants(kind: str, t: float) -> LocalInvariants:
    """Exact invariant curves for the three named exchange flows.

    isotropic:  G1 = e^{it}(3+e^{-2it})²/16,  G2 = 3·cos t
    xy:         G1 = cos⁴(t/2),               G2 = 1 + 2·cos t
    ising:      G1 = cos²(t/2),               G2 = 2 + cos t
    """
    t = _as_real(t, "t")
    if kind == "isotropic":
        g1 = np.exp(1j * t) * (3.0 + np.exp(-2j * t)) ** 2 / 16.0
        return LocalInvariants(complex(g1), float(3.0 * np.cos(t)), 0.0)
    if kind == "xy":
        return LocalInvariants(complex(np.cos(t / 2.0) ** 4), float(1.0 + 2.0 * np.cos(t)), 0.0)
    if kind == "ising":
        return LocalInvariants(complex(np.cos(t / 2.0) ** 2), float(2.0 + np.cos(t)), 0.0)
    raise InvalidInputError(f"UnsupportedKind: no closed form for {kind!r}")


@_finite_math
def josephson_invariants(alpha_ratio: float, e_l: float, t: float) -> LocalInvariants:
    """Closed-form invariants of the Josephson-junction flow.

    With x = cos(α²·E_L·t) and y = cos(sqrt(α²+1)·α·E_L·t):

        G1 = (α²(x²+y²-1) + x²)² / (1+α²)²
        G2 = (3α² - 1 - 4y²α² + 8α²x²y² + 4x² - 4x²α²) / (1+α²)
    """
    args = _as_array([alpha_ratio, e_l, t], (3,), "alpha_ratio, e_l and t", InvalidInputError, float)
    alpha_ratio, e_l, t = args
    a2 = float(alpha_ratio) ** 2
    x = np.cos(a2 * e_l * t)
    y = np.cos(np.sqrt(a2 + 1.0) * alpha_ratio * e_l * t)
    x2, y2 = x * x, y * y
    g1 = (a2 * (x2 + y2 - 1.0) + x2) ** 2 / (1.0 + a2) ** 2
    g2 = (3.0 * a2 - 1.0 - 4.0 * y2 * a2 + 8.0 * a2 * x2 * y2 + 4.0 * x2 - 4.0 * x2 * a2) / (
        1.0 + a2
    )
    return LocalInvariants(complex(g1), float(g2), 0.0)


@dataclass(frozen=True)
class JosephsonCnot:
    """Minimum-time CNOT-class working point of the Josephson model."""

    alpha_ratio: float
    t: float
    pulse_index: int  # the odd quarter-period count (2k+1) the root sits on
    invariants: LocalInvariants


@_finite_math
def josephson_cnot_min_time(e_l: float = 1.0) -> JosephsonCnot:
    """Search the CNOT-class times of the Josephson flow and return the fastest.

    A CNOT-class gate requires cos²(α²E_L·t) = 1/2, i.e. α²E_L·t = (2k+1)π/4,
    together with 2α²·cos²(sqrt(1+α⁻²)(2k+1)π/4) = α² - 1.  The second
    condition is scanned for sign changes on 1 < α ≤ 12 for all k ≤ 8 at
    once, and every bracket is bisected at once; each root is verified on
    one stacked record of the actual invariants of exp(iHt) (|G1| ≤ 1e-6
    and |G2 - 1| ≤ 1e-6), and the verified root with the smallest t wins.
    The optimum sits at k = 2: α ≈ 1.1992, t ≈ 2.7309/E_L.
    """
    e_l = _as_real(e_l, "e_l")
    if e_l <= 0:
        raise InvalidInputError("InvalidParams: e_l must be positive")

    def f(alpha, q):
        return 2.0 * alpha**2 * np.cos(np.sqrt(1.0 + alpha**-2) * q) ** 2 - (alpha**2 - 1.0)

    grid = np.linspace(1.0 + 1e-9, 12.0, 4001)
    quarters = (2 * np.arange(_K_MAX + 1) + 1) * np.pi / 4.0
    sign = np.signbit(f(grid, quarters[:, None]))
    k, i = np.nonzero(sign[:, :-1] != sign[:, 1:])  # every bracket of every k
    q, lo, hi = quarters[k], grid[i], grid[i + 1]
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        left = np.signbit(f(lo, q)) != np.signbit(f(mid, q))
        lo, hi = np.where(left, lo, mid), np.where(left, mid, hi)
    alpha = 0.5 * (lo + hi)
    t = q / (alpha**2 * e_l)
    u = np.array([HamiltonianSpec.josephson(a, e_l)._generator.flow(s) for a, s in zip(alpha, t)])
    g1, g2 = _Gate(u).invariant_pair
    verified = (np.abs(g1) <= 1e-6) & (np.abs(g2.real - 1.0) <= 1e-6)
    if not verified.any():
        raise ConvergenceError("NoSolutionInRange: no verified CNOT-class root for any pulse index")
    j = np.where(verified, t, np.inf).argmin()
    return JosephsonCnot(float(alpha[j]), float(t[j]), int(2 * k[j] + 1), _invariants_of(_Gate(u[j])))
