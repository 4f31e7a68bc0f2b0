"""Decoherence exponents and fringe contrast for electron interferometers.

Two exponents modify the fringe term of a two-path interference pattern by
a factor e^W with W = W_vacuum + W_photon: the vacuum term is the
fluctuation average of the relative phase along the two paths (finite only
for extended wavepackets, whence the shape constant kappa and size ell),
and the photon term accounts for which-path information carried away by
emitted radiation.  Two benchmark geometries are assembled here.  A packet
enters only through those two numbers, so the exponents take (kappa, ell)
and leave the packet's shape to the caller (edecoh.wavepacket).

Parallel paths, separation r0, flight time T (rest frame):

    W_vacuum = (alpha/pi) [2 - kappa + 2 ln(T/ell)]
    W_photon = (alpha/pi) K(T, r0)   ~   -2 (alpha/pi) [1 + ln(T/r0)]

so for T >> r0 the total plateaus at (alpha/pi) [2 ln(r0/ell) - kappa],
independent of flight time.

Intersecting paths forming a V of half-opening angle theta, short arms L1
meeting at the vertex and long arms L2 at speed v:

    W_vacuum = -(alpha/2 pi) [2 J_aa + J_bb + 4 J_ab]
    W_photon = +(alpha/2 pi) [2 I_aa + I_bb + 4 I_ab]

With the asymptotic cross term the static sum telescopes to
(alpha/2 pi) [3 (2 - kappa) + 2 ln(L2/(ell v^3))], the radiation sum to
-(alpha/pi) [1 - ln 2 + ln(L2/(ell v sin(theta)))], and their total to

    W = (alpha/2 pi) [2 ln(2 sin(theta)/v^2) + 4 - 3 kappa]

in which both ell and L2 cancel identically; the closed branch realizes
that cancellation to rounding, while the assembled branch keeps the exact
cross terms J_ab and I_ab and the numeric I_aa for cross-checks.

Positive W (possible here: vacuum fluctuations can recohere an initially
fuzzy phase) is reported as-is, never clamped.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

from .kernels import (
    IntersectingGeometry,
    kernel_K_closed,
    segment_I_aa,
    segment_I_ab,
    segment_I_bb,
    segment_J_ab_closed,
    segment_J_straight,
)
from .base import log_ratio, require_finite, split_product

__all__ = [
    "ALPHA_FS",
    "ParallelGeometry",
    "IntersectingGeometry",
    "DecoherenceResult",
    "ValidityInput",
    "RELATIVISTIC_NOTE",
    "w_total_parallel",
    "w_total_intersecting",
    "interference_pattern",
    "max_flight_distance",
    "check_regime",
]

# fine-structure constant, the only coupling entering the exponents
ALPHA_FS = 7.2973525693e-3

# hbar*c in eV*m, used to convert the spreading bound to meters
_HBAR_C_EV_M = 1.973269804e-7

# electron rest energy in eV
_ELECTRON_MASS_EV = 510998.95

# regime note for ValidityInput.relativistic
RELATIVISTIC_NOTE = (
    "kinetic energy above 5% of the rest mass; the nonrelativistic "
    "spreading bound is unreliable"
)


@dataclass(frozen=True)
class ParallelGeometry:
    """Two parallel paths: separation r0, rest-frame flight time T."""

    r0: float
    T: float
    v: float

    def __post_init__(self) -> None:
        require_finite(vars(self))
        if not self.r0 > 0.0:
            raise ValueError("r0 must be positive")
        if not self.T > 0.0:
            raise ValueError("T must be positive")
        if not 0.0 < self.v < 1.0:
            raise ValueError("speed v must lie in (0, 1)")


@dataclass(frozen=True)
class DecoherenceResult:
    w_vacuum: float
    w_photon: float
    w_total: float
    contrast: float
    breakdown: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)


def _result(wv: float, wg: float, breakdown: dict[str, float], notes: list[str]) -> DecoherenceResult:
    total = wv + wg
    return DecoherenceResult(wv, wg, total, math.exp(total), breakdown, notes)


@dataclass(frozen=True)
class ValidityInput:
    """Kinetic energy (eV) and initial wavepacket size (meters)."""

    energy: float
    dx0: float

    def __post_init__(self) -> None:
        require_finite(vars(self))
        if not self.energy > 0.0:
            raise ValueError("energy must be positive")
        if not self.dx0 > 0.0:
            raise ValueError("dx0 must be positive")

    @property
    def relativistic(self) -> bool:
        """Kinetic energy above 5% of the rest mass (RELATIVISTIC_NOTE)."""
        return self.energy > 0.05 * _ELECTRON_MASS_EV


def w_total_parallel(geom: ParallelGeometry, kappa: float, ell: float) -> DecoherenceResult:
    """Exponents and contrast for parallel paths, for a packet of shape
    constant kappa and size ell.

    W_vacuum = (alpha/pi) [2 - kappa + 2 ln(T/ell)] in the rest-frame flight
    time.  W_photon = (alpha/pi) K(T, r0) keeps the full coincident kernel
    and so is valid at any T/r0, T = r0 included; its long-time form
    -2 (alpha/pi) [1 + ln(T/r0)] is good to 1% for T/r0 of a few tens.  For
    T >> r0 >> ell the total reaches the flight-time-independent plateau
    (alpha/pi) [2 ln(r0/ell) - kappa].
    """
    notes = check_regime(geom, ell)
    require_finite({"kappa": kappa})
    a = ALPHA_FS / math.pi
    wv = a * (2.0 - kappa + 2.0 * log_ratio((geom.T,), (ell,)))
    K = kernel_K_closed(geom.T, geom.r0)
    return _result(wv, a * K, {"kappa": kappa, "K": K}, notes)


def w_total_intersecting(
    geom: IntersectingGeometry, kappa: float, ell: float, *, branch: str = "closed"
) -> DecoherenceResult:
    """Total exponent and contrast for the V geometry.

    closed: asymptotic cross term and closed radiation kernels, realizing
    the exact cancellation of ell and L2; the total equals
    (alpha/2 pi) [2 ln(2 sin(theta)/v^2) + 4 - 3 kappa] to rounding.
    assembled: exact cross terms J_ab and I_ab, the principal-value I_aa
    and the full coincident kernel for the bb piece; slower, carries the
    I_aa quadrature error budget, and retains the O(ell/L1, L1/L2)
    remainders that the closed branch drops.
    """
    if branch not in ("closed", "assembled"):
        raise ValueError(f"unknown branch: {branch!r}")
    notes = check_regime(geom, ell)
    require_finite({"kappa": kappa})
    J_aa = segment_J_straight(geom.L1, ell, geom.v, kappa)
    J_bb = segment_J_straight(geom.L2, ell, geom.v, kappa)
    if branch == "closed":
        J_ab = segment_J_ab_closed(geom, ell, asymptotic=True)
        I_aa = segment_I_aa(geom, ell)
        I_ab = segment_I_ab(geom)
        I_bb = segment_I_bb(geom)
    else:
        J_ab = segment_J_ab_closed(geom, ell)
        I_aa = segment_I_aa(geom, ell, method="numeric")
        I_ab = segment_I_ab(geom, method="exact")
        I_bb = kernel_K_closed(geom.T2, 2.0 * geom.L1 * math.sin(geom.theta))
    J = 2.0 * J_aa + J_bb + 4.0 * J_ab
    I = 2.0 * I_aa + I_bb + 4.0 * I_ab
    half_a = 0.5 * ALPHA_FS / math.pi
    breakdown = {
        "kappa": kappa,
        "J_aa": J_aa,
        "J_bb": J_bb,
        "J_ab": J_ab,
        "I_aa": I_aa,
        "I_bb": I_bb,
        "I_ab": I_ab,
    }
    return _result(-half_a * J, half_a * I, breakdown, notes)


def interference_pattern(
    psi1_sq: float, psi2_sq: float, phase: float, result: DecoherenceResult
) -> float:
    """Number density of the two-path pattern with the contrast factor applied.

    n = |psi1|^2 + |psi2|^2 + 2 e^W sqrt(|psi1|^2 |psi2|^2) cos(phase).
    Never negative when w_total <= 0; a positive w_total can in principle
    overshoot, which is reported as-is.
    """
    if psi1_sq < 0.0 or psi2_sq < 0.0:
        raise ValueError("intensities must be nonnegative")
    cross = 2.0 * result.contrast * math.sqrt(psi1_sq * psi2_sq)
    return psi1_sq + psi2_sq + cross * math.cos(phase)


def max_flight_distance(inp: ValidityInput) -> float:
    """Spreading bound on the flight distance, in meters.

    A minimum-uncertainty packet of initial size dx0 disperses negligibly
    only while the flight distance stays well below
    2 sqrt(2 m E) dx0^2 (converted via hbar c).  Nonrelativistic, and so
    unreliable when inp.relativistic.  Raises ValueError where the bound
    lies outside the range of normal floats.
    """
    m, e = split_product(
        (2.0 * math.sqrt(2.0), math.sqrt(_ELECTRON_MASS_EV), math.sqrt(inp.energy), inp.dx0, inp.dx0),
        (_HBAR_C_EV_M,),
    )
    try:
        bound = math.ldexp(m, e)
    except OverflowError:
        bound = math.inf
    if not sys.float_info.min <= bound < math.inf:
        raise ValueError(
            f"the spreading bound for energy = {inp.energy:.6g} eV and dx0 = {inp.dx0:.6g} m "
            "lies outside the float range"
        )
    return bound


def check_regime(geom: ParallelGeometry | IntersectingGeometry, ell: float) -> list[str]:
    """Separation-of-scales audit for a packet of size ell; returns
    human-readable violation notes.

    The notes are the only report of regime problems: every exponent is
    computed whatever they say, and the results carry them as .notes.
    The checks are scale-ratio comparisons and so unit-free.
    """
    if not 0.0 < ell < math.inf:
        raise ValueError("ell must be positive and finite")
    notes: list[str] = []
    if isinstance(geom, ParallelGeometry):
        if geom.r0 < 10.0 * ell:
            notes.append("separation r0 is within a factor 10 of the wavepacket size")
        if geom.T < 10.0 * geom.r0:
            notes.append("flight time T is within a factor 10 of the separation r0")
        if geom.T < 10.0 * ell:
            notes.append("flight time T is within a factor 10 of the wavepacket size")
    elif isinstance(geom, IntersectingGeometry):
        if geom.L1 < 10.0 * ell:
            notes.append("L1 is within a factor 10 of the wavepacket size")
        if geom.L2 < 10.0 * geom.L1:
            notes.append("L2 is within a factor 10 of L1")
        if geom.v * math.sin(geom.theta) > 0.2:
            notes.append("v sin(theta) exceeds 0.2; small-speed kernels lose accuracy")
    else:
        raise TypeError(f"unsupported geometry type: {type(geom).__name__}")
    if geom.v > 0.3:
        notes.append("speed v exceeds 0.3; treatment is nonrelativistic")
    return notes
