"""Wavepacket shapes and their pair-separation logarithmic average.

The contrast formulas depend on the charge distribution only through the
shape constant

    kappa = < ln((y - y')^2 / ell^2) > = 2 < ln(|y - y'| / ell) >

with y, y' drawn independently from the (uniform) wavepacket density and
ell the characteristic length of the packet: the diameter 2R for a sphere,
max(2R, L) for a cylinder of radius R and length L.  The squared-separation
normalization is the one under which the quoted closed forms cohere: the
sphere average is exactly -3/2 (the single-power average is -3/4), and the
flat-disk limit of the cylinder is -3/2 as well.  Taking ell as the larger
of the two cylinder scales keeps kappa of order one for any aspect ratio;
the switch at L = 2R is also what produces the derivative kink of kappa as
a function of the aspect ratio beta = L/R at beta = 2.

For the cylinder the six-dimensional average reduces to three quadratures:
with scaled radii rho, rho' in [0, 1], relative azimuth phi and transverse
separation b^2 = rho^2 + rho'^2 - 2 rho rho' cos(phi), the single-power
axial average over the two longitudinal coordinates has the closed form
(beta = L/R)

    F(b) = ln(R/ell) + beta^-2 { b^2 ln b
            - 1/2 [ (b^2 - beta^2) ln(b^2 + beta^2)
                    - 4 beta b arctan(beta/b) + 3 beta^2 ] }

and kappa = (4/pi) int_0^1 rho drho int_0^1 rho' drho' int_0^{2pi} dphi F,
the prefactor 4/pi carrying the measure normalization (2/pi) times the
factor 2 from the squared separation.  At b = 0 the formula degenerates to
the explicit limit F = ln(R/ell) + ln(beta) - 3/2, i.e. the axial
log-average ln(L/ell) - 3/2; the implementation handles that branch
explicitly instead of relying on floating-point cancellation.  Limits:
F -> ln(R/ell) + ln b for beta -> 0 (flat disk) and F -> ln(L/ell) - 3/2
for beta -> infinity (thin rod).

A brute-force Monte-Carlo estimate of the six-dimensional average serves as
the independent oracle for the quadrature path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Union

from .base import IntegrationResult, QuadratureConfig, require_converged, require_finite

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "UniformSphere",
    "UniformCylinder",
    "Wavepacket",
    "KappaResult",
    "DomainError",
    "characteristic_length",
    "cylinder_F",
    "kappa",
    "kappa_numeric",
    "kappa_bruteforce_oracle",
]

KAPPA_SPHERE = -1.5


class DomainError(ValueError):
    """Geometrically impossible input (e.g. negative squared distance)."""


@dataclass(frozen=True)
class UniformSphere:
    """Uniform ball of radius R (density 3/(4 pi R^3) inside)."""

    radius: float

    def __post_init__(self) -> None:
        require_finite(vars(self))
        if not self.radius > 0.0:
            raise ValueError("radius must be positive")
        if not 2.0 * self.radius < math.inf:
            raise ValueError("radius is too large: the diameter 2 radius overflows")


@dataclass(frozen=True)
class UniformCylinder:
    """Uniform cylinder, radius R and length L (density 1/(pi R^2 L))."""

    radius: float
    length: float

    def __post_init__(self) -> None:
        require_finite(vars(self))
        if not self.radius > 0.0:
            raise ValueError("radius must be positive")
        if not 2.0 * self.radius < math.inf:
            raise ValueError("radius is too large: the diameter 2 radius overflows")
        if not self.length > 0.0:
            raise ValueError("length must be positive")

    @property
    def beta(self) -> float:
        return self.length / self.radius


Wavepacket = Union[UniformSphere, UniformCylinder]


@dataclass(frozen=True)
class KappaResult:
    kappa: float
    error_estimate: float
    ell: float


def characteristic_length(wp: Wavepacket) -> float:
    """Larger of the packet's two linear scales (diameter for a sphere)."""
    if isinstance(wp, UniformSphere):
        return 2.0 * wp.radius
    if isinstance(wp, UniformCylinder):
        return max(2.0 * wp.radius, wp.length)
    raise TypeError(f"unsupported wavepacket type: {type(wp).__name__}")


def cylinder_F(b2, beta: float, r_over_ell: float):
    """Axial log-average of the cylinder at squared transverse separation b2.

    b2 = rho^2 + rho'^2 - 2 rho rho' cos(phi), in units of R^2, is the only
    transverse quantity F depends on; a scalar or a numpy array.  Raises
    DomainError if b2 lies below -1e-12 (impossible geometry); tiny negative
    round-off is clamped to zero and routed through the explicit b = 0 limit.
    """
    if not beta > 0.0:
        raise ValueError("beta must be positive")
    if not r_over_ell > 0.0:
        raise ValueError("R/ell must be positive")
    import numpy as np

    b2 = np.asarray(b2, dtype=float)
    if np.any(b2 < -1e-12):
        raise DomainError("squared transverse separation is negative")
    b2 = np.maximum(b2, 0.0)
    b = np.sqrt(b2)
    beta2 = beta * beta
    with np.errstate(divide="ignore", invalid="ignore"):
        # 0 * log(0) guarded: the b = 0 limit of the bracket is
        # 0.5 beta^2 ln(beta^2) - 1.5 beta^2, reproduced exactly by the
        # surviving terms once b^2 ln b is forced to its limit 0
        b2_ln_b = np.where(b2 > 0.0, 0.5 * b2 * np.log(b2), 0.0)
    bracket = b2_ln_b - 0.5 * (
        (b2 - beta2) * np.log(b2 + beta2)
        - 4.0 * beta * b * np.arctan2(beta, b)
        + 3.0 * beta2
    )
    out = math.log(r_over_ell) + bracket / beta2
    return out if out.ndim else float(out)


# graded seed mesh for the azimuthal quadrature: F has a weak kink at
# phi = 0 when rho ~ rho' (b -> 0), so refinement is front-loaded there
_PHI_BREAKPOINTS = (1e-6, 1e-4, 1e-2, 0.1, 0.5, 1.5)

# default tolerance for the three-dimensional cylinder quadrature; tight
# enough that the Monte-Carlo oracle error dominates any comparison, loose
# enough to keep aspect-ratio sweeps fast
_CYL_CFG = QuadratureConfig(rel_tol=5e-7, abs_tol=1e-9, max_subdivisions=4096)


def _cylinder_kappa(beta: float, cfg: QuadratureConfig) -> IntegrationResult:
    import numpy as np

    from .quadrature import _adapt_many, _tolerance, integrate_nd

    r_over_ell = 1.0 / max(2.0, beta)
    phi_mesh = (0.0, *_PHI_BREAKPOINTS, math.pi)
    phi_cfg = (_tolerance(cfg.rel_tol * 1e-2, cfg.abs_tol * 1e-2), cfg.max_subdivisions)
    evals = [0]
    ok = [True]

    def transverse(r1, r2):
        # inner azimuthal integrals of all radius pairs (r1, r2[i]), refined
        # in lockstep; the half-range [0, pi] doubles by the phi -> 2 pi - phi
        # symmetry of b^2
        def F(phi, owner):
            rp = r2[owner]
            return cylinder_F(r1 * r1 + rp * rp - 2.0 * r1 * rp * np.cos(phi), beta, r_over_ell)

        results = _adapt_many(
            F,
            [phi_mesh] * r2.size,
            [phi_cfg] * r2.size,
        )
        evals[0] += sum(res.evaluations for res in results)
        ok[0] = ok[0] and all(res.converged for res in results)
        return np.array([2.0 * res.value * r1 * r2i for res, r2i in zip(results, r2)])

    outer = integrate_nd(transverse, [(0.0, 1.0), (0.0, 1.0)], cfg)
    scale = 4.0 / math.pi
    return IntegrationResult(
        scale * outer.value,
        scale * outer.error_estimate,
        outer.evaluations + evals[0],
        outer.converged and ok[0],
    )


def kappa(wp: Wavepacket, cfg: QuadratureConfig | None = None) -> KappaResult:
    """Shape constant of a wavepacket with ell = characteristic_length(wp).

    Spheres use the exact value -3/2 (error 0).  Cylinders evaluate the
    reduced three-dimensional quadrature; NonConvergenceError propagates if
    the requested tolerance cannot be certified.
    """
    ell = characteristic_length(wp)
    if isinstance(wp, UniformSphere):
        return KappaResult(KAPPA_SPHERE, 0.0, ell)
    res = require_converged(_cylinder_kappa(wp.beta, cfg or _CYL_CFG), "cylinder kappa")
    return KappaResult(res.value, res.error_estimate, ell)


def kappa_numeric(wp: Wavepacket, cfg: QuadratureConfig | None = None) -> KappaResult:
    """Quadrature evaluation for either shape (sphere fast path bypassed).

    For the sphere the pair separation d of two uniform points of a ball of
    radius R has the density (ball line picking; Solomon, Geometric
    Probability, 1978)

        p(d) = (3 x^2 / R) (1 - 3x/4 + x^3/16),   x = d/R in [0, 2],

    so kappa = int_0^{2R} p(d) 2 ln(d/ell) dd is one adaptive integral,
    kept as a check of the exact value; cylinders delegate to kappa().
    """
    if isinstance(wp, UniformCylinder):
        return kappa(wp, cfg)
    import numpy as np

    from .quadrature import integrate_1d

    r = wp.radius
    ell = 2.0 * r

    def integrand(d):
        x = d / r
        return (3.0 * x * x / r) * (1.0 - 0.75 * x + x**3 / 16.0) * 2.0 * np.log(d / ell)

    res = require_converged(
        integrate_1d(integrand, 0.0, ell, cfg or QuadratureConfig(rel_tol=1e-12, abs_tol=1e-15)),
        "sphere kappa",
    )
    return KappaResult(res.value, res.error_estimate, ell)


def _sample_points(wp: Wavepacket, n: int, rng: np.random.Generator) -> np.ndarray:
    import numpy as np

    if isinstance(wp, UniformSphere):
        v = rng.standard_normal((n, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        return wp.radius * np.cbrt(rng.random(n))[:, None] * v
    r = wp.radius * np.sqrt(rng.random(n))
    th = 2.0 * math.pi * rng.random(n)
    z = wp.length * rng.random(n)
    return np.column_stack([r * np.cos(th), r * np.sin(th), z])


def kappa_bruteforce_oracle(
    wp: Wavepacket, samples: int = 10_000_000, seed: int = 0
) -> KappaResult:
    """Monte-Carlo estimate of the six-dimensional pair average.

    Completely independent of the quadrature path: samples point pairs
    uniformly from the packet volume and averages ln((y - y')^2/ell^2).
    The error_estimate is the standard error of the mean.
    """
    if samples < 10_000:
        raise ValueError("need at least 1e4 samples for a usable oracle")
    import numpy as np

    ell = characteristic_length(wp)
    rng = np.random.default_rng(seed)
    total = 0.0
    total_sq = 0.0
    done = 0
    chunk = 1_000_000
    while done < samples:
        n = min(chunk, samples - done)
        d = np.linalg.norm(_sample_points(wp, n, rng) - _sample_points(wp, n, rng), axis=1)
        v = 2.0 * np.log(d / ell)
        total += float(v.sum())
        total_sq += float((v * v).sum())
        done += n
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    se = math.sqrt(var / samples)
    return KappaResult(mean, se, ell)
