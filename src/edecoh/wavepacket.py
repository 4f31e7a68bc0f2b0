"""Wavepacket shapes and their pair-separation logarithmic average.

The contrast formulas depend on the charge distribution only through the
shape constant

    kappa = < ln((y - y')^2 / ell^2) > = 2 < ln(|y - y'| / ell) >

with y, y' drawn independently from the (uniform) wavepacket density and
ell the characteristic length of the packet: the diameter 2R for a sphere,
max(2R, L) for a cylinder of radius R and length L.  The squared-separation
normalization is the one under which the quoted closed forms cohere: the
sphere average is exactly -3/2 (the single-power average is -3/4).  The
cylinder runs from the flat-disk limit -1/2 - 2 ln 2 = -1.886294... (the
mean log distance in a unit disk is -1/4, and ell = 2R) at beta -> 0 to
the thin-rod limit -3 + 256/(45 beta) at beta -> infinity (the mean pair
distance in a unit disk is 128/(45 pi); Solomon, Geometric Probability,
1978).  Taking ell as the larger of the two cylinder scales keeps kappa of
order one for any aspect ratio; the switch at L = 2R is also what produces
the derivative kink of kappa as a function of the aspect ratio beta = L/R
at beta = 2.

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
factor 2 from the squared separation.  The bracket is O(beta^2) formed
from O(b^2 ln b) terms and is 0/0 at b = 0, so F is evaluated in the form
it takes with q = b/beta and t = q^2: ln(b^2 + beta^2) = 2 ln beta +
ln(1 + t) and b^2 ln b = beta^2 (t ln beta + 1/2 t ln t) give the bracket
over beta^2 as ln beta + 1/2 t ln t + 1/2 (1 - t) ln(1 + t) + 2 q
arctan(beta/b) - 3/2, and 1/2 t ln t + 1/2 (1 - t) ln(1 + t) =
1/2 ln(1 + t) - 1/2 t ln(1 + 1/t) joins ln beta into ln hypot(beta, b):

    F = ln(R hypot(beta, b) / ell) - 1/2 t ln(1 + 1/t) + 2 q arctan(beta/b) - 3/2.

The last three terms tend to 0 + 0 - 3/2 as q -> 0, which holds at b = 0
and for a thin rod (beta -> infinity): F -> ln(L/ell) - 3/2, the axial
log-average of coincident transverse positions.  They tend to
-1/2 + 2 - 3/2 = 0 as q -> infinity, the flat disk (beta -> 0):
F -> ln(R b/ell).  Each is O(1), so their cancellation costs only
absolute rounding and the form holds over the whole float range.

Near the flat disk, kappa = -1/2 - 2 ln 2 + (beta^2/3) [ln(1/beta) + c] +
O(beta^3) with c = ln 2 + 12 C1 + D/2 = 7/12.  For beta < 2, F - ln(b/2) =
g(b/beta) with g(q) = 1/2 (1 - q^2) ln(1 + 1/q^2) + 2 q arctan(1/q) - 3/2
~ 1/(12 q^2), averaged against the disk line-picking density P(b) =
(4b/pi) [arccos(b/2) - (b/2) sqrt(1 - b^2/4)] = 2b + O(b^2) (Solomon
1978): the 2b part gives C1 = lim_Q [int_0^Q q g dq - ln(Q)/12] = 13/144,
and the rest D = int_0^2 (P(b) - 2b)/b^2 db = -(1 + 2 ln 2).

A brute-force Monte-Carlo estimate of the six-dimensional average serves as
the independent oracle for the quadrature path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Union

from .base import (
    IntegrationResult,
    NonConvergenceError,
    QuadratureConfig,
    require_converged,
    require_finite,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "UniformSphere",
    "UniformCylinder",
    "Wavepacket",
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
        if not 0.0 < self.length / self.radius < math.inf:
            raise ValueError("the aspect ratio L/R = length/radius leaves the float range")

    @property
    def beta(self) -> float:
        return self.length / self.radius


Wavepacket = Union[UniformSphere, UniformCylinder]


def characteristic_length(wp: Wavepacket) -> float:
    """Larger of the packet's two linear scales (diameter for a sphere)."""
    if isinstance(wp, UniformSphere):
        return 2.0 * wp.radius
    if isinstance(wp, UniformCylinder):
        return max(2.0 * wp.radius, wp.length)
    raise TypeError(f"unsupported wavepacket type: {type(wp).__name__}")


def cylinder_F(b2, beta: float):
    """Axial log-average of the cylinder at squared transverse separation b2.

    b2 = rho^2 + rho'^2 - 2 rho rho' cos(phi), in units of R^2, is the only
    transverse quantity F depends on; a scalar or a numpy array.  ell is
    max(2R, L), the characteristic length.  Raises DomainError if b2 lies
    below -1e-12 (impossible geometry); tiny negative round-off is clamped
    to zero.
    """
    if not 0.0 < beta < math.inf:
        raise ValueError("beta must be positive and finite")
    import numpy as np

    b2 = np.asarray(b2, dtype=float)
    if np.any(b2 < -1e-12):
        raise DomainError("squared transverse separation is negative")
    b = np.sqrt(np.maximum(b2, 0.0))
    # F depends on beta << b only through O(beta^2/b^2), so beta is raised
    # to 1e-150 b there and q stays below 1e150.  t is held above 1e-300,
    # where 1/2 t ln(1 + 1/t) < 4e-298.  ln(hypot(beta, b)/ell) is the log
    # of the larger side over ell/2, less ln 2 (so that no subnormal side is
    # halved), plus 1/2 ln(1 + min(t, 1/t)); np.hypot would cost a third of
    # the call
    beta_b = np.maximum(beta, 1e-150 * b)
    q = b / beta_b
    t = np.maximum(q * q, 1e-300)
    inv_t = 1.0 / t
    out = (
        np.log(np.maximum(b, beta_b) / max(1.0, 0.5 * beta))
        + 0.5 * (
            np.log1p(np.minimum(t, inv_t)) - t * np.log1p(inv_t) + 4.0 * q * np.arctan2(beta_b, b)
        )
        - (1.5 + math.log(2.0))
    )
    return out if out.ndim else float(out)


# graded seed mesh for the azimuthal quadrature: F has a weak kink at
# phi = 0 when rho ~ rho' (b -> 0), so refinement is front-loaded there
_PHI_BREAKPOINTS = (1e-6, 1e-4, 1e-2, 0.1, 0.5, 1.5)

# tolerance of the three-dimensional cylinder quadrature; tight enough that
# the Monte-Carlo oracle error dominates any comparison, loose enough to
# keep aspect-ratio sweeps fast
_CYL_CFG = QuadratureConfig(rel_tol=5e-7, abs_tol=1e-9)


def _cylinder_kappa(beta: float) -> IntegrationResult:
    import numpy as np

    from .quadrature import _MAX_EVALS, _MAX_SPLITS, _adapt_many, _tolerance, integrate_nd

    phi_mesh = (0.0, *_PHI_BREAKPOINTS, math.pi)
    phi_rel = _CYL_CFG.rel_tol * 1e-2
    phi_tolerance = _tolerance(phi_rel, _CYL_CFG.abs_tol * 1e-2)
    evals = [0]
    # summed errors of the azimuthal integrals, each weighted as its value
    # enters the outer integrand, and their count
    phi_err = [0.0, 0]

    def transverse(r1, r2):
        # inner azimuthal integrals of all radius pairs (r1, r2[i]), refined
        # in lockstep; the half-range [0, pi] doubles by the phi -> 2 pi - phi
        # symmetry of b^2
        def F(phi, owner):
            rp = r2[owner]
            return cylinder_F(r1 * r1 + rp * rp - 2.0 * r1 * rp * np.cos(phi), beta)

        results = _adapt_many(F, [phi_mesh] * r2.size, [phi_tolerance] * r2.size)
        evals[0] += sum(res.evaluations for res in results)
        # an unconverged azimuthal integral leaves kappa uncertified, so the
        # levels above it need not run on
        if not all(res.converged for res in results):
            raise NonConvergenceError(
                f"cylinder kappa: an azimuthal integral missed its rel_tol of {phi_rel:.3g} "
                f"within the split budget of {_MAX_SPLITS}"
            )
        if evals[0] > _MAX_EVALS:
            raise NonConvergenceError(
                f"cylinder kappa: azimuthal integrals took {evals[0]} evaluations, over the "
                f"budget of {_MAX_EVALS}"
            )
        radii = r2.tolist()
        phi_err[0] += sum(2.0 * res.error_estimate * r1 * r2i for res, r2i in zip(results, radii))
        phi_err[1] += r2.size
        return np.array([2.0 * res.value * r1 * r2i for res, r2i in zip(results, radii)])

    outer = integrate_nd(transverse, [(0.0, 1.0), (0.0, 1.0)], _CYL_CFG)
    scale = 4.0 / math.pi
    # as integrate_nd does for its inner level: the mean azimuthal error
    # times the area of the unit (rho, rho') square
    return IntegrationResult(
        scale * outer.value,
        scale * (outer.error_estimate + phi_err[0] / phi_err[1]),
        outer.evaluations + evals[0],
        outer.converged,
    )


def kappa(wp: Wavepacket) -> IntegrationResult:
    """Shape constant of a wavepacket with ell = characteristic_length(wp).

    Spheres return the exact value -3/2 with no error and no evaluations.
    Cylinders return the reduced three-dimensional quadrature's result at
    the tolerance _CYL_CFG; NonConvergenceError propagates if it cannot be
    certified, or once the azimuthal integrals spend more than
    quadrature._MAX_EVALS evaluations.
    """
    if isinstance(wp, UniformSphere):
        return IntegrationResult(KAPPA_SPHERE, 0.0, 0, True)
    if not isinstance(wp, UniformCylinder):
        raise TypeError(f"unsupported wavepacket type: {type(wp).__name__}")
    return require_converged(_cylinder_kappa(wp.beta), "cylinder kappa")


def kappa_numeric(wp: UniformSphere) -> IntegrationResult:
    """Sphere shape constant by quadrature to 1e-12, a check of the exact -3/2.

    The pair separation d of two uniform points of a ball of radius R has
    the density (ball line picking; Solomon, Geometric Probability, 1978)

        p(d) = (3 x^2 / R) (1 - 3x/4 + x^3/16),   x = d/R in [0, 2],

    so kappa = int_0^{2R} p(d) 2 ln(d/ell) dd is one adaptive integral.
    Any other shape raises TypeError: a cylinder's kappa() is already its
    quadrature.
    """
    if not isinstance(wp, UniformSphere):
        raise TypeError(f"kappa_numeric takes a UniformSphere, not {type(wp).__name__}")
    import numpy as np

    from .quadrature import integrate_1d

    r = wp.radius
    ell = 2.0 * r

    def integrand(d):
        x = d / r
        return (3.0 * x * x / r) * (1.0 - 0.75 * x + x**3 / 16.0) * 2.0 * np.log(d / ell)

    return require_converged(
        integrate_1d(integrand, 0.0, ell, QuadratureConfig(rel_tol=1e-12, abs_tol=1e-15)),
        "sphere kappa",
    )


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
) -> IntegrationResult:
    """Monte-Carlo estimate of the six-dimensional pair average.

    Completely independent of the quadrature path: samples point pairs
    uniformly from the packet volume and averages ln((y - y')^2/ell^2).
    The error_estimate is the standard error of the mean, and the
    evaluations are the samples.
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
    return IntegrationResult(mean, se, samples, True)
