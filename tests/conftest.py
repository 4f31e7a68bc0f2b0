"""Oracles shared by several test modules.

The cylinder shape constant is averaged over the axial separation first,
the reverse of the order the package uses (see _kappa_z_first).

Both radiation kernels of the V geometry reduce to one integral:

* I_ab's integrand [(t' - t)^2 - c^2]^-1 depends on u = t' - t alone, so
  its double integral weights that function by the length of the diagonal
  u inside the rectangle [0, T1] x [T1, T1 + T2] and takes one principal
  value in u;
* I_aa's inner principal value over t' is elementary by partial
  fractions, which leaves an ordinary integral over t.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from edecoh.base import require_converged
from edecoh.kernels import IntersectingGeometry
from edecoh.quadrature import QuadratureConfig, integrate_1d, pv_integrate_1d


def _I_ab_pv_in_u(geom: IntersectingGeometry) -> float:
    """I_ab as the principal value over u = t' - t of its defining integral.

    The diagonal t' - t = u crosses the rectangle t in [0, T1],
    t' in [T1, T1 + T2] over the length min(u, T1, T2, T1 + T2 - u), so
    I_ab = PV int_0^{T1 + T2} min(u, T1, T2, T1 + T2 - u)/((u - c)(u + c)) du
    with c = 2 T1 v sin(theta); a pole past T1 + T2 is ignored.
    """
    T1, T2 = geom.T1, geom.T2
    c = 2.0 * T1 * geom.v * math.sin(geom.theta)

    def f(u: np.ndarray) -> np.ndarray:
        return np.minimum(np.minimum(u, min(T1, T2)), T1 + T2 - u) / ((u - c) * (u + c))

    res = pv_integrate_1d(f, 0.0, T1 + T2, [c], QuadratureConfig(rel_tol=1e-11))
    return require_converged(res, "I_ab oracle").value


def _I_aa_partial_fractions(geom: IntersectingGeometry, ell: float) -> float:
    """I_aa as an outer integral over t of its exact inner principal value.

    With s = v sin(theta), c = ell/v and the inner poles
    p1,2 = t (1 -+ s)/(1 +- s), the inner PV over t' in [c, T1] is
    -[ln|(T1 - p1)/(c - p1)| - ln|(T1 - p2)/(c - p2)|]/(4 s t).  It has
    integrable log spikes where a pole crosses c or T1, which are the outer
    breakpoints.
    """
    s = geom.v * math.sin(geom.theta)
    c, T1 = ell / geom.v, geom.T1

    def inner(t: np.ndarray) -> np.ndarray:
        p1 = t * (1.0 - s) / (1.0 + s)
        p2 = t * (1.0 + s) / (1.0 - s)
        logs = np.log(np.abs((T1 - p1) / (c - p1))) - np.log(np.abs((T1 - p2) / (c - p2)))
        return -logs / (4.0 * s * t)

    res = integrate_1d(
        inner,
        c,
        T1,
        QuadratureConfig(rel_tol=1e-12, abs_tol=1e-15),
        breakpoints=(c * (1.0 + s) / (1.0 - s), T1 * (1.0 - s) / (1.0 + s)),
    )
    return require_converged(res, "I_aa oracle").value


def _kappa_z_first(beta: float) -> float:
    """Cylinder kappa (R = 1, L = beta) by the z-first reduction, with scipy.

    The axial separation w of two uniform points in [0, beta] has the
    density (2/beta)(1 - w/beta); the transverse separation b of two
    uniform points in the unit disk has Solomon's line-picking density
    P(b) = (4b/pi)[arccos(b/2) - (b/2) sqrt(1 - b^2/4)].  With
    H(w) = int_0^2 P(b) 1/2 ln(b^2 + w^2) db, the mean log distance between
    two coaxial unit disks at axial offset w,
    kappa = 2 [int_0^beta (2/beta)(1 - w/beta) H(w) dw - ln ell] with
    ell = max(2, beta).  It shares nothing with cylinder_F's closed form,
    its series or the package's quadrature.  The breakpoints are where the
    log kinks: b = w inside H and w = 2 outside.
    """
    from scipy.integrate import quad

    def P(b: float) -> float:
        return (4.0 * b / math.pi) * (math.acos(0.5 * b) - 0.5 * b * math.sqrt(1.0 - 0.25 * b * b))

    def H(w: float) -> float:
        value, _ = quad(
            lambda b: P(b) * 0.5 * math.log(b * b + w * w),
            0.0,
            2.0,
            points=[w] if 0.0 < w < 2.0 else None,
            epsrel=1e-12,
            epsabs=1e-14,
        )
        return value

    mean_log, _ = quad(
        lambda w: (2.0 / beta) * (1.0 - w / beta) * H(w),
        0.0,
        beta,
        points=[2.0] if beta > 2.0 else None,
        epsrel=1e-12,
        epsabs=1e-14,
    )
    return 2.0 * (mean_log - math.log(max(2.0, beta)))


@pytest.fixture
def I_ab_pv_in_u():
    return _I_ab_pv_in_u


@pytest.fixture
def I_aa_partial_fractions():
    return _I_aa_partial_fractions


@pytest.fixture
def kappa_z_first():
    return _kappa_z_first
