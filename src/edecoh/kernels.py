"""Closed-form and numeric kernels for straight worldline segments.

Three kernel families enter the decoherence exponents:

* K(T, rho): the self-term of a single straight segment of duration T at
  transverse separation rho between the two interfering paths.  Its
  defining integral 2 int_0^T (T - tau)/(tau^2 - rho^2) dtau is a
  principal value when rho < T; the closed form is

      K = (T/rho) ln(|T - rho|/(T + rho)) - ln(|T^2 - rho^2|/rho^2)

  valid on both sides of T = rho (for T < rho the integrand has no pole
  and the same expression is the plain antiderivative).  Exactly at
  T = rho the integrand collapses to -2/(tau + rho) and the value is the
  finite limit -2 ln 2; the closed form itself degenerates (0 * log 0),
  so within 1e-12 relative of that point the limit is returned instead
  (at the window edge the exact closed form is within about 3e-11 of it).
  For T >> rho, K -> -2 - ln(T^2/rho^2).

* J kernels: static-potential pieces for the V geometry with arm segments
  a (length L1, before the vertex) and b (length L2, after).  The cross
  term J_ab has an exact elementary form for the excised double integral
  int_0^{T1-d} dt int_{T1+d}^{T1+T2} dt' (t - t')^-2 with excision
  half-width d around the vertex passage:

      J_ab = ln[ (T1 + d)(T2 + d) / (2 d (T1 + T2)) ],   d = tau/2 default

  with tau = ell/v, which tends to ln(L1/ell + 1/2) as L2/L1 -> infinity
  and to ln(L1/ell) asymptotically.  The same-segment pieces J_aa, J_bb
  share one form, J_straight = -2 + kappa - 2 ln(L/(ell v)).

* I kernels: radiation pieces of the same geometry.  Each has a small-v
  closed form; branch selection is always explicit, so no function
  silently substitutes an asymptote for the requested branch.  The cross
  term I_ab is the principal-value double integral of
  [(t' - t)^2 - c^2]^-1, c = 2 T1 v sin(theta), over t in [0, T1] and t'
  in [T1, T1 + T2].  The integrand depends only on u = t' - t, so the
  integral is exact as a sum over the rectangle's four corners,

      I_ab = G(T1 + T2) - G(T2) - G(T1) + G(0),
      G(u) = [(u - c) ln|u - c| - (u + c) ln|u + c|] / (2c),

  with G'' = 1/(u^2 - c^2).  In a = u/c, G = g(a) - ln c with
  g(a) = [(a - 1) ln|a - 1| - (a + 1) ln(a + 1)] / 2, and the four ln c
  cancel: with s = v sin(theta) and r = L2/L1,

      I_ab = g((1 + r)/(2s)) - g(r/(2s)) - g(1/(2s)),

  so the kernel takes only the geometry's ratios.  The small-v form
  1 - ln(2 s) drops the remainder

      I_ab - (1 - ln 2s) = -ln(1 + L1/L2)
                           - (2/3) s^2 [1 + (L1/L2)^2 - (L1/(L1 + L2))^2]
                           + O(s^4).

  The self term I_aa keeps a numeric principal-value double integral.

The V-geometry kernels take an IntersectingGeometry and, where the
wavepacket cutoff enters, its size ell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .base import (
    IntegrationResult,
    NonConvergenceError,
    QuadratureConfig,
    log_ratio,
    require_finite,
)

__all__ = [
    "IntersectingGeometry",
    "K_EQUAL_ARGS_LIMIT",
    "kernel_K_closed",
    "kernel_K_numeric",
    "segment_J_ab_closed",
    "segment_J_straight",
    "segment_I_aa",
    "segment_I_ab",
    "segment_I_bb",
]

# finite limit of K at T = rho, where the closed form degenerates
K_EQUAL_ARGS_LIMIT = -2.0 * math.log(2.0)


@dataclass(frozen=True)
class IntersectingGeometry:
    """V-shaped paths: arms L1 before the vertex, L2 after, half-angle theta.

    v is the speed (c = 1).  The closed kernels assume ell << L1 << L2 and
    v sin(theta) << 1; violating those is legal, and check_regime says so.
    """

    L1: float
    L2: float
    theta: float
    v: float

    def __post_init__(self) -> None:
        require_finite(vars(self))
        if not self.L1 > 0.0:
            raise ValueError("L1 must be positive")
        if not self.L2 > self.L1:
            raise ValueError("L2 must exceed L1")
        if not 0.0 < self.theta < 0.5 * math.pi:
            raise ValueError("theta must lie in (0, pi/2)")
        if not 0.0 < self.v < 1.0:
            raise ValueError("speed v must lie in (0, 1)")

    @property
    def T1(self) -> float:
        return self.L1 / self.v

    @property
    def T2(self) -> float:
        return self.L2 / self.v


def _require_ell(ell: float) -> None:
    if not 0.0 < ell < math.inf:
        raise ValueError("ell must be positive and finite")


def _require_K_args(T: float, rho: float) -> None:
    require_finite({"T": T, "rho": rho})
    if not T > 0.0:
        raise ValueError("flight time T must be positive")
    if not rho > 0.0:
        raise ValueError("separation rho must be positive")


def kernel_K_closed(T: float, rho: float) -> float:
    """Closed form of the coincident-segment kernel, either side of T = rho.

    Within 1e-12 relative of T = rho it returns the limit K_EQUAL_ARGS_LIMIT.
    Every positive finite T and rho give a finite value.
    """
    _require_K_args(T, rho)
    lo, hi = sorted((T, rho))
    if hi - lo <= 1e-12 * hi:
        return K_EQUAL_ARGS_LIMIT
    # with x = lo/hi in (0, 1),
    #   K = (T/rho) ln[(1 - x)/(1 + x)] - ln[(1 - x)(1 + x)] - 2 ln(hi/rho)
    x = lo / hi
    if x > 0.5:
        # near T = rho, where hi - lo is exact and no factor leaves the float range
        d = (hi - lo) / hi
        return (T / rho) * math.log(d / (1.0 + x)) - math.log(d * (1.0 + x) * (hi / rho) ** 2)
    # far from it, ln[(1 - x)/(1 + x)] = -2 atanh(x) keeps its digits as
    # x -> 0; for T > rho the prefactor T/rho = 1/x can overflow, so it is
    # taken as atanh(x)/x -> 1
    if T < rho:
        return -2.0 * x * math.atanh(x) - math.log1p(-x * x)
    first = -2.0 * math.atanh(x) / x if x else -2.0
    return first - math.log1p(-x * x) - 2.0 * log_ratio((T,), (rho,))


def kernel_K_numeric(T: float, rho: float) -> IntegrationResult:
    """Principal-value evaluation of the defining integral of K, at the
    tolerances of the default QuadratureConfig().

    The integrand 2 (T - tau)/(tau^2 - rho^2) has a simple pole at
    tau = rho, inside the range only when rho < T; for rho > T the plain
    adaptive path is taken automatically.  rho = T puts the pole on the
    boundary and raises PoleOnBoundaryError (kernel_K_closed returns the
    limit K_EQUAL_ARGS_LIMIT there).
    """
    _require_K_args(T, rho)
    from .quadrature import pv_integrate_1d

    def f(tau):
        return 2.0 * (T - tau) / (tau * tau - rho * rho)

    return pv_integrate_1d(f, 0.0, T, [rho])


def segment_J_ab_closed(
    geom: IntersectingGeometry, ell: float, *, asymptotic: bool = False
) -> float:
    """Cross-segment static kernel of the V geometry.

    The exact form keeps the vertex excision of half-width tau/2 = ell/(2v),
    which must lie below T1, and both finite segment durations; the
    asymptotic flag returns the leading ln(L1/ell) instead.
    """
    _require_ell(ell)
    if asymptotic:
        return log_ratio((geom.L1,), (ell,))
    if not ell < 2.0 * geom.L1:
        raise ValueError(
            f"ell = {ell:.12g} must lie below 2 L1 = {2.0 * geom.L1:.12g}: the vertex "
            "excision half-width ell/(2v) must lie below T1 = L1/v"
        )
    # the speed cancels: with d = ell/(2v) the ratio is the same in lengths,
    # (L1 + ell/2)(L2 + ell/2)/(ell (L1 + L2)); it is split into ratios so
    # that no sum of lengths is formed, since L1 + L2 can overflow
    L1, L2 = geom.L1, geom.L2
    return (
        log_ratio((L1,), (ell,))
        + math.log1p(0.5 * (ell / L1))
        + math.log1p(0.5 * (ell / L2))
        - math.log1p(L1 / L2)
    )


def segment_J_straight(L: float, ell: float, v: float, kappa: float) -> float:
    """Same-segment static kernel, shared by both arms of the V geometry."""
    if not L > 0.0 or not ell > 0.0:
        raise ValueError("lengths must be positive")
    if not 0.0 < v < 1.0:
        raise ValueError("speed v must lie in (0, 1)")
    return -2.0 + kappa - 2.0 * log_ratio((L,), (ell, v))


# numeric I_aa: the outer integral sees the inner PV value as a smooth
# function except for integrable log spikes where a pole crosses the inner
# boundary.  It validates a closed form that itself carries O(v ln v)
# truncation, so the outer tolerance is set for ~1e-4 relative accuracy;
# tightening it multiplies the inner work, which quadrature._MAX_EVALS caps.
_I_NUMERIC_CFG = QuadratureConfig(rel_tol=3e-5, abs_tol=1e-8)
# the inner principal values, ten times tighter than the outer integral
_I_INNER_CFG = QuadratureConfig(rel_tol=3e-6, abs_tol=1e-8)


def segment_I_aa(geom: IntersectingGeometry, ell: float, *, method: str = "closed") -> float:
    """Same-segment radiation kernel of the V geometry.

    closed: ln(ell v^2 sin^2(theta) / L1) + 2 (ln 2 - 1), the small-v form.
    numeric: principal-value double integral of
    [(t - t')^2 - v^2 sin^2(theta) (t + t')^2]^-1 over [c, T1]^2 with the
    cutoff c = ell/v, so ell must lie below L1; for each outer t the inner
    poles sit at t (1 -+ s)/(1 +- s) with s = v sin(theta).  Each outer
    refinement round computes the inner PVs of all its nodes in one batch.
    Raises NonConvergenceError past quadrature._MAX_EVALS inner evaluations,
    or when the outer error plus the mean inner error over [c, T1] exceeds
    1% of the value.
    """
    _require_ell(ell)
    if method == "closed":
        v, sin = geom.v, math.sin(geom.theta)
        return log_ratio((ell, v, sin, v, sin), (geom.L1,)) + 2.0 * (math.log(2.0) - 1.0)
    if method != "numeric":
        raise ValueError(f"unknown method: {method!r}")
    import numpy as np

    from .quadrature import _MAX_EVALS, _on_boundary, _pv_many, integrate_1d

    s = geom.v * math.sin(geom.theta)
    if 1.0 - s == 1.0 + s:
        raise ValueError(
            f"v sin(theta) = {s:.3g} is too small for the two I_aa poles to be distinct"
        )
    if not ell < geom.L1:
        raise ValueError(
            f"ell = {ell:.12g} must lie below L1 = {geom.L1:.12g}: the numeric I_aa "
            "cuts off at flight time ell/v, inside T1 = L1/v"
        )
    c, T1 = ell / geom.v, geom.T1
    # an outer node that lands exactly on a pole crossing puts the pole on
    # the inner boundary; nudge that node's window rather than the physics
    # (integrable in the outer variable)
    shift = 4e-12 * (T1 - c)
    inner_errs: list[float] = []
    spent = 0

    def integrand(t: np.ndarray) -> np.ndarray:
        nonlocal spent
        pole_sets = np.stack([t * (1.0 - s) / (1.0 + s), t * (1.0 + s) / (1.0 - s)], -1).tolist()
        windows = [
            (c + shift, T1 - shift) if any(_on_boundary(c, T1, p) for p in ps) else (c, T1)
            for ps in pole_sets
        ]

        def g(x: np.ndarray, owner: np.ndarray) -> np.ndarray:
            t_ = t[owner]
            return 1.0 / ((t_ - x) ** 2 - s * s * (t_ + x) ** 2)

        results = _pv_many(g, windows, pole_sets, _I_INNER_CFG, 8)
        spent += sum(res.evaluations for res in results)
        if spent > _MAX_EVALS:
            raise NonConvergenceError(
                f"I_aa numeric: inner principal values took {spent} evaluations, over the "
                f"budget of {_MAX_EVALS}"
            )
        inner_errs.extend(res.error_estimate for res in results)
        return np.array([res.value for res in results])

    # the outer breakpoints are where a pole crosses c or T1
    crossings = (c * (1.0 + s) / (1.0 - s), T1 * (1.0 - s) / (1.0 + s))
    res = integrate_1d(integrand, c, T1, _I_NUMERIC_CFG, breakpoints=crossings)
    total_err = res.error_estimate + sum(inner_errs) / max(len(inner_errs), 1) * (T1 - c)
    if total_err > max(0.01 * abs(res.value), 1e-9):
        raise NonConvergenceError(
            f"I_aa numeric: error estimate {total_err:.2e} exceeds the oracle budget"
        )
    return res.value


def _corner_h(x: float) -> float:
    """g(a) + ln a at a = 1/x, for a corner's ratio x = c/u in [0, 2) (see I_ab).

    Above a = 2 it is written in x, through atanh, so that it forms no a
    and keeps its digits as x -> 0, where it tends to -1; within a factor 2
    of the pole the log form in a loses nothing.
    """
    if x < 0.5:
        return (-math.atanh(x) / x if x else -1.0) - 0.5 * math.log1p(-x * x)
    a = 1.0 / x
    d = a - 1.0
    g = 0.5 * ((d * math.log(abs(d)) if d else 0.0) - (a + 1.0) * math.log(a + 1.0))
    return g + math.log(a)


def segment_I_ab(geom: IntersectingGeometry, *, method: str = "closed") -> float:
    """Cross-segment radiation kernel of the V geometry.

    closed: 1 - ln(2 v sin(theta)), the small-v form.  exact: the
    four-corner sum of the principal-value double integral (module
    docstring), to rounding, for every geometry IntersectingGeometry
    accepts.
    """
    if method == "closed":
        return 1.0 - log_ratio((2.0, geom.v, math.sin(geom.theta)))
    if method != "exact":
        raise ValueError(f"unknown method: {method!r}")
    # g(a) = _corner_h(1/a) - ln a at a = (1 + r)/(2s), r/(2s) and 1/(2s);
    # in q = 1/r = L1/L2 < 1 each 1/a stays finite, and the three ln a
    # leave -ln(1 + q) - ln(2s)
    sin = math.sin(geom.theta)
    s = geom.v * sin
    q = geom.L1 / geom.L2
    x2 = 2.0 * s * q
    corners = _corner_h(x2 / (1.0 + q)) - _corner_h(x2) - _corner_h(2.0 * s)
    return corners - math.log1p(q) - log_ratio((2.0, geom.v, sin))


def segment_I_bb(geom: IntersectingGeometry) -> float:
    """Long-segment radiation kernel: the T >> rho asymptote of K with
    separation 2 L1 sin(theta) and duration T2."""
    return -2.0 * (1.0 + log_ratio((geom.L2,), (2.0, geom.L1, geom.v, math.sin(geom.theta))))
