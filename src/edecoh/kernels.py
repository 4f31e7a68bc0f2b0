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
  so that point raises DegenerateInputError and callers use the limit.
  For T >> rho, K -> -2 - ln(T^2/rho^2).

* J kernels: static-potential pieces for the V geometry with arm segments
  a (length L1, before the vertex) and b (length L2, after).  The cross
  term J_ab has an exact elementary form for the excised double integral
  int_0^{T1-d} dt int_{T1+d}^{T1+T2} dt' (t - t')^-2 with excision
  half-width d around the vertex passage:

      J_ab = ln[ (T1 + d)(T2 + d) / (2 d (T1 + T2)) ],   d = tau/2 default

  which tends to ln(L1/ell + 1/2) as L2/L1 -> infinity and to ln(L1/ell)
  asymptotically.  The same-segment pieces J_aa, J_bb share one form,
  J_straight = -2 + kappa - 2 ln(L/(ell v)).

* I kernels: radiation pieces of the same geometry, small-v closed forms
  with principal-value double integrals as their numeric counterparts.
  Branch selection is always explicit; the closed forms drop O(v) to
  O(v ln v) terms depending on the kernel, so no function silently
  substitutes an asymptote for the requested branch.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .quadrature import (
    IntegrationResult,
    NonConvergenceError,
    QuadratureConfig,
    _on_boundary,
    _pv_many,
    integrate_1d,
    pv_integrate_1d,
)

__all__ = [
    "KernelInput",
    "SegmentPairInput",
    "DegenerateInputError",
    "RegimeWarning",
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


class DegenerateInputError(ValueError):
    """Input sits exactly on a removable singularity of a closed form."""


class RegimeWarning(UserWarning):
    """Input is valid but outside the regime the closed forms assume."""


def require_finite(obj: object, *names: str) -> None:
    """Reject non-finite fields, which would pass every ordering check."""
    for name in names:
        if not math.isfinite(getattr(obj, name)):
            raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class KernelInput:
    """Flight time and transverse separation for the coincident kernel."""

    T: float
    rho: float

    def __post_init__(self) -> None:
        require_finite(self, "T", "rho")
        if not self.T > 0.0:
            raise ValueError("flight time T must be positive")
        if not self.rho > 0.0:
            raise ValueError("separation rho must be positive")


@dataclass(frozen=True)
class SegmentPairInput:
    """Geometry of two straight arm segments meeting at a vertex.

    Segment a has length L1 (traversed before the vertex), segment b has
    length L2; theta is the half-opening angle between the two arms, v the
    speed (c = 1), ell the wavepacket size that cuts off short-distance
    divergences.  The closed forms assume ell << L1 << L2 and
    v sin(theta) << 1; violating those is legal but draws RegimeWarning.
    """

    L1: float
    L2: float
    ell: float
    v: float
    theta: float

    def __post_init__(self) -> None:
        require_finite(self, "L1", "L2", "ell", "v", "theta")
        for name in ("L1", "L2", "ell"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
        if not 0.0 < self.v < 1.0:
            raise ValueError("speed v must lie in (0, 1)")
        if not 0.0 < self.theta < 0.5 * math.pi:
            raise ValueError("half-opening angle theta must lie in (0, pi/2)")
        if self.L1 < 10.0 * self.ell:
            warnings.warn(
                "L1 is within a factor 10 of ell; scale separation is marginal",
                RegimeWarning,
                stacklevel=2,
            )
        if self.L2 < 10.0 * self.L1:
            warnings.warn(
                "L2 is within a factor 10 of L1; long-arm asymptotics are marginal",
                RegimeWarning,
                stacklevel=2,
            )
        if self.v * math.sin(self.theta) > 0.2:
            warnings.warn(
                "v sin(theta) > 0.2; small-speed closed forms lose accuracy",
                RegimeWarning,
                stacklevel=2,
            )

    @property
    def T1(self) -> float:
        return self.L1 / self.v

    @property
    def T2(self) -> float:
        return self.L2 / self.v

    @property
    def tau(self) -> float:
        return self.ell / self.v


def kernel_K_closed(T: float, rho: float) -> float:
    """Closed form of the coincident-segment kernel, either side of T = rho."""
    KernelInput(T, rho)
    if abs(T - rho) <= 1e-12 * max(T, rho):
        raise DegenerateInputError(
            "closed form degenerates at T = rho; the limit there is -2 ln 2 "
            "(K_EQUAL_ARGS_LIMIT)"
        )
    return (T / rho) * math.log(abs(T - rho) / (T + rho)) - math.log(
        abs(T * T - rho * rho) / (rho * rho)
    )


def kernel_K_numeric(
    T: float, rho: float, cfg: QuadratureConfig | None = None
) -> IntegrationResult:
    """Principal-value evaluation of the defining integral of K.

    The integrand 2 (T - tau)/(tau^2 - rho^2) has a simple pole at
    tau = rho, inside the range only when rho < T; for rho > T the plain
    adaptive path is taken automatically.  rho = T puts the pole on the
    boundary and raises PoleOnBoundaryError (use K_EQUAL_ARGS_LIMIT).
    """
    KernelInput(T, rho)

    def f(tau):
        return 2.0 * (T - tau) / (tau * tau - rho * rho)

    return pv_integrate_1d(f, 0.0, T, [rho], cfg)


def segment_J_ab_closed(
    inp: SegmentPairInput, *, asymptotic: bool = False, excision: float | None = None
) -> float:
    """Cross-segment static kernel of the V geometry.

    The exact form keeps the vertex excision of half-width `excision`
    (default tau/2) and both finite segment durations; the asymptotic flag
    returns the leading ln(L1/ell) instead.
    """
    if asymptotic:
        if excision is not None:
            raise ValueError("excision only applies to the exact form")
        return math.log(inp.L1 / inp.ell)
    d = 0.5 * inp.tau if excision is None else excision
    if not 0.0 < d < inp.T1:
        raise ValueError("excision half-width must lie in (0, T1)")
    return math.log((inp.T1 + d) * (inp.T2 + d) / (2.0 * d * (inp.T1 + inp.T2)))


def segment_J_straight(L: float, ell: float, v: float, kappa: float) -> float:
    """Same-segment static kernel, shared by both arms of the V geometry."""
    if not L > 0.0 or not ell > 0.0:
        raise ValueError("lengths must be positive")
    if not 0.0 < v < 1.0:
        raise ValueError("speed v must lie in (0, 1)")
    return -2.0 + kappa - 2.0 * math.log(L / (ell * v))


# numeric radiation kernels: the outer integral sees the inner PV value as
# a smooth function except for integrable log spikes where a pole crosses
# the inner boundary.  These are validation oracles for closed forms that
# themselves carry O(v ln v) truncation, so the outer tolerance is set for
# ~1e-4 relative accuracy; tightening it multiplies the inner work, which
# _I_NUMERIC_MAX_EVALS caps.
_I_NUMERIC_CFG = QuadratureConfig(
    rel_tol=3e-5,
    abs_tol=1e-8,
    max_subdivisions=2048,
    excision_sequence=tuple(0.5**k for k in range(1, 9)),
)

# inner integrand evaluations one numeric I_aa or I_ab may spend; the
# default V geometry spends 1.3M on I_aa and 0.3M on I_ab
_I_NUMERIC_MAX_EVALS = 20_000_000


def _double_pv(
    g: Callable[[np.ndarray, np.ndarray], np.ndarray],
    poles: Callable[[np.ndarray], np.ndarray],
    inner: tuple[float, float],
    outer: tuple[float, float],
    breakpoints: tuple[float, ...],
    cfg: QuadratureConfig,
    what: str,
) -> float:
    """Outer adaptive integral over t of the inner principal value over t'.

    g(t, t') is the integrand and poles(t) the (nodes, poles) array of the
    inner poles at outer nodes t.  Each refinement round of the outer
    integral computes the inner PVs of all its nodes in one _pv_many batch.
    Raises NonConvergenceError once the inner PVs have spent
    _I_NUMERIC_MAX_EVALS evaluations, or when the outer error plus the mean
    inner error over the outer range exceeds 1% of the value.
    """
    inner_cfg = replace(cfg, rel_tol=max(cfg.rel_tol * 0.1, 1e-9))
    lo, hi = inner
    # an outer node that lands exactly on a pole crossing puts the pole on
    # the inner boundary; nudge that node's window rather than the physics
    # (integrable in the outer variable)
    shift = 4e-12 * (hi - lo)
    inner_errs: list[float] = []
    spent = 0

    def integrand(t: np.ndarray) -> np.ndarray:
        nonlocal spent
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        pole_sets = poles(ts).tolist()
        windows = [
            (lo + shift, hi - shift) if any(_on_boundary(lo, hi, p) for p in ps) else (lo, hi)
            for ps in pole_sets
        ]
        results = _pv_many(lambda x, owner: g(ts[owner], x), windows, pole_sets, inner_cfg)
        spent += sum(res.evaluations for res in results)
        if spent > _I_NUMERIC_MAX_EVALS:
            raise NonConvergenceError(
                f"{what}: inner principal values took {spent} evaluations, over the "
                f"budget of {_I_NUMERIC_MAX_EVALS}"
            )
        inner_errs.extend(res.error_estimate for res in results)
        return np.reshape([res.value for res in results], np.shape(t))

    res = integrate_1d(integrand, *outer, cfg, breakpoints=breakpoints or None)
    mean_inner = sum(inner_errs) / max(len(inner_errs), 1)
    total_err = res.error_estimate + mean_inner * (outer[1] - outer[0])
    if not math.isfinite(res.value):
        raise NonConvergenceError(f"{what}: non-finite value")
    if total_err > max(0.01 * abs(res.value), 1e-9):
        raise NonConvergenceError(
            f"{what}: error estimate {total_err:.2e} exceeds the oracle budget"
        )
    return res.value


def segment_I_aa(
    inp: SegmentPairInput,
    cfg: QuadratureConfig | None = None,
    *,
    method: str = "closed",
    cutoff: float | None = None,
) -> float:
    """Same-segment radiation kernel of the V geometry.

    closed: ln(ell v^2 sin^2(theta) / L1) + 2 (ln 2 - 1), the small-v form.
    numeric: principal-value double integral of
    [(t - t')^2 - v^2 sin^2(theta) (t + t')^2]^-1 over [cutoff, T1]^2 with
    cutoff ell/v by default; for each outer t the inner poles sit at
    t (1 -+ s)/(1 +- s) with s = v sin(theta).
    """
    s = inp.v * math.sin(inp.theta)
    if method == "closed":
        return math.log(inp.ell * s * s / inp.L1) + 2.0 * (math.log(2.0) - 1.0)
    if method != "numeric":
        raise ValueError(f"unknown method: {method!r}")
    if 1.0 - s == 1.0 + s:
        raise ValueError(
            f"v sin(theta) = {s:.3g} is too small for the two I_aa poles to be distinct"
        )
    c = inp.ell / inp.v if cutoff is None else cutoff
    T1 = inp.T1
    if not 0.0 < c < T1:
        raise ValueError("cutoff must lie in (0, T1)")

    def g(t, tp):
        return 1.0 / ((t - tp) ** 2 - s * s * (t + tp) ** 2)

    def poles(t):
        return np.stack([t * (1.0 - s) / (1.0 + s), t * (1.0 + s) / (1.0 - s)], axis=-1)

    # pole-crossing locations in the outer variable
    crossings = [c * (1.0 + s) / (1.0 - s), T1 * (1.0 - s) / (1.0 + s)]
    bps = tuple(x for x in crossings if c < x < T1)
    return _double_pv(g, poles, (c, T1), (c, T1), bps, cfg or _I_NUMERIC_CFG, "I_aa numeric")


def segment_I_ab(
    inp: SegmentPairInput,
    cfg: QuadratureConfig | None = None,
    *,
    method: str = "closed",
) -> float:
    """Cross-segment radiation kernel of the V geometry.

    closed: 1 - ln(2 v sin(theta)), the small-v form.  numeric:
    principal-value double integral of [(t - t')^2 - 4 T1^2 v^2
    sin^2(theta)]^-1 for t in the first segment and t' in the second; the
    pole at t' = t + 2 T1 v sin(theta) enters the t' range once t is
    within 2 T1 v sin(theta) of the vertex.
    """
    s = inp.v * math.sin(inp.theta)
    if method == "closed":
        return 1.0 - math.log(2.0 * s)
    if method != "numeric":
        raise ValueError(f"unknown method: {method!r}")
    T1, T2 = inp.T1, inp.T2
    c0 = 2.0 * T1 * s

    def g(t, tp):
        return 1.0 / ((t - tp) ** 2 - c0 * c0)

    def poles(t):
        return (t + c0)[:, None]

    bps = (T1 - c0,) if 0.0 < T1 - c0 < T1 else ()
    return _double_pv(
        g, poles, (T1, T1 + T2), (0.0, T1), bps, cfg or _I_NUMERIC_CFG, "I_ab numeric"
    )


def segment_I_bb(inp: SegmentPairInput) -> float:
    """Long-segment radiation kernel: the T >> rho asymptote of K with
    separation 2 L1 sin(theta) and duration T2."""
    return -2.0 * (1.0 + math.log(inp.L2 / (2.0 * inp.L1 * inp.v * math.sin(inp.theta))))
