"""Independent references for the benchmark's correctness gate.

Nothing here imports edecoh: every value is rebuilt from the physics with
scipy's QUADPACK routines, so a defect in the program's quadrature cannot
hide in its own reference.

- Cylinder shape constant kappa(beta): the transverse pair enters the axial
  log-average F only through the pair distance b, so the six-dimensional
  average is the 1-D integral kappa = 2 int_0^2 P(b) F(b) db over the
  disk-line-picking density P (Solomon, Geometric Probability, 1978).
- Radiation kernels I_aa, I_ab of the V geometry: the inner integrand is
  rational with simple real poles, so its principal value is an elementary
  log difference (partial fractions); the outer integral is a plain
  scipy.integrate.quad with the pole crossings passed as breakpoints.  The
  inner closed form is cross-checked against QUADPACK's Cauchy-weight rule
  (QAWC, Piessens et al. 1983) by `cross_check_inner_pv`.
- K(T, rho) closed form, used only to rebuild w_photon of --ell-sweep rows.
"""

from __future__ import annotations

import math

from scipy.integrate import quad

ALPHA_FS = 7.2973525693e-3


def _axial_log_average(b: float, beta: float) -> float:
    """F(b) for a cylinder of radius 1 and length beta, ell = max(2, beta)."""
    b2, beta2 = b * b, beta * beta
    b2_ln_b = 0.5 * b2 * math.log(b2) if b > 0.0 else 0.0
    bracket = b2_ln_b - 0.5 * (
        (b2 - beta2) * math.log(b2 + beta2) - 4.0 * beta * b * math.atan2(beta, b) + 3.0 * beta2
    )
    return -math.log(max(2.0, beta)) + bracket / beta2


def _disk_line_picking(b: float) -> float:
    """Density of the distance between two uniform points of the unit disk."""
    h = 0.5 * b
    return (4.0 * b / math.pi) * (math.acos(h) - h * math.sqrt(max(0.0, 1.0 - h * h)))


def kappa_cylinder(beta: float) -> float:
    value, _ = quad(
        lambda b: _disk_line_picking(b) * _axial_log_average(b, beta),
        0.0,
        2.0,
        epsabs=1e-14,
        epsrel=1e-13,
        limit=200,
    )
    return 2.0 * value


def _pv_log(lo: float, hi: float, p: float) -> float:
    """PV of int_lo^hi dx / (x - p), for p inside or outside [lo, hi]."""
    return math.log(abs(hi - p) / abs(lo - p))


def _I_aa_inner(t: float, s: float, c: float, T1: float) -> float:
    # (t - t')^2 - s^2 (t + t')^2 = (1 - s^2)(t' - p1)(t' - p2)
    p1 = t * (1.0 - s) / (1.0 + s)
    p2 = t * (1.0 + s) / (1.0 - s)
    return (_pv_log(c, T1, p2) - _pv_log(c, T1, p1)) / (4.0 * s * t)


def _I_ab_inner(t: float, c0: float, T1: float, T2: float) -> float:
    # (t - t')^2 - c0^2 = (t' - t - c0)(t' - t + c0)
    return (_pv_log(T1, T1 + T2, t + c0) - _pv_log(T1, T1 + T2, t - c0)) / (2.0 * c0)


def _outer(f, lo: float, hi: float, points: list[float]) -> float:
    pts = sorted(p for p in points if lo < p < hi)
    value, _ = quad(f, lo, hi, points=pts or None, epsabs=0.0, epsrel=1e-10, limit=500)
    return value


def segment_I_aa(L1: float, ell: float, v: float, theta: float) -> float:
    s = v * math.sin(theta)
    c, T1 = ell / v, L1 / v
    crossings = [c * (1.0 + s) / (1.0 - s), T1 * (1.0 - s) / (1.0 + s)]
    return _outer(lambda t: _I_aa_inner(t, s, c, T1), c, T1, crossings)


def segment_I_ab(L1: float, L2: float, v: float, theta: float) -> float:
    s = v * math.sin(theta)
    T1, T2 = L1 / v, L2 / v
    c0 = 2.0 * T1 * s
    return _outer(lambda t: _I_ab_inner(t, c0, T1, T2), 0.0, T1, [T1 - c0])


def kernel_K(T: float, rho: float) -> float:
    return (T / rho) * math.log(abs(T - rho) / (T + rho)) - math.log(abs(T * T - rho * rho) / (rho * rho))


def w_photon(L1: float, L2: float, ell: float, v: float, theta: float) -> tuple[float, float]:
    """Assembled photon exponent and its tolerance from the 1% kernel budget."""
    I_aa = segment_I_aa(L1, ell, v, theta)
    I_ab = segment_I_ab(L1, L2, v, theta)
    I_bb = kernel_K(L2 / v, 2.0 * L1 * math.sin(theta))
    half_a = 0.5 * ALPHA_FS / math.pi
    value = half_a * (2.0 * I_aa + I_bb + 4.0 * I_ab)
    tol = half_a * 0.01 * (2.0 * abs(I_aa) + 4.0 * abs(I_ab))
    return value, tol


def _cauchy_pv(f, lo: float, hi: float, pole: float) -> float:
    """PV of int f(x) / (x - pole) dx by QAWC."""
    value, _ = quad(f, lo, hi, weight="cauchy", wvar=pole, epsabs=0.0, epsrel=1e-10, limit=200)
    return value


def cross_check_inner_pv(L1: float, L2: float, ell: float, v: float, theta: float) -> float:
    """Largest relative gap between the elementary inner PVs and QAWC.

    Sampled at five outer points per kernel.  Where both I_aa poles lie
    inside [c, T1] the range is split between them, so that QAWC sees one
    pole per piece.
    """
    s = v * math.sin(theta)
    c, T1, T2 = ell / v, L1 / v, L2 / v
    c0 = 2.0 * T1 * s
    worst = 0.0
    for frac in (0.05, 0.3, 0.5, 0.7, 0.95):
        t = c + frac * (T1 - c)
        p1, p2 = t * (1.0 - s) / (1.0 + s), t * (1.0 + s) / (1.0 - s)
        scale = 1.0 - s * s
        mid = 0.5 * (p1 + p2)
        qawc = 0.0
        if c < p1:
            qawc += _cauchy_pv(lambda x: 1.0 / (scale * (x - p2)), c, mid, p1)
        else:
            qawc += quad(lambda x: 1.0 / (scale * (x - p1) * (x - p2)), c, mid, epsrel=1e-12)[0]
        if p2 < T1:
            qawc += _cauchy_pv(lambda x: 1.0 / (scale * (x - p1)), mid, T1, p2)
        else:
            qawc += quad(lambda x: 1.0 / (scale * (x - p1) * (x - p2)), mid, T1, epsrel=1e-12)[0]
        ref = _I_aa_inner(t, s, c, T1)
        worst = max(worst, abs(qawc - ref) / abs(ref))

        t = frac * T1
        qawc = _cauchy_pv(lambda x: 1.0 / (x - t + c0), T1, T1 + T2, t + c0)
        ref = _I_ab_inner(t, c0, T1, T2)
        worst = max(worst, abs(qawc - ref) / abs(ref))
    return worst
