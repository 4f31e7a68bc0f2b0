"""Acceptance gate: one test and one printed pass/fail line per criterion.

Every number asserted here is either an exact constant of the closed
forms, an independently computed oracle, or a stated tolerance band; run
with -s (or read the -v per-test lines) for the one-line summaries.
"""

from __future__ import annotations

import math
import time

import pytest

from edecoh.cli import main
from edecoh.decoherence import (
    DecoherenceResult,
    IntersectingGeometry,
    ParallelGeometry,
    ValidityInput,
    interference_pattern,
    max_flight_distance,
    w_total_intersecting,
    w_total_parallel,
)
from edecoh.kernels import (
    K_EQUAL_ARGS_LIMIT,
    kernel_K_closed,
    kernel_K_numeric,
    segment_I_aa,
    segment_I_ab,
    segment_I_bb,
    segment_J_ab_closed,
)
from edecoh.wavepacket import (
    UniformSphere,
    kappa_bruteforce_oracle,
    kappa_numeric,
)

ALPHA = 7.2973525693e-3
# largest theta the intersecting-geometry invariants admit; sin of it
# rounds to exactly 1.0 in floats
THETA_NEAR_RIGHT = 0.5 * math.pi * (1.0 - 1e-12)


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  criterion {num:02d}  {name}: {detail}")
    assert ok, f"criterion {num:02d} {name}: {detail}"


def test_criterion_01_sphere_shape_constant():
    t0 = time.perf_counter()
    numeric = kappa_numeric(UniformSphere(radius=1.0))
    mc = kappa_bruteforce_oracle(UniformSphere(radius=1.0), samples=10_000_000, seed=1)
    elapsed = time.perf_counter() - t0
    pull = abs(mc.value + 1.5) / mc.error_estimate
    ok = abs(numeric.value + 1.5) < 1e-3 and pull <= 4.0 and elapsed < 30.0
    _report(
        1,
        "sphere shape constant",
        ok,
        f"quadrature {numeric.value:.9f}, MC pull {pull:.2f} sigma at 1e7 samples, "
        f"{elapsed:.1f} s",
    )


def test_criterion_02_aspect_ratio_sweep(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "sweep.csv"
    rc = main(
        ["kappa-sweep", "--beta-min", "0.1", "--beta-max", "20", "--steps", "40",
         "--log-spacing", "--out", str(out)]
    )
    elapsed = time.perf_counter() - t0
    lines = out.read_text().splitlines()
    rows = [tuple(float(x) for x in line.split(",")) for line in lines[1:]]
    betas = [r[0] for r in rows]
    kappas = [r[1] for r in rows]
    errs = [r[2] for r in rows]

    i = betas.index(2.0)
    slope_left = (kappas[i] - kappas[i - 1]) / (betas[i] - betas[i - 1])
    slope_right = (kappas[i + 1] - kappas[i]) / (betas[i + 1] - betas[i])
    err_left = (errs[i] + errs[i - 1]) / (betas[i] - betas[i - 1])
    err_right = (errs[i + 1] + errs[i]) / (betas[i + 1] - betas[i])
    jump = abs(slope_left - slope_right)

    continuous = max(
        abs(kappas[j + 1] - kappas[j]) for j in range(len(rows) - 1)
    )
    ok = (
        rc == 0
        and len(rows) == 41  # 40 requested points plus the pinned beta = 2
        and continuous < 0.3
        and jump > 5.0 * (err_left + err_right)
        and all(0.5 < abs(k) < 5.0 for k in kappas)
        and elapsed < 300.0
    )
    _report(
        2,
        "aspect-ratio sweep with slope break",
        ok,
        f"slope jump {jump:.3f} vs 5x combined error {5.0 * (err_left + err_right):.2e}, "
        f"max step {continuous:.3f}, {elapsed:.1f} s",
    )


def test_criterion_03_coincident_kernel_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    for ratio in (1.5, 2.0, 5.0, 10.0, 100.0):
        res = kernel_K_numeric(ratio, 1.0)
        rel = abs(res.value - kernel_K_closed(ratio, 1.0)) / abs(res.value)
        worst = max(worst, rel if res.converged else math.inf)
    # at T = rho the integrand collapses to -2/(tau + T)
    from edecoh.quadrature import integrate_1d

    limit = integrate_1d(lambda tau: -2.0 / (tau + 1.0), 0.0, 1.0)
    limit_err = abs(limit.value - K_EQUAL_ARGS_LIMIT)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and limit.converged and limit_err <= 1e-10 and elapsed < 10.0
    _report(
        3,
        "coincident kernel closed vs principal value",
        ok,
        f"max rel diff {worst:.2e}, equal-argument limit off by {limit_err:.2e}, "
        f"{elapsed:.1f} s",
    )


def test_criterion_04_long_time_asymptote():
    K = kernel_K_closed(100.0, 1.0)
    rel = abs(K - (-2.0 - math.log(100.0**2))) / abs(K)
    _report(4, "long-time asymptote of the kernel", rel < 0.01, f"rel gap {rel:.2e} at T/rho = 100")


def test_criterion_05_parallel_plateau():
    sphere = (-1.5, 1.0)  # (kappa, ell) of a sphere of radius 0.5, so r0 = 100 ell
    r0 = 100.0
    w4 = w_total_parallel(ParallelGeometry(r0=r0, T=1e4 * r0, v=0.01), *sphere).w_total
    w5 = w_total_parallel(ParallelGeometry(r0=r0, T=1e5 * r0, v=0.01), *sphere).w_total
    drift = abs(w4 - w5) / abs(w5)
    plateau = ALPHA / math.pi * (2.0 * math.log(100.0) + 1.5)
    gap = abs(w5 - plateau) / plateau
    ok = drift < 1e-3 and gap < 5e-3 and abs(w5 - 0.0249) < 1e-4
    _report(
        5,
        "parallel-geometry flight-time cancellation",
        ok,
        f"w(1e4 r0) vs w(1e5 r0) rel drift {drift:.2e}, plateau gap {gap:.2e}, "
        f"w = {w5:.7f}",
    )


def test_criterion_06_intersecting_cancellation():
    geom = IntersectingGeometry(L1=100.0, L2=10_000.0, theta=0.5, v=0.01)
    ell = 1.0
    bracket = 2.0 * segment_I_aa(geom, ell) + segment_I_bb(geom) + 4.0 * segment_I_ab(geom)
    target = -2.0 * (
        1.0 - math.log(2.0) + math.log(geom.L2 / (ell * geom.v * math.sin(geom.theta)))
    )
    bracket_rel = abs(bracket - target) / abs(target)

    geom_L2 = IntersectingGeometry(L1=100.0, L2=100_000.0, theta=0.5, v=0.01)
    base = w_total_intersecting(geom, -1.5, ell).w_total
    ell_x10 = w_total_intersecting(geom, -1.5, 10.0 * ell).w_total
    L2_x10 = w_total_intersecting(geom_L2, -1.5, ell).w_total
    inv = max(abs(ell_x10 - base), abs(L2_x10 - base)) / abs(base)
    ok = bracket_rel <= 1e-12 and inv <= 1e-12
    _report(
        6,
        "intersecting-geometry cutoff cancellation",
        ok,
        f"radiation bracket rel {bracket_rel:.2e}, ell/L2 x10 invariance rel {inv:.2e}",
    )


def test_criterion_07_segment_integral_oracles(I_ab_pv_in_u):
    from scipy.integrate import dblquad

    t0 = time.perf_counter()
    geom_ab = IntersectingGeometry(L1=1.0, L2=100.0, theta=math.pi / 4, v=0.01)
    geom_aa = IntersectingGeometry(L1=1.0, L2=100.0, theta=math.pi / 6, v=0.01)
    ell_aa = 1e-2
    rel_ab = abs(I_ab_pv_in_u(geom_ab) - segment_I_ab(geom_ab)) / abs(segment_I_ab(geom_ab))
    rel_aa = abs(
        segment_I_aa(geom_aa, ell_aa, method="numeric") - segment_I_aa(geom_aa, ell_aa)
    ) / abs(segment_I_aa(geom_aa, ell_aa))

    jgeom = IntersectingGeometry(L1=1.0, L2=40.0, theta=0.5, v=0.1)
    jell = 0.01
    T1, tau = jgeom.T1, jell / jgeom.v
    # scipy's dblquad shares no code with edecoh
    j_value, j_err = dblquad(
        lambda tp, t: (t - tp) ** -2.0,
        0.0,
        T1 - 0.5 * tau,
        T1 + 0.5 * tau,
        T1 + jgeom.T2,
        epsabs=1e-13,
        epsrel=1e-11,
    )
    j_converged = j_err <= max(1e-13, 1e-11 * abs(j_value))
    rel_j = abs(segment_J_ab_closed(jgeom, jell) - j_value) / abs(j_value)
    elapsed = time.perf_counter() - t0
    ok = rel_ab <= 0.02 and rel_aa <= 0.02 and j_converged and rel_j <= 1e-8 and elapsed < 120.0
    _report(
        7,
        "segment integrals vs independent quadrature",
        ok,
        f"I_ab rel {rel_ab:.2e}, I_aa rel {rel_aa:.2e}, J_ab rel {rel_j:.2e}, "
        f"{elapsed:.1f} s",
    )


def test_criterion_08_contrast_magnitude():
    geom = IntersectingGeometry(L1=100.0, L2=10_000.0, theta=THETA_NEAR_RIGHT, v=0.1)
    res = w_total_intersecting(geom, -1.5, 1.0)
    change = abs(res.contrast - 1.0)
    ok = abs(res.w_total - 0.022) < 5e-4 and 0.01 <= change <= 0.03
    _report(
        8,
        "contrast change at the percent scale",
        ok,
        f"w_total = {res.w_total:.6f}, contrast change {100.0 * change:.2f}%",
    )


def test_criterion_09_spreading_bound():
    bound = max_flight_distance(ValidityInput(energy=1e4, dx0=1e-6))
    _report(
        9,
        "wavepacket-spreading flight bound",
        0.9 <= bound <= 1.1,
        f"10 keV, 1 um -> {bound:.4f} m",
    )


def test_criterion_10_interference_sanity():
    coherent = DecoherenceResult(0.0, 0.0, 0.0, 1.0)
    worst = 0.0
    for phase in (0.0, 0.8, math.pi / 2, math.pi, 4.0):
        full = 0.3 + 0.5 + 2.0 * math.sqrt(0.3 * 0.5) * math.cos(phase)
        worst = max(worst, abs(interference_pattern(0.3, 0.5, phase, coherent) - full))

    decohered = DecoherenceResult(0.0, -0.05, -0.05, math.exp(-0.05))
    phases = [2.0 * math.pi * k / 1000.0 for k in range(1000)]
    least = min(
        min(interference_pattern(0.4, 0.4, p, decohered) for p in phases),
        min(interference_pattern(0.1, 0.7, p, decohered) for p in phases),
    )
    ok = worst < 1e-15 and least >= 0.0
    _report(
        10,
        "interference pattern limits",
        ok,
        f"coherent-limit residual {worst:.1e}, min density {least:.2e} over 1e3 phases",
    )


def test_assembled_cancellation_residual_is_linear_in_ell_over_L1():
    # Paper claim 3 in the assembled branch: the ell dependence of the vacuum
    # term cancels against photon emission up to a remainder O(ell/L1), which
    # the closed branch drops.  The numeric I_aa moves w_total by about 2e-7,
    # under a tenth of the smallest residual here.
    geom = IntersectingGeometry(L1=100.0, L2=10_000.0, theta=0.5, v=0.01)
    ratios = (1e-3, 1e-2, 1e-1)
    residual = []
    for ratio in ratios:
        ell = ratio * geom.L1  # a sphere's diameter
        assembled = w_total_intersecting(geom, -1.5, ell, branch="assembled").w_total
        residual.append(assembled - w_total_intersecting(geom, -1.5, ell).w_total)
    slopes = [
        math.log(residual[i + 1] / residual[i]) / math.log(ratios[i + 1] / ratios[i])
        for i in range(len(ratios) - 1)
    ]
    assert all(r > 0.0 for r in residual), residual
    assert all(abs(s - 1.0) <= 0.1 for s in slopes), slopes
