"""Wavepacket shape-constant tests.

The deterministic quadrature path and the Monte-Carlo oracle are built on
disjoint machinery, so their agreement is the primary correctness evidence
for the cylinder.  The axial closed form is additionally checked against a
quadrature of its defining average, written here from the definition and
not shared with the implementation.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from edecoh.quadrature import IntegrationResult, QuadratureConfig, integrate_1d
from edecoh.wavepacket import (
    DomainError,
    UniformCylinder,
    UniformSphere,
    characteristic_length,
    cylinder_F,
    kappa,
    kappa_bruteforce_oracle,
    kappa_numeric,
)


class TestShapes:
    def test_characteristic_lengths(self):
        assert characteristic_length(UniformSphere(1.0)) == 2.0
        assert characteristic_length(UniformCylinder(1.0, 5.0)) == 5.0
        assert characteristic_length(UniformCylinder(1.0, 1.0)) == 2.0
        assert characteristic_length(UniformCylinder(1.0, 2.0)) == 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            UniformSphere(0.0)
        with pytest.raises(ValueError):
            UniformSphere(-1.0)
        with pytest.raises(ValueError):
            UniformCylinder(1.0, 0.0)
        with pytest.raises(ValueError):
            UniformCylinder(-2.0, 1.0)
        # each length is fine, their ratio overflows or underflows
        for radius, length in ((1e-300, 1e300), (1e300, 1e-300)):
            with pytest.raises(ValueError, match="L/R"):
                UniformCylinder(radius, length)
        with pytest.raises(TypeError):
            characteristic_length("ball")  # type: ignore[arg-type]

    def test_beta(self):
        assert UniformCylinder(2.0, 5.0).beta == 2.5


def _axial_average_oracle(b: float, beta: float) -> float:
    """Direct quadrature of the defining axial average.

    F(b) is the mean of ln(d/ell) over the two scaled axial coordinates
    u, u' uniform in [0, 1], with d^2 = (R b)^2 + L^2 (u - u')^2 and R = 1,
    L = beta, ell = max(2R, L).  The mean depends on u, u' only through
    w = |u - u'|, whose density on [0, 1] is 2 (1 - w), so it is one 1-D
    integral.
    """
    ell = max(2.0, beta)

    def f(w):
        d2 = b * b + beta * beta * w * w
        with np.errstate(divide="ignore"):
            return 2.0 * (1.0 - w) * np.where(d2 > 0.0, 0.5 * np.log(d2 / (ell * ell)), 0.0)

    res = integrate_1d(f, 0.0, 1.0, QuadratureConfig(rel_tol=1e-11, abs_tol=1e-13))
    return res.value


def _b2(rho, rho_p, phi):
    return rho * rho + rho_p * rho_p - 2.0 * rho * rho_p * np.cos(phi)


class TestCylinderF:
    def test_b_zero_limit_beta_one(self):
        # coincident transverse positions, aspect ratio 1, R/ell = 1/2
        val = cylinder_F(0.0, 1.0)
        assert math.isclose(val, math.log(0.5) - 1.5, rel_tol=1e-12)

    def test_b_zero_limit_general(self):
        # the finite limit is the axial log-average ln(L/ell) - 3/2
        for beta in [3.0, 0.5, 8.0]:
            val = cylinder_F(0.0, beta)
            expect = math.log(beta / max(2.0, beta)) - 1.5
            assert math.isclose(val, expect, rel_tol=1e-12)
            oracle = _axial_average_oracle(0.0, beta)
            assert math.isclose(val, oracle, rel_tol=0, abs_tol=1e-8)

    @pytest.mark.parametrize("beta", [0.3, 1.0, 2.0, 7.0])
    @pytest.mark.parametrize("rho,rho_p,phi", [(0.9, 0.2, 1.1), (0.5, 0.5, 2.8), (1.0, 1.0, 0.3)])
    def test_matches_axial_quadrature(self, beta, rho, rho_p, phi):
        b2 = _b2(rho, rho_p, phi)
        oracle = _axial_average_oracle(math.sqrt(b2), beta)
        assert math.isclose(cylinder_F(b2, beta), oracle, rel_tol=0, abs_tol=1e-9)

    def test_small_aspect_ratio_is_transverse_log(self):
        # flat disk: the axial extent drops out and F -> ln(R/ell) + ln b
        b2 = _b2(0.8, 0.3, 2.0)
        val = cylinder_F(b2, 1e-3)
        assert abs(val - (math.log(0.5) + 0.5 * math.log(b2))) < 1e-4

    def test_large_aspect_ratio_is_axial_average(self):
        # thin rod with ell = L: F -> ln(L/ell) - 3/2 = -3/2; the leading
        # correction is pi*b/beta, so beta must dwarf the rim separation 2
        beta = 2000.0
        for args in [(0.1, 0.9, 0.4), (1.0, 1.0, math.pi)]:
            assert abs(cylinder_F(_b2(*args), beta) + 1.5) < 0.01

    def test_vectorized_over_phi(self):
        b2 = _b2(0.6, 0.4, np.linspace(0.0, 2.0 * math.pi, 7))
        out = cylinder_F(b2, 2.0)
        assert out.shape == b2.shape
        for b2_i, o in zip(b2, out):
            assert math.isclose(cylinder_F(float(b2_i), 2.0), o, rel_tol=1e-14)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            cylinder_F(-2e-12, 1.0)
        with pytest.raises(DomainError):
            cylinder_F(np.array([0.5, -0.2]), 1.0)
        with pytest.raises(ValueError):
            cylinder_F(0.5, -1.0)
        for beta in (math.nan, math.inf):
            with pytest.raises(ValueError, match="beta"):
                cylinder_F(0.5, beta)

    def test_matches_mpmath_across_beta(self):
        # the bracket form of the module docstring, with enough digits that
        # its O(b^2 ln b) terms cancel to the O(beta^2) bracket without loss
        # (4/beta^2 bounds their ratio).  It shares no arrangement with the
        # implementation.  The grid holds beta = 1e-300, 1e-12, 1e6 and
        # 1e300 and both ends of the float range; floating-point warnings
        # are errors under the suite's settings
        mpmath = pytest.importorskip("mpmath")

        def exact(b2, beta):
            digits = 40 + math.ceil(max(0.0, math.log10(4.0) - 2.0 * math.log10(beta)))
            with mpmath.workdps(digits):
                b2, beta = mpmath.mpf(b2), mpmath.mpf(beta)
                ln_r_over_ell = -mpmath.log(max(2, beta))
                if b2 == 0:
                    return float(ln_r_over_ell + mpmath.log(beta) - 1.5)
                b = mpmath.sqrt(b2)
                bracket = b2 * mpmath.log(b) - (
                    (b2 - beta**2) * mpmath.log(b2 + beta**2)
                    - 4 * beta * b * mpmath.atan2(beta, b)
                    + 3 * beta**2
                ) / 2
                return float(ln_r_over_ell + bracket / beta**2)

        betas = [5e-324, *np.geomspace(1e-300, 1e300, 101).tolist(), 1.7e308]
        assert {1e-300, 1e-12, 1e6, 1e300} <= set(betas)
        for beta in betas:
            # b^2 in [0, 4], crowded where b crosses beta
            near = min(beta, 1.0) ** 2 * np.geomspace(1e-3, 1e3, 9)
            b2 = np.concatenate([[0.0, 5e-324, 1e-300], np.geomspace(1e-30, 4.0, 25), near])
            b2 = b2[b2 <= 4.0]
            for b2_i, val in zip(b2, cylinder_F(b2, beta)):
                ref = exact(b2_i, beta)
                assert abs(val - ref) <= 2e-15 * max(1.0, abs(ref)), (beta, b2_i)
                assert cylinder_F(float(b2_i), beta) == val

    def test_roundoff_negative_b2_clamped(self):
        # rho = rho', phi = 0 can give b^2 ~ -1e-17; it is clamped to b = 0
        val = cylinder_F(-1e-17, 1.0)
        assert math.isclose(val, math.log(0.5) - 1.5, rel_tol=1e-9)


class TestKappa:
    def test_sphere_exact(self):
        res = kappa(UniformSphere(1.0))
        assert res == IntegrationResult(-1.5, 0.0, 0, True)
        assert kappa(UniformSphere(7.0)) == res

    def test_sphere_numeric_path(self):
        res = kappa_numeric(UniformSphere(2.0))
        assert abs(res.value + 1.5) < 1e-6
        assert res.error_estimate < 1e-6

    @pytest.mark.parametrize("radius", [0.5, 2.0])
    def test_sphere_numeric_path_to_rounding(self, radius):
        # one 1-D integral over the pair-separation density
        res = kappa_numeric(UniformSphere(radius))
        assert abs(res.value + 1.5) <= 1e-13
        assert res.error_estimate <= 1e-11

    def test_ball_line_picking_density_mpmath(self):
        # the density kappa_numeric integrates, in x = d/R on [0, 2], at 30
        # digits: unit mass, and the 2 ln(d/ell) moment (ell = 2R) is -3/2
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            def p(x):
                return 3 * x**2 * (1 - 3 * x / 4 + x**3 / 16)

            mass = mpmath.quad(p, [0, 2])
            moment = mpmath.quad(lambda x: p(x) * 2 * mpmath.log(x / 2), [0, 2])
            assert abs(mass - 1) <= mpmath.mpf("1e-25")
            assert abs(moment + mpmath.mpf(3) / 2) <= mpmath.mpf("1e-25")

    @pytest.mark.parametrize("beta", [0.25, 1.0, 2.0, 4.0, 8.0])
    def test_cylinder_matches_bruteforce(self, beta):
        quad = kappa(UniformCylinder(1.0, beta))
        mc = kappa_bruteforce_oracle(UniformCylinder(1.0, beta), samples=400_000, seed=53)
        combined = math.hypot(quad.error_estimate, mc.error_estimate)
        assert abs(quad.value - mc.value) < 4.0 * combined

    @pytest.mark.parametrize("scale", [0.1, 10.0])
    def test_scale_invariance(self, scale):
        base = kappa(UniformCylinder(1.0, 3.0))
        scaled = kappa(UniformCylinder(scale, 3.0 * scale))
        assert math.isclose(base.value, scaled.value, rel_tol=0, abs_tol=1e-6)

    def test_cusp_at_aspect_ratio_two(self):
        # kappa is continuous across beta = 2 but the slope jumps by about
        # -1 because ell switches from 2R to L there
        k = {d: kappa(UniformCylinder(1.0, 2.0 + d)).value for d in (-0.1, -0.05, 0.0, 0.05, 0.1)}
        assert abs(k[0.05] - k[-0.05]) < 0.08
        slope_left = (k[0.0] - k[-0.1]) / 0.1
        slope_right = (k[0.1] - k[0.0]) / 0.1
        jump = slope_right - slope_left
        assert -1.4 < jump < -0.6

    def test_converges_where_the_top_level_took_the_whole_tolerance(self):
        # beta = 0.16546 once missed its tolerance by 1%: the top level of the
        # nested quadrature converged on the whole tolerance, and the inner
        # error was then added on top.
        # Reference: kappa = 2 int_0^2 P(b) F(b) db with the disk-line-picking
        # density P (Solomon 1978).
        beta = 0.16546
        res = kappa(UniformCylinder(1.0, beta))

        def pair_density_weighted_F(b):
            P = (4.0 * b / math.pi) * (np.arccos(b / 2) - (b / 2) * np.sqrt(1.0 - b * b / 4))
            return P * cylinder_F(b * b, beta)

        ref = integrate_1d(pair_density_weighted_F, 0.0, 2.0, QuadratureConfig(rel_tol=1e-13))
        assert ref.converged
        assert abs(res.value - 2.0 * ref.value) <= res.error_estimate

    def test_flat_disk_limit(self):
        # beta -> 0: kappa = 2 <ln(d / 2R)> over a unit disk, whose mean log
        # distance is ln R - 1/4 (Solomon 1978), so kappa -> -1/2 - 2 ln 2;
        # the gap is 9.8e-3 at beta = 0.1
        flat = -0.5 - 2.0 * math.log(2.0)
        gap = kappa(UniformCylinder(1.0, 0.01)).value - flat
        assert 0.0 < gap < 2.5e-4
        # the beta^2 term of the module docstring; the remainder over beta^3
        # measured 0.1338, 0.1317 and 0.1285 at beta = 0.03, 0.1 and 0.3
        for beta in (0.03, 0.1, 0.3):
            res = kappa(UniformCylinder(1.0, beta))
            order_2 = beta**2 / 3.0 * (math.log(1.0 / beta) + 7.0 / 12.0)
            assert abs(res.value - flat - order_2) <= 0.14 * beta**3 + res.error_estimate, beta

    @pytest.mark.parametrize("beta", [1e3, 1e5, 1e20, 1e100, 1e153, 1e200, 1e300])
    def test_thin_rod_limit(self, beta):
        # beta -> inf: kappa = -3 + 256 / (45 beta) + O(ln beta / beta^2),
        # from the mean pair distance 128 R / (45 pi) in a disk (Solomon 1978).
        # From beta = 1e20 on, F is -3/2 to rounding everywhere, and with
        # Gauss-Kronrod weights that sum to 2 the three nested levels give -3
        # to rounding.  Past beta = 1.3e154 beta^2 overflows, so the bound
        # divides twice
        res = kappa(UniformCylinder(1.0, beta))
        gap = res.value - (-3.0 + 256.0 / (45.0 * beta))
        if beta >= 1e20:
            assert abs(gap) <= 1e-15
        else:
            assert abs(gap) <= 3.0 * math.log(beta) / beta / beta + res.error_estimate

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 4.0, 20.0, 1000.0])
    def test_matches_the_z_first_oracle(self, beta, kappa_z_first):
        # the oracle averages over the axial separation first, with scipy;
        # measured |difference| 3.5e-9 to 1.6e-8 against estimates of
        # 4.9e-8 to 3.3e-7
        res = kappa(UniformCylinder(1.0, beta))
        assert abs(res.value - kappa_z_first(beta)) <= res.error_estimate

    def test_error_includes_the_azimuthal_integrals(self, monkeypatch):
        # the reported error is (4/pi) times the outer estimate plus the mean
        # of the weighted azimuthal errors; at beta = 0.1 the outer part is
        # 1.2362e-7 and the azimuthal term adds 2.83e-9 to it
        from edecoh import quadrature

        outer = []
        integrate_nd = quadrature.integrate_nd

        def recording(*args):
            outer.append(integrate_nd(*args))
            return outer[-1]

        monkeypatch.setattr(quadrature, "integrate_nd", recording)
        res = kappa(UniformCylinder(1.0, 0.1))
        (top,) = outer
        outer_part = 4.0 / math.pi * top.error_estimate
        assert outer_part == pytest.approx(1.2362390689695312e-07, rel=1e-6)
        assert res.error_estimate - outer_part == pytest.approx(2.83e-9, rel=1e-2)

    def test_seed_determinism(self):
        a = kappa_bruteforce_oracle(UniformSphere(1.0), samples=50_000, seed=9)
        b = kappa_bruteforce_oracle(UniformSphere(1.0), samples=50_000, seed=9)
        c = kappa_bruteforce_oracle(UniformSphere(1.0), samples=50_000, seed=10)
        assert a == b
        assert a.value != c.value

    def test_bruteforce_sample_floor(self):
        with pytest.raises(ValueError):
            kappa_bruteforce_oracle(UniformSphere(1.0), samples=9_999)

    def test_bruteforce_sphere_hits_exact_value(self):
        res = kappa_bruteforce_oracle(UniformSphere(1.0), samples=200_000, seed=2)
        assert abs(res.value + 1.5) < 4.0 * res.error_estimate
        assert isinstance(res, IntegrationResult)
        assert res.evaluations == 200_000 and res.converged

    def test_cylinder_result_is_its_quadrature(self):
        # the evaluations and converged flag of the cylinder quadrature reach
        # the caller; ell is characteristic_length's, not the result's
        res = kappa(UniformCylinder(2.0, 3.0))
        assert isinstance(res, IntegrationResult)
        assert res.evaluations > 0 and res.converged
        assert 0.0 < res.error_estimate <= 5e-7 * abs(res.value)

    def test_cylinder_error_estimate_is_a_python_float(self):
        # as the sphere, the sphere quadrature and the Monte-Carlo routes give
        assert type(kappa(UniformCylinder(1.0, 2.0)).error_estimate) is float

    def test_cylinder_evaluation_budget_is_named(self, monkeypatch):
        from edecoh import quadrature
        from edecoh.quadrature import NonConvergenceError

        monkeypatch.setattr(quadrature, "_MAX_EVALS", 100_000)
        with pytest.raises(NonConvergenceError, match="over the budget of 100000"):
            kappa(UniformCylinder(1.0, 2.0))

    def test_numeric_takes_a_sphere_only(self):
        with pytest.raises(TypeError, match="UniformSphere"):
            kappa_numeric(UniformCylinder(1.0, 3.0))
