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

from edecoh.quadrature import QuadratureConfig, integrate_1d
from edecoh.wavepacket import (
    DomainError,
    KappaResult,
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
        with pytest.raises(TypeError):
            characteristic_length("ball")  # type: ignore[arg-type]

    def test_beta(self):
        assert UniformCylinder(2.0, 5.0).beta == 2.5


def _axial_average_oracle(b: float, beta: float, r_over_ell: float) -> float:
    """Direct quadrature of the defining axial average.

    F(b) is the mean of ln(d/ell) over the two scaled axial coordinates
    u, u' uniform in [0, 1], with d^2 = (R b)^2 + L^2 (u - u')^2 and R = 1,
    L = beta, ell = R / r_over_ell.  The mean depends on u, u' only through
    w = |u - u'|, whose density on [0, 1] is 2 (1 - w), so it is one 1-D
    integral.
    """
    ell = 1.0 / r_over_ell

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
        val = cylinder_F(0.0, 1.0, 0.5)
        assert math.isclose(val, math.log(0.5) - 1.5, rel_tol=1e-12)

    def test_b_zero_limit_general(self):
        # the finite limit is the axial log-average ln(L/ell) - 3/2
        for beta, r_over_ell in [(3.0, 1.0 / 3.0), (0.5, 0.5), (8.0, 0.125)]:
            val = cylinder_F(0.0, beta, r_over_ell)
            expect = math.log(r_over_ell) + math.log(beta) - 1.5
            assert math.isclose(val, expect, rel_tol=1e-12)
            oracle = _axial_average_oracle(0.0, beta, r_over_ell)
            assert math.isclose(val, oracle, rel_tol=0, abs_tol=1e-8)

    @pytest.mark.parametrize("beta", [0.3, 1.0, 2.0, 7.0])
    @pytest.mark.parametrize("rho,rho_p,phi", [(0.9, 0.2, 1.1), (0.5, 0.5, 2.8), (1.0, 1.0, 0.3)])
    def test_matches_axial_quadrature(self, beta, rho, rho_p, phi):
        r_over_ell = 1.0 / max(2.0, beta)
        b2 = _b2(rho, rho_p, phi)
        oracle = _axial_average_oracle(math.sqrt(b2), beta, r_over_ell)
        assert math.isclose(cylinder_F(b2, beta, r_over_ell), oracle, rel_tol=0, abs_tol=1e-9)

    def test_small_aspect_ratio_is_transverse_log(self):
        # flat disk: the axial extent drops out and F -> ln(R/ell) + ln b
        b2 = _b2(0.8, 0.3, 2.0)
        val = cylinder_F(b2, 1e-3, 0.5)
        assert abs(val - (math.log(0.5) + 0.5 * math.log(b2))) < 1e-4

    def test_large_aspect_ratio_is_axial_average(self):
        # thin rod with ell = L: F -> ln(L/ell) - 3/2 = -3/2; the leading
        # correction is pi*b/beta, so beta must dwarf the rim separation 2
        beta = 2000.0
        for args in [(0.1, 0.9, 0.4), (1.0, 1.0, math.pi)]:
            assert abs(cylinder_F(_b2(*args), beta, 1.0 / beta) + 1.5) < 0.01

    def test_vectorized_over_phi(self):
        b2 = _b2(0.6, 0.4, np.linspace(0.0, 2.0 * math.pi, 7))
        out = cylinder_F(b2, 2.0, 0.5)
        assert out.shape == b2.shape
        for b2_i, o in zip(b2, out):
            assert math.isclose(cylinder_F(float(b2_i), 2.0, 0.5), o, rel_tol=1e-14)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            cylinder_F(-2e-12, 1.0, 0.5)
        with pytest.raises(DomainError):
            cylinder_F(np.array([0.5, -0.2]), 1.0, 0.5)
        with pytest.raises(ValueError):
            cylinder_F(0.5, -1.0, 0.5)
        with pytest.raises(ValueError):
            cylinder_F(0.5, 1.0, 0.0)

    def test_roundoff_negative_b2_clamped(self):
        # rho = rho', phi = 0 can give b^2 ~ -1e-17; must hit the b = 0 branch
        val = cylinder_F(-1e-17, 1.0, 0.5)
        assert math.isclose(val, math.log(0.5) - 1.5, rel_tol=1e-9)


class TestKappa:
    def test_sphere_exact(self):
        res = kappa(UniformSphere(1.0))
        assert res.kappa == -1.5
        assert res.error_estimate == 0.0
        assert res.ell == 2.0
        assert kappa(UniformSphere(7.0)).kappa == res.kappa

    def test_sphere_numeric_path(self):
        res = kappa_numeric(UniformSphere(2.0))
        assert abs(res.kappa + 1.5) < 1e-6
        assert res.error_estimate < 1e-6

    @pytest.mark.parametrize("radius", [0.5, 2.0])
    def test_sphere_numeric_path_to_rounding(self, radius):
        # one 1-D integral over the pair-separation density
        res = kappa_numeric(UniformSphere(radius))
        assert abs(res.kappa + 1.5) <= 1e-13
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
        assert abs(quad.kappa - mc.kappa) < 4.0 * combined

    @pytest.mark.parametrize("scale", [0.1, 10.0])
    def test_scale_invariance(self, scale):
        base = kappa(UniformCylinder(1.0, 3.0))
        scaled = kappa(UniformCylinder(scale, 3.0 * scale))
        assert math.isclose(base.kappa, scaled.kappa, rel_tol=0, abs_tol=1e-6)

    def test_cusp_at_aspect_ratio_two(self):
        # kappa is continuous across beta = 2 but the slope jumps by about
        # -1 because ell switches from 2R to L there
        cfg = QuadratureConfig(rel_tol=1e-8, abs_tol=1e-10, max_subdivisions=4096)
        k = {d: kappa(UniformCylinder(1.0, 2.0 + d), cfg).kappa for d in (-0.1, -0.05, 0.0, 0.05, 0.1)}
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
            return P * cylinder_F(b * b, beta, 0.5)

        ref = integrate_1d(pair_density_weighted_F, 0.0, 2.0, QuadratureConfig(rel_tol=1e-13))
        assert ref.converged
        assert abs(res.kappa - 2.0 * ref.value) <= res.error_estimate

    def test_seed_determinism(self):
        a = kappa_bruteforce_oracle(UniformSphere(1.0), samples=50_000, seed=9)
        b = kappa_bruteforce_oracle(UniformSphere(1.0), samples=50_000, seed=9)
        c = kappa_bruteforce_oracle(UniformSphere(1.0), samples=50_000, seed=10)
        assert a == b
        assert a.kappa != c.kappa

    def test_bruteforce_sample_floor(self):
        with pytest.raises(ValueError):
            kappa_bruteforce_oracle(UniformSphere(1.0), samples=9_999)

    def test_bruteforce_sphere_hits_exact_value(self):
        res = kappa_bruteforce_oracle(UniformSphere(1.0), samples=200_000, seed=2)
        assert abs(res.kappa + 1.5) < 4.0 * res.error_estimate
        assert isinstance(res, KappaResult)

    def test_result_carries_ell(self):
        res = kappa(UniformCylinder(2.0, 3.0))
        assert res.ell == 4.0
