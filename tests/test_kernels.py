"""Worldline kernel tests.

Every closed form is held against an independently written quadrature of
its defining integral: the coincident kernel against its principal-value
integral, the cross static kernel against the elementary double integral
over the two excised segments, and the radiation kernels against nested
principal-value quadrature in their small-speed regime.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edecoh.decoherence import check_regime
from edecoh.quadrature import (
    PoleOnBoundaryError,
    QuadratureConfig,
    integrate_1d,
    integrate_nd,
)
from edecoh.kernels import (
    K_EQUAL_ARGS_LIMIT,
    IntersectingGeometry,
    kernel_K_closed,
    kernel_K_numeric,
    segment_I_aa,
    segment_I_ab,
    segment_I_bb,
    segment_J_ab_closed,
    segment_J_straight,
)
from edecoh.wavepacket import UniformSphere


def _geom(L1=1.0, L2=100.0, theta=0.5, v=0.1) -> IntersectingGeometry:
    return IntersectingGeometry(L1=L1, L2=L2, theta=theta, v=v)


class TestInputs:
    def test_kernel_input_validation(self):
        for K in (kernel_K_closed, kernel_K_numeric):
            with pytest.raises(ValueError, match="T must be positive"):
                K(0.0, 1.0)
            with pytest.raises(ValueError, match="rho must be positive"):
                K(1.0, -2.0)
            with pytest.raises(ValueError, match="T must be finite"):
                K(math.inf, 1.0)
            with pytest.raises(ValueError, match="rho must be finite"):
                K(1.0, math.nan)

    def test_geometry_hard_errors(self):
        good = dict(L1=1.0, L2=100.0, theta=0.5, v=0.1)
        for bad in (
            dict(L1=0.0),
            dict(L2=-1.0),
            dict(v=0.0),
            dict(v=1.0),
            dict(theta=0.0),
            dict(theta=math.pi / 2),
        ):
            with pytest.raises(ValueError):
                IntersectingGeometry(**{**good, **bad})
        for name in good:
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                IntersectingGeometry(**{**good, name: math.inf})
        geom = IntersectingGeometry(**good)
        for ell in (0.0, -1e-3, math.inf, math.nan):
            for kernel in (segment_J_ab_closed, segment_I_aa):
                with pytest.raises(ValueError, match="ell must be positive and finite"):
                    kernel(geom, ell)

    def test_segment_pair_soft_warnings(self):
        # the three soft scale conditions are reported as check_regime notes
        def notes(ell, **kw):
            return check_regime(_geom(**kw), UniformSphere(0.5 * ell))

        assert "L1 is within a factor 10 of the wavepacket size" in notes(
            0.5, L1=1.0, L2=100.0, v=0.1, theta=0.5
        )
        assert "L2 is within a factor 10 of L1" in notes(
            1e-3, L1=1.0, L2=5.0, v=0.1, theta=0.5
        )
        assert any(
            "sin(theta)" in n for n in notes(1e-3, L1=1.0, L2=100.0, v=0.5, theta=0.9)
        )
        assert notes(1e-3, L1=1.0, L2=100.0, v=0.1, theta=0.5) == []

    def test_derived_times(self):
        geom = _geom()
        assert geom.T1 == 10.0
        assert geom.T2 == 1000.0


class TestCoincidentKernel:
    @pytest.mark.parametrize("ratio", [1.5, 2.0, 5.0, 10.0, 100.0])
    def test_closed_matches_pv_quadrature(self, ratio):
        T, rho = ratio, 1.0
        closed = kernel_K_closed(T, rho)
        numeric = kernel_K_numeric(T, rho, QuadratureConfig(rel_tol=1e-10, abs_tol=1e-14))
        assert numeric.converged
        assert math.isclose(closed, numeric.value, rel_tol=1e-8)

    def test_no_pole_branch(self):
        # rho > T: the integrand is regular and the same closed expression
        # continues analytically
        closed = kernel_K_closed(1.0, 2.0)
        expect = 0.5 * math.log(1.0 / 3.0) - math.log(3.0 / 4.0)
        assert math.isclose(closed, expect, rel_tol=1e-14)
        numeric = kernel_K_numeric(1.0, 2.0)
        assert numeric.converged
        assert math.isclose(closed, numeric.value, rel_tol=1e-10)

    def test_degenerate_point(self):
        assert kernel_K_closed(3.0, 3.0) == K_EQUAL_ARGS_LIMIT
        with pytest.raises(PoleOnBoundaryError):
            kernel_K_numeric(3.0, 3.0)

    def test_equal_args_limit_value(self):
        # at T = rho the integrand collapses to -2/(tau + T): direct
        # quadrature pins the limit used by callers
        T = 3.7
        res = integrate_1d(lambda tau: -2.0 / (tau + T), 0.0, T)
        assert res.converged
        assert abs(res.value - K_EQUAL_ARGS_LIMIT) < 1e-10
        assert K_EQUAL_ARGS_LIMIT == -2.0 * math.log(2.0)

    @pytest.mark.parametrize("lam", [0.1, 3.0, 42.0])
    def test_scale_invariance(self, lam):
        base = kernel_K_closed(7.0, 2.0)
        assert math.isclose(base, kernel_K_closed(7.0 * lam, 2.0 * lam), rel_tol=1e-12)

    @pytest.mark.parametrize("ratio", [10.0, 20.0, 50.0, 100.0, 1000.0])
    def test_long_time_asymptote_envelope(self, ratio):
        asym = -2.0 - math.log(ratio * ratio)
        assert abs(kernel_K_closed(ratio, 1.0) - asym) <= 3.0 / ratio

    @given(T=st.floats(0.1, 1e3), rho=st.floats(0.1, 1e3))
    @settings(max_examples=80, deadline=None)
    def test_closed_always_finite(self, T, rho):
        if abs(T - rho) <= 1e-9 * max(T, rho):
            return
        assert math.isfinite(kernel_K_closed(T, rho))


class TestStaticKernels:
    def test_J_ab_exact_matches_double_integral(self):
        geom, ell = _geom(L2=40.0), 0.01
        T1, T2, tau = geom.T1, geom.T2, ell / geom.v
        oracle = integrate_nd(
            lambda t, tp: (t - tp) ** -2.0,
            [(0.0, T1 - 0.5 * tau), (T1 + 0.5 * tau, T1 + T2)],
            QuadratureConfig(rel_tol=1e-10, abs_tol=1e-13),
        )
        assert oracle.converged
        assert math.isclose(segment_J_ab_closed(geom, ell), oracle.value, rel_tol=1e-8)

    def test_J_ab_asymptotic(self):
        assert segment_J_ab_closed(_geom(), 1.0, asymptotic=True) == 0.0
        geom2 = _geom(L1=5.0, L2=500.0)
        assert math.isclose(segment_J_ab_closed(geom2, 0.25, asymptotic=True), math.log(20.0), rel_tol=1e-14)

    def test_J_ab_long_second_segment_limit(self):
        assert abs(segment_J_ab_closed(_geom(L2=1e9), 0.01) - math.log(100.0 + 0.5)) < 1e-6

    def test_J_ab_excision_parameter(self):
        geom, ell = _geom(), 0.01
        tau = ell / geom.v
        assert segment_J_ab_closed(geom, ell, excision=0.5 * tau) == segment_J_ab_closed(geom, ell)
        # widening the excision must shrink the (positive) cross term
        assert segment_J_ab_closed(geom, ell, excision=2.0 * tau) < segment_J_ab_closed(geom, ell)
        with pytest.raises(ValueError):
            segment_J_ab_closed(geom, ell, excision=2.0 * geom.T1)
        with pytest.raises(ValueError):
            segment_J_ab_closed(geom, ell, asymptotic=True, excision=1.0)

    def test_J_straight_values(self):
        # log term vanishes at L = ell v, leaving -2 + kappa
        assert segment_J_straight(0.05, 0.5, 0.1, -1.5) == pytest.approx(-3.5, abs=1e-14)
        gap = segment_J_straight(100.0, 0.1, 0.2, -1.5) - segment_J_straight(
            4.0, 0.1, 0.2, -1.5
        )
        assert math.isclose(gap, -2.0 * math.log(25.0), rel_tol=1e-12)

    def test_J_straight_validation(self):
        with pytest.raises(ValueError):
            segment_J_straight(-1.0, 0.1, 0.1, -1.5)
        with pytest.raises(ValueError):
            segment_J_straight(1.0, 0.1, 1.5, -1.5)


class TestRadiationKernels:
    def test_I_aa_closed_log_argument_one(self):
        # ell v^2 sin^2(theta) = L1 kills the log
        v, theta = 0.9, 1.0
        ell = 1.0 / (v * math.sin(theta)) ** 2
        assert segment_I_aa(_geom(theta=theta, v=v), ell) == pytest.approx(
            2.0 * (math.log(2.0) - 1.0), abs=1e-12
        )

    def test_I_ab_closed_log_argument_one(self):
        v, theta = 0.9, math.asin(0.5 / 0.9)
        assert segment_I_ab(_geom(theta=theta, v=v)) == pytest.approx(1.0, abs=1e-12)

    def test_I_ab_closed_decreases_with_speed(self):
        vals = [segment_I_ab(_geom(v=v)) for v in (0.01, 0.05, 0.2, 0.8)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    @given(
        v=st.floats(1e-3, 0.2),
        theta=st.floats(0.05, 1.5),
        scale=st.floats(1e-2, 1e2),
    )
    @settings(max_examples=40, deadline=None)
    def test_I_aa_closed_negative_in_regime(self, v, theta, scale):
        geom = _geom(L1=scale, L2=200.0 * scale, theta=theta, v=v)
        assert segment_I_aa(geom, 1e-3 * scale) < 0.0

    def test_I_ab_numeric_vs_closed(self):
        geom = _geom(theta=math.pi / 4, v=0.01)
        closed = segment_I_ab(geom)
        numeric = segment_I_ab(geom, method="numeric")
        assert abs(closed - numeric) <= 0.02 * abs(numeric)

    def test_I_aa_numeric_vs_closed_small_geometry(self):
        # cheaper scale separation than the headline regime; the closed
        # form carries O(ell/L1) cutoff corrections, so 2% here
        geom = _geom(theta=math.pi / 6, v=0.01)
        closed = segment_I_aa(geom, 1e-2)
        numeric = segment_I_aa(geom, 1e-2, method="numeric")
        assert abs(closed - numeric) <= 0.02 * abs(numeric)

    def test_unknown_method(self):
        geom = _geom(v=0.01)
        with pytest.raises(ValueError):
            segment_I_aa(geom, 1e-3, method="magic")
        with pytest.raises(ValueError):
            segment_I_ab(geom, method="magic")

    def test_I_aa_cutoff_validation(self):
        geom = _geom(v=0.01)
        with pytest.raises(ValueError):
            segment_I_aa(geom, 1e-3, method="numeric", cutoff=2.0 * geom.T1)

    def test_I_bb_log_argument_one(self):
        # 2 v sin(theta) > 1 keeps L2 above L1
        v, theta = 0.9, 1.2
        L1 = 1.0
        L2 = 2.0 * L1 * v * math.sin(theta)
        assert segment_I_bb(_geom(L1=L1, L2=L2, theta=theta, v=v)) == pytest.approx(-2.0, abs=1e-12)

    def test_I_bb_is_coincident_kernel_asymptote(self):
        # I_bb is K(T2, 2 L1 sin(theta)) in the long-time limit; at time
        # ratio 100 the envelope 3 rho/T applies and the actual gap is tiny
        theta, v = 0.5, 0.1
        L1 = 1.0
        rho = 2.0 * L1 * math.sin(theta)
        L2 = 100.0 * rho * v
        geom = _geom(L1=L1, L2=L2, theta=theta, v=v)
        exact = kernel_K_closed(geom.T2, rho)
        assert abs(segment_I_bb(geom) - exact) <= 3.0 / 100.0
        assert abs(segment_I_bb(geom) - exact) <= 1e-3
