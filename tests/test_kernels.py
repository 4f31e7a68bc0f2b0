"""Worldline kernel tests.

Every closed form is held against an independently written quadrature of
its defining integral: the coincident kernel against its principal-value
integral, the cross static kernel against the elementary double integral
over the two excised segments, and the radiation kernels against nested
principal-value quadrature in their small-speed regime.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edecoh.quadrature import (
    PoleOnBoundaryError,
    QuadratureConfig,
    integrate_1d,
    integrate_nd,
)
from edecoh.kernels import (
    K_EQUAL_ARGS_LIMIT,
    DegenerateInputError,
    KernelInput,
    RegimeWarning,
    SegmentPairInput,
    kernel_K_closed,
    kernel_K_numeric,
    segment_I_aa,
    segment_I_ab,
    segment_I_bb,
    segment_J_ab_closed,
    segment_J_straight,
)


def _quiet_pair(**kw) -> SegmentPairInput:
    # some tests deliberately sit outside the asymptotic regime
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        return SegmentPairInput(**kw)


class TestInputs:
    def test_kernel_input_validation(self):
        with pytest.raises(ValueError):
            KernelInput(0.0, 1.0)
        with pytest.raises(ValueError):
            KernelInput(1.0, -2.0)
        with pytest.raises(ValueError, match="T must be finite"):
            KernelInput(math.inf, 1.0)
        with pytest.raises(ValueError, match="rho must be finite"):
            KernelInput(1.0, math.nan)

    def test_segment_pair_hard_errors(self):
        good = dict(L1=1.0, L2=100.0, ell=1e-3, v=0.1, theta=0.5)
        for bad in (
            dict(L1=0.0),
            dict(L2=-1.0),
            dict(ell=0.0),
            dict(v=0.0),
            dict(v=1.0),
            dict(theta=0.0),
            dict(theta=math.pi / 2),
        ):
            with pytest.raises(ValueError):
                SegmentPairInput(**{**good, **bad})
        for name in good:
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                SegmentPairInput(**{**good, name: math.inf})

    def test_segment_pair_soft_warnings(self):
        with pytest.warns(RegimeWarning, match="factor 10 of ell"):
            SegmentPairInput(L1=1.0, L2=100.0, ell=0.5, v=0.1, theta=0.5)
        with pytest.warns(RegimeWarning, match="factor 10 of L1"):
            SegmentPairInput(L1=1.0, L2=5.0, ell=1e-3, v=0.1, theta=0.5)
        with pytest.warns(RegimeWarning, match="sin"):
            SegmentPairInput(L1=1.0, L2=100.0, ell=1e-3, v=0.5, theta=0.9)

    def test_derived_times(self):
        inp = _quiet_pair(L1=1.0, L2=100.0, ell=1e-2, v=0.1, theta=0.5)
        assert inp.T1 == 10.0
        assert inp.T2 == 1000.0
        assert inp.tau == pytest.approx(0.1)


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
        with pytest.raises(DegenerateInputError):
            kernel_K_closed(3.0, 3.0)
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
        inp = _quiet_pair(L1=1.0, L2=40.0, ell=0.01, v=0.1, theta=0.5)
        T1, T2, tau = inp.T1, inp.T2, inp.tau
        oracle = integrate_nd(
            lambda t, tp: (t - tp) ** -2.0,
            [(0.0, T1 - 0.5 * tau), (T1 + 0.5 * tau, T1 + T2)],
            QuadratureConfig(rel_tol=1e-10, abs_tol=1e-13),
        )
        assert oracle.converged
        assert math.isclose(segment_J_ab_closed(inp), oracle.value, rel_tol=1e-8)

    def test_J_ab_asymptotic(self):
        inp = _quiet_pair(L1=1.0, L2=100.0, ell=1.0, v=0.1, theta=0.5)
        assert segment_J_ab_closed(inp, asymptotic=True) == 0.0
        inp2 = _quiet_pair(L1=5.0, L2=500.0, ell=0.25, v=0.1, theta=0.5)
        assert math.isclose(segment_J_ab_closed(inp2, asymptotic=True), math.log(20.0), rel_tol=1e-14)

    def test_J_ab_long_second_segment_limit(self):
        inp = _quiet_pair(L1=1.0, L2=1e9, ell=0.01, v=0.1, theta=0.5)
        assert abs(segment_J_ab_closed(inp) - math.log(100.0 + 0.5)) < 1e-6

    def test_J_ab_excision_parameter(self):
        inp = _quiet_pair(L1=1.0, L2=100.0, ell=0.01, v=0.1, theta=0.5)
        assert segment_J_ab_closed(inp, excision=0.5 * inp.tau) == segment_J_ab_closed(inp)
        # widening the excision must shrink the (positive) cross term
        assert segment_J_ab_closed(inp, excision=2.0 * inp.tau) < segment_J_ab_closed(inp)
        with pytest.raises(ValueError):
            segment_J_ab_closed(inp, excision=2.0 * inp.T1)
        with pytest.raises(ValueError):
            segment_J_ab_closed(inp, asymptotic=True, excision=1.0)

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
        inp = _quiet_pair(L1=1.0, L2=100.0, ell=ell, v=v, theta=theta)
        assert segment_I_aa(inp) == pytest.approx(2.0 * (math.log(2.0) - 1.0), abs=1e-12)

    def test_I_ab_closed_log_argument_one(self):
        v, theta = 0.9, math.asin(0.5 / 0.9)
        inp = _quiet_pair(L1=1.0, L2=100.0, ell=1e-3, v=v, theta=theta)
        assert segment_I_ab(inp) == pytest.approx(1.0, abs=1e-12)

    def test_I_ab_closed_decreases_with_speed(self):
        vals = [
            segment_I_ab(_quiet_pair(L1=1.0, L2=100.0, ell=1e-3, v=v, theta=0.5))
            for v in (0.01, 0.05, 0.2, 0.8)
        ]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    @given(
        v=st.floats(1e-3, 0.2),
        theta=st.floats(0.05, 1.5),
        scale=st.floats(1e-2, 1e2),
    )
    @settings(max_examples=40, deadline=None)
    def test_I_aa_closed_negative_in_regime(self, v, theta, scale):
        inp = _quiet_pair(L1=scale, L2=200.0 * scale, ell=1e-3 * scale, v=v, theta=theta)
        assert segment_I_aa(inp) < 0.0

    def test_I_ab_numeric_vs_closed(self):
        inp = _quiet_pair(L1=1.0, L2=100.0, ell=1e-3, v=0.01, theta=math.pi / 4)
        closed = segment_I_ab(inp)
        numeric = segment_I_ab(inp, method="numeric")
        assert abs(closed - numeric) <= 0.02 * abs(numeric)

    def test_I_aa_numeric_vs_closed_small_geometry(self):
        # cheaper scale separation than the headline regime; the closed
        # form carries O(ell/L1) cutoff corrections, so 2% here
        inp = _quiet_pair(L1=1.0, L2=100.0, ell=1e-2, v=0.01, theta=math.pi / 6)
        closed = segment_I_aa(inp)
        numeric = segment_I_aa(inp, method="numeric")
        assert abs(closed - numeric) <= 0.02 * abs(numeric)

    def test_unknown_method(self):
        inp = _quiet_pair(L1=1.0, L2=100.0, ell=1e-3, v=0.01, theta=0.5)
        with pytest.raises(ValueError):
            segment_I_aa(inp, method="magic")
        with pytest.raises(ValueError):
            segment_I_ab(inp, method="magic")

    def test_I_aa_cutoff_validation(self):
        inp = _quiet_pair(L1=1.0, L2=100.0, ell=1e-3, v=0.01, theta=0.5)
        with pytest.raises(ValueError):
            segment_I_aa(inp, method="numeric", cutoff=2.0 * inp.T1)

    def test_I_bb_log_argument_one(self):
        v, theta = 0.25, 1.0
        L1 = 1.0
        L2 = 2.0 * L1 * v * math.sin(theta)
        inp = _quiet_pair(L1=L1, L2=L2, ell=1e-4, v=v, theta=theta)
        assert segment_I_bb(inp) == pytest.approx(-2.0, abs=1e-12)

    def test_I_bb_is_coincident_kernel_asymptote(self):
        # I_bb is K(T2, 2 L1 sin(theta)) in the long-time limit; at time
        # ratio 100 the envelope 3 rho/T applies and the actual gap is tiny
        theta, v = 0.5, 0.1
        L1 = 1.0
        rho = 2.0 * L1 * math.sin(theta)
        L2 = 100.0 * rho * v
        inp = _quiet_pair(L1=L1, L2=L2, ell=1e-4, v=v, theta=theta)
        exact = kernel_K_closed(inp.T2, rho)
        assert abs(segment_I_bb(inp) - exact) <= 3.0 / 100.0
        assert abs(segment_I_bb(inp) - exact) <= 1e-3
