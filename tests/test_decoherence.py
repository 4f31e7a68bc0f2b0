"""Assembly tests for the decoherence exponents.

The fixed decimal targets here were computed by hand from the closed
formulas (alpha = 7.2973525693e-3) and double-checked against their
printed approximations; the structural assertions (plateaus, telescoping
cancellations) are the physical content and get machine-level tolerances.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edecoh.decoherence import (
    ALPHA_FS,
    RELATIVISTIC_NOTE,
    DecoherenceResult,
    IntersectingGeometry,
    ParallelGeometry,
    ValidityInput,
    check_regime,
    interference_pattern,
    max_flight_distance,
    w_photon_parallel,
    w_total_intersecting,
    w_total_parallel,
    w_vacuum_parallel,
)
from edecoh.kernels import K_EQUAL_ARGS_LIMIT, segment_J_ab_closed, segment_J_straight
from edecoh.wavepacket import KappaResult, UniformSphere

ALPHA = ALPHA_FS
SPHERE_ELL_1 = UniformSphere(0.5)


def _vacuum_exact_J_ab(geom: IntersectingGeometry) -> float:
    """-(alpha/2 pi)[2 J_aa + J_bb + 4 J_ab] with the exact cross term, ell = 1."""
    J = (
        2.0 * segment_J_straight(geom.L1, 1.0, geom.v, -1.5)
        + segment_J_straight(geom.L2, 1.0, geom.v, -1.5)
        + 4.0 * segment_J_ab_closed(geom, 1.0)
    )
    return -0.5 * ALPHA / math.pi * J


class TestInputs:
    def test_constants(self):
        assert ALPHA_FS == 7.2973525693e-3

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            ParallelGeometry(r0=0.0, T=1.0, v=0.1)
        with pytest.raises(ValueError):
            ParallelGeometry(r0=1.0, T=-1.0, v=0.1)
        with pytest.raises(ValueError):
            ParallelGeometry(r0=1.0, T=1.0, v=1.0)
        with pytest.raises(ValueError):
            IntersectingGeometry(L1=10.0, L2=5.0, theta=0.5, v=0.1)
        with pytest.raises(ValueError):
            IntersectingGeometry(L1=1.0, L2=10.0, theta=math.pi / 2, v=0.1)
        with pytest.raises(ValueError, match="T must be finite"):
            ParallelGeometry(r0=1.0, T=math.nan, v=0.1)
        with pytest.raises(ValueError, match="L1 must be finite"):
            IntersectingGeometry(L1=math.inf, L2=10.0, theta=0.5, v=0.1)

    def test_validity_input_validation(self):
        with pytest.raises(ValueError):
            ValidityInput(energy=-1.0, dx0=1e-6)
        with pytest.raises(ValueError):
            ValidityInput(energy=1e4, dx0=0.0)
        with pytest.raises(ValueError, match="energy must be finite"):
            ValidityInput(energy=math.inf, dx0=1e-6)
        with pytest.raises(ValueError, match="dx0 must be finite"):
            ValidityInput(energy=1e4, dx0=math.nan)


class TestParallel:
    def test_vacuum_zero_bracket(self):
        geom = ParallelGeometry(r0=1.0, T=1.0, v=0.1)
        kap = KappaResult(kappa=2.0, error_estimate=0.0, ell=1.0)
        assert w_vacuum_parallel(geom, kap) == 0.0
        # T = ell here, which the regime notes report
        assert "flight time T is within a factor 10 of the wavepacket size" in check_regime(
            geom, SPHERE_ELL_1
        )

    def test_vacuum_sphere_value(self):
        geom = ParallelGeometry(r0=10.0, T=100.0, v=0.1)
        kap = KappaResult(kappa=-1.5, error_estimate=0.0, ell=1.0)
        val = w_vacuum_parallel(geom, kap)
        expect = ALPHA / math.pi * (3.5 + 2.0 * math.log(100.0))
        assert math.isclose(val, expect, rel_tol=1e-14)
        assert abs(val - 0.029527) < 1e-5

    def test_vacuum_positive_in_typical_regime(self):
        geom = ParallelGeometry(r0=10.0, T=1000.0, v=0.1)
        kap = KappaResult(kappa=-1.5, error_estimate=0.0, ell=1.0)
        assert w_vacuum_parallel(geom, kap) > 0.0

    @pytest.mark.parametrize("ratio", [50.0, 200.0])
    def test_photon_modes_agree_asymptotically(self, ratio):
        # the exact kernel against its long-time form -2 (alpha/pi) [1 + ln(T/r0)]
        geom = ParallelGeometry(r0=1.0, T=ratio, v=0.1)
        exact = w_photon_parallel(geom)
        asym = -2.0 * ALPHA / math.pi * (1.0 + math.log(ratio))
        assert abs(exact - asym) <= 0.01 * abs(exact)

    def test_photon_negative_beyond_crossover(self):
        for T in (0.5, 1.0, 40.0):
            geom = ParallelGeometry(r0=1.0, T=T, v=0.1)
            assert w_photon_parallel(geom) < 0.0
            assert math.exp(w_photon_parallel(geom)) <= 1.0

    def test_photon_degenerate_point(self):
        val = w_photon_parallel(ParallelGeometry(r0=2.0, T=2.0, v=0.1))
        assert val == ALPHA / math.pi * K_EQUAL_ARGS_LIMIT

    def test_vacuum_photon_cancel_at_matched_scales(self):
        # r0 = ell and kappa = 0 make W vanish in the asymptotic regime; the
        # exact kernel leaves the remainder (alpha/pi) (r0/T)^2 / 3 + O((r0/T)^4)
        geom = ParallelGeometry(r0=3.0, T=3000.0, v=0.1)
        kap = KappaResult(kappa=0.0, error_estimate=0.0, ell=3.0)
        total = w_vacuum_parallel(geom, kap) + w_photon_parallel(geom)
        assert total == pytest.approx(ALPHA / math.pi * 1e-6 / 3.0, rel=1e-5)

    def test_total_plateau_value(self):
        geom = ParallelGeometry(r0=100.0, T=1e6, v=0.01)
        res = w_total_parallel(geom, SPHERE_ELL_1)
        plateau = ALPHA / math.pi * (2.0 * math.log(100.0) + 1.5)
        assert abs(res.w_total - plateau) <= 0.005 * plateau
        assert abs(res.w_total - 0.024880) < 1e-5
        assert res.notes == []
        assert res.breakdown["kappa"] == -1.5

    def test_total_flight_time_independence(self):
        a = w_total_parallel(ParallelGeometry(r0=100.0, T=1e6, v=0.01), SPHERE_ELL_1)
        b = w_total_parallel(ParallelGeometry(r0=100.0, T=1e7, v=0.01), SPHERE_ELL_1)
        assert abs(a.w_total - b.w_total) < 1e-3 * abs(a.w_total)

    def test_result_additivity_and_contrast(self):
        res = w_total_parallel(ParallelGeometry(r0=100.0, T=1e6, v=0.01), SPHERE_ELL_1)
        assert res.w_total == res.w_vacuum + res.w_photon
        assert res.contrast == math.exp(res.w_total)
        assert res.contrast > 0.0

    def test_vacuum_matches_straight_segment_kernel(self):
        # the parallel vacuum term is the same-segment static kernel taken
        # twice with L = v T
        geom = ParallelGeometry(r0=10.0, T=500.0, v=0.05)
        kap = KappaResult(kappa=-1.5, error_estimate=0.0, ell=2.0)
        via_kernel = (
            -0.5 * ALPHA / math.pi * 2.0 * segment_J_straight(geom.v * geom.T, kap.ell, geom.v, kap.kappa)
        )
        assert math.isclose(w_vacuum_parallel(geom, kap), via_kernel, rel_tol=1e-13)


THETA_NEAR_RIGHT = 0.5 * math.pi * (1.0 - 1e-12)


class TestIntersecting:
    def test_closed_total_matches_telescoped_form(self):
        geom = IntersectingGeometry(L1=100.0, L2=10000.0, theta=0.7, v=0.05)
        res = w_total_intersecting(geom, SPHERE_ELL_1)
        expect = (
            0.5
            * ALPHA
            / math.pi
            * (2.0 * math.log(2.0 * math.sin(0.7) / 0.05**2) + 4.0 + 4.5)
        )
        assert math.isclose(res.w_total, expect, rel_tol=1e-12)

    def test_magnitude_and_contrast_band(self):
        geom = IntersectingGeometry(L1=100.0, L2=10000.0, theta=THETA_NEAR_RIGHT, v=0.1)
        res = w_total_intersecting(geom, SPHERE_ELL_1)
        expect = 0.5 * ALPHA / math.pi * (2.0 * math.log(200.0) + 8.5)
        assert math.isclose(res.w_total, expect, rel_tol=1e-12)
        assert abs(res.w_total - 0.02218) < 1e-5
        assert 0.01 <= abs(res.contrast - 1.0) <= 0.03

    def test_wavepacket_size_cancels_exactly(self):
        geom = IntersectingGeometry(L1=100.0, L2=10000.0, theta=0.9, v=0.1)
        small = w_total_intersecting(geom, UniformSphere(0.5))
        large = w_total_intersecting(geom, UniformSphere(5.0))
        assert math.isclose(small.w_total, large.w_total, rel_tol=1e-12)

    def test_long_arm_cancels_exactly(self):
        a = w_total_intersecting(
            IntersectingGeometry(L1=100.0, L2=10000.0, theta=0.9, v=0.1), SPHERE_ELL_1
        )
        b = w_total_intersecting(
            IntersectingGeometry(L1=100.0, L2=100000.0, theta=0.9, v=0.1), SPHERE_ELL_1
        )
        assert math.isclose(a.w_total, b.w_total, rel_tol=1e-12)

    def test_vacuum_asymptotic_branch_closed_form(self):
        geom = IntersectingGeometry(L1=100.0, L2=10000.0, theta=0.5, v=0.1)
        wv = w_total_intersecting(geom, SPHERE_ELL_1).w_vacuum
        expect = 0.5 * ALPHA / math.pi * (3.0 * 3.5 + 2.0 * math.log(1e4 / (1.0 * 0.1**3)))
        assert math.isclose(wv, expect, rel_tol=1e-12)

    def test_vacuum_exact_branch_near_asymptotic(self):
        geom = IntersectingGeometry(L1=100.0, L2=10000.0, theta=0.5, v=0.1)
        exact = _vacuum_exact_J_ab(geom)
        asym = w_total_intersecting(geom, SPHERE_ELL_1).w_vacuum
        assert abs(exact - asym) < 0.01 * abs(asym)

    def test_vacuum_short_arm_cancellation(self):
        # the exact cross term retains only O(ell/L1, L1/L2) sensitivity
        a = _vacuum_exact_J_ab(IntersectingGeometry(L1=300.0, L2=1e6, theta=0.5, v=0.1))
        b = _vacuum_exact_J_ab(IntersectingGeometry(L1=3000.0, L2=1e6, theta=0.5, v=0.1))
        assert abs(a - b) < 1e-3 * abs(a)

    def test_photon_telescoped_form(self):
        geom = IntersectingGeometry(L1=100.0, L2=10000.0, theta=THETA_NEAR_RIGHT, v=0.1)
        wg = w_total_intersecting(geom, SPHERE_ELL_1).w_photon
        expect = -ALPHA / math.pi * (1.0 - math.log(2.0) + math.log(1e5))
        assert math.isclose(wg, expect, rel_tol=1e-12)
        assert wg < 0.0
        assert math.exp(wg) <= 1.0

    @given(
        theta=st.floats(0.1, 1.5),
        v=st.floats(0.005, 0.15),
        l2_over_l1=st.floats(20.0, 1e4),
    )
    @settings(max_examples=40, deadline=None)
    def test_photon_always_decoheres_in_regime(self, theta, v, l2_over_l1):
        geom = IntersectingGeometry(L1=100.0, L2=100.0 * l2_over_l1, theta=theta, v=v)
        assert w_total_intersecting(geom, SPHERE_ELL_1).w_photon < 0.0

    def test_assembled_branch_agrees_with_closed(self):
        geom = IntersectingGeometry(L1=100.0, L2=10000.0, theta=0.5, v=0.01)
        closed = w_total_intersecting(geom, SPHERE_ELL_1)
        assembled = w_total_intersecting(geom, SPHERE_ELL_1, branch="assembled")
        assert abs(assembled.w_total - closed.w_total) < 0.01 * abs(closed.w_total)
        for key in ("J_aa", "J_bb", "J_ab", "I_aa", "I_bb", "I_ab"):
            assert key in assembled.breakdown
        with pytest.raises(ValueError):
            w_total_intersecting(geom, SPHERE_ELL_1, branch="exact")

    def test_additivity(self):
        geom = IntersectingGeometry(L1=100.0, L2=10000.0, theta=0.5, v=0.1)
        res = w_total_intersecting(geom, SPHERE_ELL_1)
        assert res.w_total == res.w_vacuum + res.w_photon


class TestInterference:
    @staticmethod
    def _result(w: float) -> DecoherenceResult:
        return DecoherenceResult(0.0, w, w, math.exp(w))

    def test_reduces_to_coherent_pattern_at_zero_exponent(self):
        res = self._result(0.0)
        p1, p2 = 2.0, 0.5
        assert interference_pattern(p1, p2, 0.0, res) == pytest.approx(
            (math.sqrt(p1) + math.sqrt(p2)) ** 2, rel=1e-14
        )
        assert interference_pattern(p1, p2, math.pi, res) == pytest.approx(
            (math.sqrt(p1) - math.sqrt(p2)) ** 2, abs=1e-14
        )

    def test_single_path_has_no_oscillation(self):
        res = self._result(-0.2)
        vals = {interference_pattern(1.3, 0.0, ph, res) for ph in np.linspace(0, 7, 29)}
        assert vals == {1.3}

    def test_nonnegative_under_decoherence(self):
        res = self._result(-0.05)
        for phase in np.linspace(0.0, 2.0 * math.pi, 1000):
            assert interference_pattern(1.0, 1.0, float(phase), res) >= 0.0

    def test_fringe_amplitude_shrinks(self):
        coherent = interference_pattern(1.0, 1.0, 0.0, self._result(0.0))
        damped = interference_pattern(1.0, 1.0, 0.0, self._result(-0.5))
        assert damped < coherent

    def test_negative_intensity_rejected(self):
        with pytest.raises(ValueError):
            interference_pattern(-1.0, 1.0, 0.0, self._result(0.0))


class TestValidity:
    def test_benchmark_flight_distance(self):
        d = max_flight_distance(ValidityInput(energy=1e4, dx0=1e-6))
        assert 0.9 <= d <= 1.1

    def test_energy_scaling(self):
        base = max_flight_distance(ValidityInput(energy=1e4, dx0=1e-6))
        quarter = max_flight_distance(ValidityInput(energy=2.5e3, dx0=1e-6))
        assert math.isclose(quarter, 0.5 * base, rel_tol=1e-12)
        assert 0.45 <= quarter <= 0.55

    def test_size_scaling(self):
        base = max_flight_distance(ValidityInput(energy=1e4, dx0=1e-6))
        small = max_flight_distance(ValidityInput(energy=1e4, dx0=1e-8))
        assert math.isclose(small, 1e-4 * base, rel_tol=1e-12)

    def test_relativistic_note(self):
        assert ValidityInput(energy=1e5, dx0=1e-6).relativistic
        assert not ValidityInput(energy=1e4, dx0=1e-6).relativistic
        # a generous dx0 keeps the spreading-bound note out
        hot = ValidityInput(energy=1e5, dx0=1e-3)
        geom = ParallelGeometry(r0=100.0, T=1e4 * 100.0, v=0.01)
        assert check_regime(geom, SPHERE_ELL_1, validity=hot) == [RELATIVISTIC_NOTE]

    def test_check_regime_clean(self):
        geom = IntersectingGeometry(L1=100.0, L2=10000.0, theta=0.5, v=0.01)
        assert check_regime(geom, SPHERE_ELL_1) == []
        par = ParallelGeometry(r0=100.0, T=1e4 * 100.0, v=0.01)
        assert check_regime(par, SPHERE_ELL_1) == []

    def test_check_regime_flags_scale_violations(self):
        geom = IntersectingGeometry(L1=2.0, L2=10000.0, theta=0.5, v=0.01)
        notes = check_regime(geom, SPHERE_ELL_1)
        assert any("L1" in n for n in notes)
        fast = IntersectingGeometry(L1=100.0, L2=10000.0, theta=0.5, v=0.9)
        assert any("nonrelativistic" in n for n in check_regime(fast, SPHERE_ELL_1))
        # one condition at a time, each with its own note
        short_arm = IntersectingGeometry(L1=100.0, L2=500.0, theta=0.5, v=0.01)
        assert check_regime(short_arm, SPHERE_ELL_1) == ["L2 is within a factor 10 of L1"]
        wide = IntersectingGeometry(L1=100.0, L2=10000.0, theta=0.9, v=0.29)
        assert check_regime(wide, SPHERE_ELL_1) == [
            "v sin(theta) exceeds 0.2; small-speed kernels lose accuracy"
        ]

    def test_check_regime_spreading_bound(self):
        # a kilometer-scale flight at micrometer units violates the bound
        geom = ParallelGeometry(r0=100.0, T=1e4 * 100.0, v=0.01)
        validity = ValidityInput(energy=1e4, dx0=1e-8)
        notes = check_regime(geom, SPHERE_ELL_1, validity=validity)
        assert any("spreading bound" in n for n in notes)
        roomy = ValidityInput(energy=1e4, dx0=1e-5)
        assert check_regime(geom, SPHERE_ELL_1, validity=roomy) == []
