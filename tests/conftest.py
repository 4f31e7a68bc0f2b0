"""Oracles shared by several test modules."""

from __future__ import annotations

import math

import numpy as np
import pytest

from edecoh.kernels import _I_NUMERIC_CFG, IntersectingGeometry, _double_pv


def _I_ab_double_pv(geom: IntersectingGeometry) -> float:
    """I_ab as the numeric double integral it is defined by.

    Outer adaptive integral over t in [0, T1] of the inner principal value
    over t' in [T1, T1 + T2] of [(t - t')^2 - c^2]^-1, c = 2 T1 v sin(theta);
    the pole at t' = t + c enters the t' range once t is within c of the
    vertex, so T1 - c is an outer breakpoint.  Runs at the 3e-5 outer
    relative tolerance of the numeric I_aa, whose _double_pv it shares.
    """
    T1, T2 = geom.T1, geom.T2
    c = 2.0 * T1 * geom.v * math.sin(geom.theta)

    def g(t: np.ndarray, tp: np.ndarray) -> np.ndarray:
        return 1.0 / ((t - tp) ** 2 - c * c)

    def poles(t: np.ndarray) -> np.ndarray:
        return (t + c)[:, None]

    bps = (T1 - c,) if 0.0 < T1 - c < T1 else ()
    return _double_pv(g, poles, (T1, T1 + T2), (0.0, T1), bps, _I_NUMERIC_CFG, "I_ab oracle")


@pytest.fixture
def I_ab_double_pv():
    return _I_ab_double_pv
