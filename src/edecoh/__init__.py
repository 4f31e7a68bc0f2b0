"""Decoherence exponents and fringe contrast for charged-particle interferometers."""

from __future__ import annotations

__version__ = "0.1.0"

from .quadrature import (
    IntegrationResult,
    NonConvergenceError,
    PoleOnBoundaryError,
    PoleSeparationError,
    QuadratureConfig,
    integrate_1d,
    integrate_nd,
    pv_integrate_1d,
)
from .wavepacket import (
    KappaResult,
    UniformCylinder,
    UniformSphere,
    Wavepacket,
    characteristic_length,
    kappa,
    kappa_bruteforce_oracle,
)
from .kernels import kernel_K_closed, kernel_K_numeric
from .decoherence import (
    DecoherenceResult,
    IntersectingGeometry,
    ParallelGeometry,
    PhysicalConstants,
    ValidityInput,
    interference_pattern,
    max_flight_distance,
    w_total_intersecting,
    w_total_parallel,
)

__all__ = [
    "__version__",
    "IntegrationResult",
    "NonConvergenceError",
    "PoleOnBoundaryError",
    "PoleSeparationError",
    "QuadratureConfig",
    "integrate_1d",
    "integrate_nd",
    "pv_integrate_1d",
    "KappaResult",
    "UniformCylinder",
    "UniformSphere",
    "Wavepacket",
    "characteristic_length",
    "kappa",
    "kappa_bruteforce_oracle",
    "kernel_K_closed",
    "kernel_K_numeric",
    "DecoherenceResult",
    "IntersectingGeometry",
    "ParallelGeometry",
    "PhysicalConstants",
    "ValidityInput",
    "interference_pattern",
    "max_flight_distance",
    "w_total_intersecting",
    "w_total_parallel",
]
