"""Decoherence exponents and fringe contrast for charged-particle interferometers.

Each public name is imported from its module on first access, so that
`import edecoh` and the closed forms load no numpy; the quadrature layer
loads when something is integrated or sampled.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

# public name -> defining module
_EXPORTS = {
    "IntegrationResult": "base",
    "NonConvergenceError": "base",
    "PoleOnBoundaryError": "base",
    "PoleSeparationError": "base",
    "QuadratureConfig": "base",
    "integrate_1d": "quadrature",
    "integrate_nd": "quadrature",
    "pv_integrate_1d": "quadrature",
    "UniformCylinder": "wavepacket",
    "UniformSphere": "wavepacket",
    "Wavepacket": "wavepacket",
    "characteristic_length": "wavepacket",
    "kappa": "wavepacket",
    "kappa_bruteforce_oracle": "wavepacket",
    "IntersectingGeometry": "kernels",
    "kernel_K_closed": "kernels",
    "kernel_K_numeric": "kernels",
    "ALPHA_FS": "decoherence",
    "DecoherenceResult": "decoherence",
    "ParallelGeometry": "decoherence",
    "ValidityInput": "decoherence",
    "interference_pattern": "decoherence",
    "max_flight_distance": "decoherence",
    "w_total_intersecting": "decoherence",
    "w_total_parallel": "decoherence",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value
