"""Types and checks that every layer shares, with no numpy behind them.

The quadrature settings and results, the errors a quadrature route can
raise, the input checks and the float-range-safe logarithm of the closed
forms live here, so that the closed forms and the command line can use
them without loading the numeric modules.  `edecoh.quadrature` re-exports
the quadrature names as the same objects.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable, Mapping

__all__ = [
    "QuadratureConfig",
    "IntegrationResult",
    "NonConvergenceError",
    "PoleOnBoundaryError",
    "PoleSeparationError",
    "require_finite",
    "require_converged",
    "split_product",
    "log_ratio",
]


_EPS = sys.float_info.epsilon
_LN2 = math.log(2.0)


def split_product(num: Iterable[float], den: Iterable[float] = ()) -> tuple[float, int]:
    """prod(num) / prod(den) as (m, e) with the value m * 2**e.

    The factors must be positive and finite.  Their binary exponents are
    summed apart from their mantissas, so the quotient is formed to
    rounding even where it, or a partial product, lies outside the float
    range.
    """
    m, e = 1.0, 0
    for x in num:
        f, k = math.frexp(x)
        m, e = m * f, e + k
    for x in den:
        f, k = math.frexp(x)
        m, e = m / f, e - k
    return m, e


def log_ratio(num: Iterable[float], den: Iterable[float] = ()) -> float:
    """ln(prod(num) / prod(den)) for positive finite factors, over the whole float range."""
    m, e = split_product(num, den)
    return math.log(m) + e * _LN2


def require_finite(fields: Mapping[str, float]) -> None:
    """Reject non-finite values by name; they would pass every ordering check."""
    for name, value in fields.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances of the generic integrators; each physics routine states its own.

    rel_tol may not go below 4 eps, the floor the pieces of a principal
    value already get.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-14

    def __post_init__(self) -> None:
        require_finite({"rel_tol": self.rel_tol, "abs_tol": self.abs_tol})
        if not (self.rel_tol > 0.0 and self.abs_tol > 0.0):
            raise ValueError("tolerances must be positive")
        if self.rel_tol < 4.0 * _EPS:
            raise ValueError(f"rel_tol must be at least 4 eps = {4.0 * _EPS:.3g}")

    def tolerance(self, value: float) -> float:
        return max(self.abs_tol, self.rel_tol * abs(value))


@dataclass(frozen=True)
class IntegrationResult:
    value: float
    error_estimate: float
    evaluations: int
    converged: bool


class NonConvergenceError(RuntimeError):
    """Raised by callers that require a converged estimate and did not get one."""


class PoleOnBoundaryError(ValueError):
    """A principal-value pole coincides with an integration endpoint."""


class PoleSeparationError(ValueError):
    """Two poles are too close for independent symmetric excision."""


def require_converged(res: IntegrationResult, what: str = "integral") -> IntegrationResult:
    if not res.converged:
        raise NonConvergenceError(
            f"{what} did not converge: value={res.value:.6g} "
            f"error={res.error_estimate:.3g} after {res.evaluations} evaluations"
        )
    return res
