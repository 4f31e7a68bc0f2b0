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
from dataclasses import dataclass, field
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


def _default_excision_sequence() -> tuple[float, ...]:
    # geometric, ratio 1/2, 12 terms
    return tuple(0.5 ** k for k in range(1, 13))


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and budgets shared by all integration routines.

    excision_sequence entries are dimensionless shrink factors: for each pole
    they are rescaled so that the first (largest) entry maps to half of the
    pole's safe half-width (distance to the nearest boundary or to the
    midpoint toward a neighbouring pole).  Only the ratios matter.
    rel_tol may not go below 4 eps, the floor the pieces of a principal
    value already get.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-14
    max_subdivisions: int = 4096
    excision_sequence: tuple[float, ...] = field(
        default_factory=_default_excision_sequence
    )

    def __post_init__(self) -> None:
        require_finite(
            {"rel_tol": self.rel_tol, "abs_tol": self.abs_tol,
             "max_subdivisions": self.max_subdivisions}
        )
        if not (self.rel_tol > 0.0 and self.abs_tol > 0.0):
            raise ValueError("tolerances must be positive")
        if self.rel_tol < 4.0 * _EPS:
            raise ValueError(f"rel_tol must be at least 4 eps = {4.0 * _EPS:.3g}")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")
        seq = tuple(float(e) for e in self.excision_sequence)
        if len(seq) < 3:
            raise ValueError("excision_sequence needs at least 3 entries")
        if not all(0.0 < e < math.inf for e in seq):
            raise ValueError("excision_sequence entries must be finite and > 0")
        if any(b >= a for a, b in zip(seq, seq[1:])):
            raise ValueError("excision_sequence must be strictly decreasing")
        object.__setattr__(self, "excision_sequence", seq)

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
