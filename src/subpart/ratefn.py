"""Large-deviation rate machinery for +-1 paths and the limit curve.

A symmetric +-1 step has cumulant generating function log cosh t.  Its
Legendre transform, the rate function, prices a path increment of mean
slope x; the growth rate phi(x) = log 2 - rate(x) is then the per-unit-
length exponential growth rate of paths with that slope, maximal (log 2)
for balanced paths and zero for forced ones.  Integrating phi over the
slopes of a shape gives the shape functional; its unique maximizer over
the shape space is the Vershik curve

    x  ->  (2*sqrt(3)/pi) * log(2*cosh(pi*x/(2*sqrt(3)))),

with functional value pi/sqrt(3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .numerics import adaptive_simpson, bisect_increasing, derivative
from .shapes import PiecewiseLinearShape

VERSHIK_BETA = math.pi / (2.0 * math.sqrt(3.0))
VERSHIK_HEIGHT = math.log(2.0) / VERSHIK_BETA
FUNCTIONAL_MAX = math.pi / math.sqrt(3.0)
# excess area of log(2 cosh x) over |x|; the square of 1/VERSHIK_BETA
AREA_CONSTANT = math.pi**2 / 12.0

# quadrature window: integrands decay like x * exp(-2x), so the tail past
# 40 is below 1e-30
TAIL_CUTOFF = 40.0

_ONE = 1.0 - 1e-15
_SLOPE_SLACK = 1e-12


def log_cosh(t: float) -> float:
    """log(cosh(t)), stable for large |t|."""
    a = abs(t)
    return a + math.log1p(math.exp(-2.0 * a)) - math.log(2.0)


def rate_function(x: float) -> float:
    """Legendre transform of log cosh: the rate of a mean-slope-x path.

    Closed form ((1+x)/2)log(1+x) + ((1-x)/2)log(1-x) on [-1, 1] with the
    0*log 0 = 0 convention, +infinity outside.
    """
    ax = abs(x)
    if ax > 1.0:
        return math.inf
    if ax == 1.0:
        return math.log(2.0)
    return 0.5 * (1.0 + x) * math.log1p(x) + 0.5 * (1.0 - x) * math.log1p(-x)


def growth_rate(x: float) -> float:
    """log 2 minus the rate function; even, concave, zero at +-1."""
    if abs(x) > 1.0:
        raise ValueError(f"slope {x} outside [-1, 1]")
    return math.log(2.0) - rate_function(x)


def artanh(x: float) -> float:
    if abs(x) >= _ONE:
        raise ValueError(f"artanh argument {x} too close to +-1")
    return math.atanh(x)


def rate_function_numeric(x: float) -> float:
    """Rate function evaluated straight from the Legendre definition:
    bisect tanh t = x to 1e-14, then return t*x - log cosh t.

    Independent of the closed form on purpose, so the two can be checked
    against each other.
    """
    if abs(x) >= 1.0:
        raise ValueError(f"numeric Legendre transform needs |x| < 1, got {x}")
    t = bisect_increasing(math.tanh, x, -1.0, 1.0)
    return t * x - log_cosh(t)


class VershikCurve:
    """The limit curve, as an analytic shape.

    Evaluation uses the asymptote form |x| + log1p(exp(-2*beta*|x|))/beta,
    which is exact and avoids overflow; the slope is tanh(beta*x).
    """

    beta = VERSHIK_BETA

    def value(self, x: float) -> float:
        ax = abs(x)
        return ax + math.log1p(math.exp(-2.0 * self.beta * ax)) / self.beta

    def slope(self, x: float) -> float:
        return math.tanh(self.beta * x)

    def slope_inverse(self, s: float) -> float | None:
        if abs(s) >= _ONE:
            return None
        return math.atanh(s) / self.beta


_CURVE = VershikCurve()


def shape_functional(shape) -> float:
    """Integral of the growth rate of the slope along the shape.

    Exact finite sum (piece length times growth rate of the piece slope)
    for piecewise-linear shapes; adaptive Simpson on [-TAIL_CUTOFF,
    TAIL_CUTOFF] for analytic curves.  The |x| tails contribute nothing
    since the growth rate vanishes at slope +-1.
    """
    if isinstance(shape, PiecewiseLinearShape):
        total = 0.0
        for x0, x1, slope in shape.segments():
            if abs(slope) > 1.0 + _SLOPE_SLACK:
                raise ValueError(f"slope {slope} exceeds 1 in magnitude")
            slope = max(-1.0, min(1.0, slope))
            total += (x1 - x0) * growth_rate(slope)
        return total
    return adaptive_simpson(
        lambda x: growth_rate(max(-1.0, min(1.0, shape.slope(x)))),
        -TAIL_CUTOFF,
        TAIL_CUTOFF,
    )


@dataclass(frozen=True)
class ConstantsReport:
    """Residuals of the analytic identities behind the limit curve."""

    tail_integral_residual: float
    growth_identity_lhs_residual: float
    growth_identity_rhs_residual: float
    normalization_residual: float
    functional_residual: float
    euler_lagrange_residual: float

    def as_dict(self) -> dict[str, float]:
        return {
            "tail_integral_residual": self.tail_integral_residual,
            "growth_identity_lhs_residual": self.growth_identity_lhs_residual,
            "growth_identity_rhs_residual": self.growth_identity_rhs_residual,
            "normalization_residual": self.normalization_residual,
            "functional_residual": self.functional_residual,
            "euler_lagrange_residual": self.euler_lagrange_residual,
        }

    def max_residual(self) -> float:
        return max(self.as_dict().values())


def verify_constants() -> ConstantsReport:
    """Recompute the curve's defining identities by quadrature and finite
    differences and report the residuals.

    Checks, in order: the tail integral of log(1 + e^{-2x}) against
    pi^2/24; the growth-rate integral of tanh against twice that tail
    integral (both against pi^2/12); unit excess area of the curve; the
    functional value against pi/sqrt(3); and the stationarity condition
    slope = tanh(beta*x), differentiating the curve with a five-point
    stencil on a grid over |x| <= 5.
    """
    tail = adaptive_simpson(
        lambda x: math.log1p(math.exp(-2.0 * x)), 0.0, TAIL_CUTOFF
    )
    growth_lhs = adaptive_simpson(
        lambda u: growth_rate(math.tanh(u)), 0.0, TAIL_CUTOFF
    )
    area = adaptive_simpson(
        lambda x: _CURVE.value(x) - abs(x), -TAIL_CUTOFF, TAIL_CUTOFF
    )
    functional = shape_functional(_CURVE)
    el = 0.0
    for i in range(501):
        x = -5.0 + 10.0 * i / 500.0
        el = max(el, abs(derivative(_CURVE.value, x) - _CURVE.slope(x)))
    return ConstantsReport(
        tail_integral_residual=abs(tail - math.pi**2 / 24.0),
        growth_identity_lhs_residual=abs(growth_lhs - AREA_CONSTANT),
        growth_identity_rhs_residual=abs(2.0 * tail - AREA_CONSTANT),
        normalization_residual=abs(area - 1.0),
        functional_residual=abs(functional - FUNCTIONAL_MAX),
        euler_lagrange_residual=el,
    )
