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
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .shapes import PiecewiseLinearShape

VERSHIK_BETA = math.pi / (2.0 * math.sqrt(3.0))
VERSHIK_HEIGHT = math.log(2.0) / VERSHIK_BETA
FUNCTIONAL_MAX = math.pi / math.sqrt(3.0)

_ONE = 1.0 - 1e-15
_SLOPE_SLACK = 1e-12


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


def shape_functional(shape: PiecewiseLinearShape) -> float:
    """Integral of the growth rate of the slope along the shape: an exact
    finite sum of piece length times the growth rate of the piece slope.
    The |x| tails contribute nothing since the growth rate vanishes at
    slope +-1."""
    total = 0.0
    for x0, x1, slope in shape.segments():
        if abs(slope) > 1.0 + _SLOPE_SLACK:
            raise ValueError(f"slope {slope} exceeds 1 in magnitude")
        slope = max(-1.0, min(1.0, slope))
        total += (x1 - x0) * growth_rate(slope)
    return total
