"""Lipschitz shapes dominating |x|, and exact sup-distances between them.

The shape space consists of functions f with |f'| <= 1, f(x) >= |x|,
f(x) = |x| outside a bounded set, and integral of (f - |x|) at most 1.
Shapes come in two flavours: piecewise-linear (kink list, |x| outside the
kink range) and analytic curves.  An analytic curve is any object exposing
``value(x)``, ``slope(x)`` and ``slope_inverse(s)``; the last returns the x
where the slope equals s, or None when the slope is never attained, which
is what makes sup-distances against piecewise-linear shapes exact.
"""

from __future__ import annotations

import math
from bisect import bisect_right

from .envelope import lower_hull
from .partitions import LatticeProfile, Record

_EDGE_TOL = 1e-9


class PiecewiseLinearShape(Record):
    """Piecewise-linear member of the shape space.

    ``kinks`` is a strictly increasing-in-x tuple of (x, y) vertices; the
    shape interpolates linearly between them and equals |x| outside their
    range.  Validation enforces the 1-Lipschitz and y >= |x| constraints and
    continuity where the shape meets |x|.
    """

    kinks: tuple[tuple[float, float], ...]

    def __init__(self, kinks: tuple[tuple[float, float], ...]) -> None:
        kinks = tuple([(float(x), float(y)) for x, y in kinks])
        self.__dict__["kinks"] = kinks
        if not kinks:
            raise ValueError("a piecewise-linear shape needs at least one kink")
        xs = [x for x, _ in kinks]
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ValueError("kink x-coordinates must be strictly increasing")
        for x, y in kinks:
            if y < abs(x) - _EDGE_TOL:
                raise ValueError(f"shape dips below |x| at x={x}")
        for (x0, y0), (x1, y1) in zip(kinks, kinks[1:]):
            if abs(y1 - y0) > (x1 - x0) + _EDGE_TOL:
                raise ValueError(f"slope exceeds 1 in magnitude on [{x0}, {x1}]")
        for x, y in (kinks[0], kinks[-1]):
            if abs(y - abs(x)) > _EDGE_TOL:
                raise ValueError("outermost kinks must lie on |x|")

    @classmethod
    def absolute_value(cls) -> "PiecewiseLinearShape":
        return cls(((0.0, 0.0),))

    def value(self, x: float) -> float:
        kinks = self.kinks
        if x <= kinks[0][0] or x >= kinks[-1][0]:
            return abs(x)
        i = bisect_right(kinks, (x, math.inf)) - 1
        x0, y0 = kinks[i]
        x1, y1 = kinks[i + 1]
        return y0 + (y1 - y0) * (x - x0) / (x1 - x0)

    def segments(self) -> list[tuple[float, float, float]]:
        """Finite pieces as (x0, x1, slope), excluding the two |x| tails."""
        return [
            (x0, x1, (y1 - y0) / (x1 - x0))
            for (x0, y0), (x1, y1) in zip(self.kinks, self.kinks[1:])
        ]

    def excess_area(self) -> float:
        """Integral of (self - |x|), exact trapezoid sum over kink pieces."""
        xs = [x for x, _ in self.kinks]
        if xs[0] < 0.0 < xs[-1] and 0.0 not in xs:
            xs.append(0.0)
            xs.sort()
        total = 0.0
        for a, b in zip(xs, xs[1:]):
            fa = self.value(a) - abs(a)
            fb = self.value(b) - abs(b)
            total += (fa + fb) * (b - a) / 2.0
        return total

    def rescaled(self, s: float) -> "PiecewiseLinearShape":
        """The shape x -> s * f(x / s); scales excess area by s**2."""
        if s <= 0:
            raise ValueError("scale factor must be positive")
        return PiecewiseLinearShape(tuple((s * x, s * y) for x, y in self.kinks))

    def envelope(self) -> "PiecewiseLinearShape":
        """Lower convex envelope over the whole line.

        Equals the lower hull of the kinks between the outermost kinks and
        |x| outside; the hull's first and last slopes never exceed 1 in
        magnitude because every kink lies on or above |x|.
        """
        return PiecewiseLinearShape(tuple(lower_hull(self.kinks)))


def rescale(prof: LatticeProfile, n: int) -> PiecewiseLinearShape:
    """Rescale a profile of a partition of n by 1/sqrt(2n) in both axes.

    The result has unit area between itself and |x|.  The flat profile
    rescales to |x| for any n >= 1.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    s = math.sqrt(2 * n)
    kinks = tuple(
        (j / s, g / s) for j, g in zip(range(prof.lo, prof.hi + 1), prof.heights)
    )
    return PiecewiseLinearShape(kinks)


def sup_distance(f, g) -> float:
    """Supremum of |f - g| over the line.

    Exact when both shapes are piecewise-linear (evaluated on the union of
    kinks) and when one side is analytic (kinks plus interior stationary
    points located through slope_inverse).  Raises TypeError when neither
    side is piecewise-linear.
    """
    f_pl = isinstance(f, PiecewiseLinearShape)
    g_pl = isinstance(g, PiecewiseLinearShape)
    if f_pl and g_pl:
        # the corner of |x| at the origin matters when a kink range misses 0
        best = 0.0
        for x in {0.0} | {x for x, _ in f.kinks} | {x for x, _ in g.kinks}:
            best = max(best, abs(f.value(x) - g.value(x)))
        return best
    if not (f_pl or g_pl):
        raise TypeError("sup_distance needs at least one piecewise-linear shape")
    pl, curve = (f, g) if f_pl else (g, f)
    xs = {0.0} | {x for x, _ in pl.kinks}
    best = max(abs(pl.value(x) - curve.value(x)) for x in xs)
    for x0, x1, slope in pl.segments():
        xstar = curve.slope_inverse(slope)
        if xstar is not None and x0 < xstar < x1:
            best = max(best, abs(pl.value(xstar) - curve.value(xstar)))
    return best
