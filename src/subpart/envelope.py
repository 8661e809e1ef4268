"""Lower convex envelopes of functions on integer intervals.

The central fact these envelopes exist to serve: among all paths pinned at
both ends under a ceiling f, the lower convex envelope minimizes any sum of
a convex function of the increments.  ``verify`` checks that lemma, and
its left-pinned form for the decreasing envelope, by sampling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class DiscreteFunction:
    """Real values on the integer interval lo..lo+len(values)-1."""

    lo: int
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("domain must be nonempty")
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))

    @property
    def hi(self) -> int:
        return self.lo + len(self.values) - 1

    def value(self, i: int) -> float:
        if not self.lo <= i <= self.hi:
            raise IndexError(f"{i} outside domain [{self.lo}, {self.hi}]")
        return self.values[i - self.lo]

    def increments(self) -> tuple[float, ...]:
        return tuple(b - a for a, b in zip(self.values, self.values[1:]))


def lower_convex_envelope(f: DiscreteFunction) -> DiscreteFunction:
    """Greatest convex minorant, computed by a monotone-chain lower hull
    scan over the points (i, f(i)) and interpolated back to the grid."""
    pts = [(i, v) for i, v in zip(range(f.lo, f.hi + 1), f.values)]
    hull = lower_hull(pts)
    return DiscreteFunction(f.lo, tuple(_interpolate(hull, f.lo, f.hi)))


def lower_hull(pts: Sequence[tuple[float, float]]) -> list[tuple[float, float]]:
    """Monotone-chain lower hull of points sorted by strictly increasing x;
    collinear middle points are dropped."""
    hull: list[tuple[float, float]] = []
    for p in pts:
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            if (x1 - x0) * (p[1] - y0) - (y1 - y0) * (p[0] - x0) <= 0.0:
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def _interpolate(hull: list[tuple[int, float]], lo: int, hi: int) -> list[float]:
    # hull vertices are reproduced exactly; only strict interiors interpolate
    vertex = dict(hull)
    out = []
    seg = 0
    for i in range(lo, hi + 1):
        if i in vertex:
            out.append(vertex[i])
            continue
        while hull[seg + 1][0] < i:
            seg += 1
        (x0, y0), (x1, y1) = hull[seg], hull[seg + 1]
        out.append(y0 + (y1 - y0) * (i - x0) / (x1 - x0))
    return out
