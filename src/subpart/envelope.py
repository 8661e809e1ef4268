"""Lower convex envelopes of functions on integer grids.

The central fact these envelopes exist to serve: among all paths pinned at
both ends under a ceiling f, the lower convex envelope minimizes any sum of
a convex function of the increments.  ``verify`` checks that lemma, and
its left-pinned form for the decreasing envelope, by sampling.  A function
is the tuple of its values on 0..len - 1: the hull and the interpolation
see x only through differences, so no offset changes a value.
"""

from __future__ import annotations

from typing import Sequence


def lower_convex_envelope(values: Sequence[float]) -> tuple[float, ...]:
    """Greatest convex minorant of the values on the grid 0..len - 1,
    computed by a monotone-chain lower hull scan over the points (i, v)
    and interpolated back to the grid."""
    if not values:
        raise ValueError("domain must be nonempty")
    hull = lower_hull([(i, float(v)) for i, v in enumerate(values)])
    return tuple(_interpolate(hull, 0, len(values) - 1))


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
