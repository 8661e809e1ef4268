"""Search for the partitions maximizing subpartition and chain counts,
and limit-shape reports for the winners.

Chain counts are conjugation-invariant, so the scan visits only the
partitions of n with largest part at least their length, adds the
conjugate of each winner, and reports every argmax in decreasing
lexicographic order: maximizer sets come out conjugation-closed and
deterministic.  The scan (``_scan_maxima``) builds each partition from
its smallest part upward and carries row-DP vectors down that tree, so
partitions sharing their lower rows share the DP work.  Every leaf is
scored by its grandparent: a node scores the leaves of each child's
children in closed form, family by family, so only nodes with
grandchildren are pushed (at k = 2, only those whose children have
grandchildren); the root's leaf (n), which has no grandparent,
counts C(n + k, k), and its children's leaves (n - q, q) are a family of
the root.  One of two kernels then walks the tree from the root, an
ordinary node of it: ``scan_bounded``, a branch and bound, at k = 1, and
``scan_chains``, exhaustive, at k >= 2.  ``_scan_maxima`` imports each
in the branch that runs it, so a scan loads only its own kernel.
Nothing is materialized but the winners.  The scan runs in one process,
and ``check_scan`` refuses an oversized n or k before any of its work.
"""

from __future__ import annotations

import math

from .counting import _partition_numbers
from .partitions import (
    DEFAULT_SCAN_CAP,
    DEFAULT_STATE_CAP,
    Partition,
    Record,
    ResourceLimitError,
    conjugate,
    profile,
)
from .ratefn import VershikCurve, shape_functional
from .shapes import PiecewiseLinearShape, rescale, sup_distance

HR_RATE = math.pi * math.sqrt(2.0 / 3.0)


class MaximizerReport(Record):
    n: int
    k: int
    maximizers: tuple[Partition, ...]
    max_count: int
    exponent: float
    hr_reference: float
    distance_to_vershik: float


class ShapeReport(Record):
    n: int
    k: int
    partition: Partition
    profile_shape: PiecewiseLinearShape
    envelope_shape: PiecewiseLinearShape
    profile_distance: float
    envelope_distance: float
    envelope_functional: float


def _scan_maxima(n: int, k: int) -> tuple[int, list[tuple[int, ...]], int, int]:
    """The largest weak k-chain count over the partitions of n, the parts
    of every partition reaching it, in no particular order, the number of
    leaves scored, at k >= 2 one per partition of n with lam_1 >= len(lam),
    at k = 1 only those of the subtrees not pruned, and the number of nodes
    the kernel popped: the root and the nodes with grandchildren that its
    walk pushed (at k = 2 only those whose children have grandchildren).

    Depth-first over partitions built from the smallest part upward: a
    node has placed d parts up to p with r still to place, its leaf puts
    all of r on top, and each child adds a part q with p <= q <= r // 2.
    Paths are linked pairs, so only winners are turned into tuples.

    Conjugation is an automorphism of Young's lattice, so every count is
    conjugation-invariant and the scan visits only lam with
    lam_1 >= len(lam): a leaf has lam_1 = r and d + 1 parts, and a child's
    descendants all have more parts and a smaller top, so children with
    r - q < d + 2 are skipped.  Each winner with lam_1 > len(lam) then
    brings its conjugate; one with lam_1 = len(lam) has a conjugate of the
    same kind, visited on its own.

    Child q has children q' >= q only if q <= (r - q) // 2 and
    q <= r - q - d - 3, that is q <= split = min(r // 3, (r - d - 3) // 2),
    and grandchildren only if its child q' = q has children, that is
    q <= deep = min(split, r // 4, (r - d - 4) // 3); both bounds fall with
    q.  Every leaf is scored by its grandparent: the leaves of child q's
    children, q <= q' <= end with r - q - q' on top, are a family that the
    node scores for each child with children (q <= split), so only the
    children up to deep are pushed.  The root's leaf (n) has no
    grandparent; its weak k-chains are the multisets of k values from
    0..n, C(n + k, k) of them.  Its children's leaves (n - q, q),
    1 <= q <= last = min(n // 2, n - 2), are the family of the root's
    children, which the kernel scores before its walk: ``_scan_bounded``,
    a branch and bound seeded from Vershik's curve, at k = 1, and
    ``_scan_chains``, exhaustive, at k >= 2.
    """
    last = min(n // 2, n - 2)
    winners = []
    best = _keep(math.comb(n + k, k), 0, winners, n, None)
    if k == 1:
        from .scan_bounded import _scan_bounded

        best, leaves, pops = _scan_bounded(n, last, best, winners)
    else:
        from .scan_chains import _scan_chains

        best, leaves, pops = _scan_chains(n, k, last, best, winners)
    winners += [conjugate(Partition(parts)).parts for parts in winners if parts[0] > len(parts)]
    return best, winners, 1 + max(0, last) + leaves, pops


def _keep(value: int, best: int, winners: list[tuple[int, ...]], top: int, path) -> int:
    """Record the partition with largest part ``top`` over the linked
    ``path`` as reaching ``value`` >= ``best``, dropping the old winners if
    it is larger; returns the new best."""
    if value > best:
        winners.clear()
    parts, link = [top], path
    while link is not None:
        q, link = link
        parts.append(q)
    winners.append(tuple(parts))
    return value


def find_maximizers(n: int, k: int = 1, cap: int = DEFAULT_SCAN_CAP) -> MaximizerReport:
    """Scan the partitions of n and report all maximizers of the weak
    k-chain count (the subpartition count when k = 1).

    Refuses upfront, through ``check_scan``; nothing partial is kept.
    """
    check_scan(n, k, cap)
    best, winners, _, _ = _scan_maxima(n, k)
    return maximizer_report(n, k, best, winners)


# ``cli.find_maximizers`` forwards to this name, not to the one above, so
# that a wrapper put in place of each (as perfbench's tracer does) sees a
# scan once.
_find_maximizers = find_maximizers


def maximizer_report(n: int, k: int, best: int, winners: list[tuple[int, ...]]) -> MaximizerReport:
    """The report of a scan of the partitions of n whose largest weak
    k-chain count ``best`` is reached by the partitions with the parts in
    ``winners``, given in any order."""
    maximizers = tuple(Partition(parts) for parts in sorted(winners, reverse=True))
    shape = rescale(profile(maximizers[0]), n)
    return MaximizerReport(
        n=n,
        k=k,
        maximizers=maximizers,
        max_count=best,
        exponent=math.log(best) / math.sqrt(n),
        hr_reference=k * HR_RATE,
        distance_to_vershik=sup_distance(shape, VershikCurve()),
    )


def check_scan(n: int, k: int, cap: int) -> None:
    """Refuse a scan of the partitions of n before any of its work: n or k
    below 1 raises ValueError; k^2 (n + 2) past ``DEFAULT_STATE_CAP``, or
    p(n) past cap, raises ResourceLimitError.

    The first cap is a chain count's own, k^2 times the window, taken one
    column wider than (n)'s, the widest over the partitions of n.  The
    scan makes no chain count (its root's leaf is C(n + k, k), every
    other leaf is scored in closed form), so the cap now only keeps its
    binomial tables, about k (n + k) entries, and its k x k matrices
    small: it bounds neither the scan's work nor its time (ROADMAP.md,
    "Caps that bound time").  p is increasing, so tabulating it stops at
    the first value past cap.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if k < 1:
        raise ValueError("k must be at least 1")
    if k * k * (n + 2) > DEFAULT_STATE_CAP:
        raise ResourceLimitError(f"chain scan for k={k}, n={n} exceeds cap {DEFAULT_STATE_CAP}")
    for _, p in zip(range(n + 1), _partition_numbers()):
        if p > cap:
            raise ResourceLimitError(f"p({n}) exceeds scan cap {cap}")


def shape_report(n: int, k: int = 1, cap: int = DEFAULT_SCAN_CAP) -> ShapeReport:
    """Rescaled profile and convex envelope of the first maximizer, with
    sup-distances to the limit curve and the envelope's functional value."""
    report = find_maximizers(n, k=k, cap=cap)
    lam = report.maximizers[0]
    shape = rescale(profile(lam), n)
    env = shape.envelope()
    return ShapeReport(
        n=n,
        k=k,
        partition=lam,
        profile_shape=shape,
        envelope_shape=env,
        profile_distance=report.distance_to_vershik,
        envelope_distance=sup_distance(env, VershikCurve()),
        envelope_functional=shape_functional(env),
    )
