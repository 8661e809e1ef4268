"""Exhaustive search for the partitions maximizing subpartition and chain
counts, and limit-shape reports for the winners.

The scan visits every partition of n and keeps every argmax, reported in
decreasing lexicographic order, so maximizer sets come out
conjugation-closed and deterministic.  For subpartitions (k = 1) it builds
each partition from its smallest part upward and carries the row DP down
that tree, so partitions sharing their lower rows share the DP work and
each one costs O(1) at its leaf; nothing is materialized but the winners.
Chain scans (k >= 2) enumerate the partitions, count each one's weak
k-chains as a k x k determinant of bridge counts, and can spread those
counts over worker processes; counts are exact integers, so the
reduction is order-independent and the reports are byte-for-byte
identical however many workers ran.  Each chain count refuses work past
``DEFAULT_STATE_CAP`` before its DP starts, so an oversized k ends the
scan in ResourceLimitError.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from .counting import (
    CountResult,
    ROW_DP,
    TRANSFER_CHAIN,
    _partition_numbers,
    _row_step,
    _weak_chains_transfer,
)
from .partitions import (
    DEFAULT_ENUMERATION_CAP,
    Partition,
    ResourceLimitError,
    enumerate_partitions,
    format_partition,
    profile,
)
from .ratefn import VershikCurve, shape_functional
from .shapes import PiecewiseLinearShape, rescale, sup_distance

HR_RATE = math.pi * math.sqrt(2.0 / 3.0)


@dataclass(frozen=True)
class MaximizerReport:
    n: int
    k: int
    maximizers: tuple[Partition, ...]
    max_count: CountResult
    exponent: float
    hr_reference: float
    distance_to_vershik: float


@dataclass(frozen=True)
class ShapeReport:
    n: int
    k: int
    partition: Partition
    profile_shape: PiecewiseLinearShape
    envelope_shape: PiecewiseLinearShape
    profile_distance: float
    envelope_distance: float
    envelope_functional: float


def _count_chunk(args: tuple[list[tuple[int, ...]], int]) -> list[int]:
    parts_list, k = args
    return [_weak_chains_transfer(profile(Partition(parts)), k) for parts in parts_list]


def _subpartition_maxima(n: int) -> tuple[int, list[tuple[int, ...]]]:
    """The largest subpartition count over the partitions of n, and the
    parts of every partition reaching it, in no particular order.

    Depth-first over partitions built from the smallest part upward.  A
    node holds the row-DP counts of its parts so far (p the largest, r
    still to place) and is lifted once; its leaf puts all of r on top, and
    each child adds a part q with p <= q <= r // 2.  Paths are linked
    pairs, so only winners are turned into tuples.
    """
    best, winners = 0, []
    stack = [(None, [1], 0, n)]
    while stack:
        path, counts, p, r = stack.pop()
        lifted, total = _row_step(counts)
        value = sum(lifted) + (r - p) * total
        if value >= best:
            if value > best:
                best, winners = value, []
            parts, link = [r], path
            while link is not None:
                q, link = link
                parts.append(q)
            winners.append(tuple(parts))
        for q in range(max(p, 1), r // 2 + 1):
            stack.append(((q, path), lifted + [total] * (q - p), q, r - q))
    return best, winners


def find_maximizers(
    n: int,
    k: int = 1,
    jobs: int = 1,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> MaximizerReport:
    """Scan every partition of n and report all maximizers of the weak
    k-chain count (the subpartition count when k = 1).

    Refuses upfront, through ``check_scan``; nothing partial is kept.
    ``jobs`` worker processes (at most one per CPU) share the chain counts
    of a k >= 2 scan; the k = 1 scan always runs in this process.
    """
    check_scan(n, k, cap)
    if k == 1:
        best, winners = _subpartition_maxima(n)
    else:
        candidates = [lam.parts for lam in enumerate_partitions(n, cap=None)]
        counts = _all_counts(candidates, k, jobs)
        best = max(counts)
        winners = [parts for parts, c in zip(candidates, counts) if c == best]
    maximizers = tuple(Partition(parts) for parts in sorted(winners, reverse=True))
    first = maximizers[0]
    shape = rescale(profile(first), n)
    return MaximizerReport(
        n=n,
        k=k,
        maximizers=maximizers,
        max_count=CountResult(
            value=best,
            method=ROW_DP if k == 1 else TRANSFER_CHAIN,
            params={"partition": format_partition(first), "k": k, "strict": False},
        ),
        exponent=math.log(best) / math.sqrt(n),
        hr_reference=k * HR_RATE,
        distance_to_vershik=sup_distance(shape, VershikCurve()),
    )


def check_scan(n: int, k: int, cap: int) -> None:
    """Refuse a scan of the partitions of n before any of its work: n or k
    below 1 raises ValueError, p(n) past cap raises ResourceLimitError.

    p is increasing, so tabulating it stops at the first value past cap.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if k < 1:
        raise ValueError("k must be at least 1")
    for _, p in zip(range(n + 1), _partition_numbers()):
        if p > cap:
            raise ResourceLimitError(f"p({n}) exceeds enumeration cap {cap}")


def _all_counts(candidates: list[tuple[int, ...]], k: int, jobs: int) -> list[int]:
    if jobs <= 1 or len(candidates) < 4 * jobs:
        return _count_chunk((candidates, k))
    # imported here so that loading the CLI does not load multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    chunk = (len(candidates) + 4 * jobs - 1) // (4 * jobs)
    batches = [
        (candidates[i : i + chunk], k) for i in range(0, len(candidates), chunk)
    ]
    out: list[int] = []
    with ProcessPoolExecutor(max_workers=min(jobs, os.cpu_count() or 1)) as pool:
        for partial in pool.map(_count_chunk, batches):
            out.extend(partial)
    return out


def shape_report(
    n: int,
    k: int = 1,
    jobs: int = 1,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> ShapeReport:
    """Rescaled profile and convex envelope of the first maximizer, with
    sup-distances to the limit curve and the envelope's functional value."""
    report = find_maximizers(n, k=k, jobs=jobs, cap=cap)
    lam = report.maximizers[0]
    shape = rescale(profile(lam), n)
    env = shape.envelope()
    curve = VershikCurve()
    return ShapeReport(
        n=n,
        k=k,
        partition=lam,
        profile_shape=shape,
        envelope_shape=env,
        profile_distance=sup_distance(shape, curve),
        envelope_distance=sup_distance(env, curve),
        envelope_functional=shape_functional(env),
    )
