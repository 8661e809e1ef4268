"""Exhaustive search for the partitions maximizing subpartition and chain
counts, and limit-shape reports for the winners.

Chain counts are conjugation-invariant, so the scan visits only the
partitions of n with largest part at least their length, adds the
conjugate of each winner, and reports every argmax in decreasing
lexicographic order: maximizer sets come out conjugation-closed and
deterministic.  For every k it builds each partition from its smallest
part upward and carries row-DP vectors down that tree, so partitions
sharing their lower rows share the DP work and each one is counted at its
leaf, as the determinant of the k x k Gessel-Viennot matrix that
``count_kchains`` builds too, from the same ``counting`` helpers (a
single entry, the subpartition count, at k = 1, where a node scores its
children and grandchildren without children of their own from four
running sums, walking each family of such leaves by second differences);
nothing is materialized but the winners.  The scan runs in one process,
and ``check_scan`` refuses an oversized n or k before any of its work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

from .counting import (
    CountResult,
    ROW_DP,
    TRANSFER_CHAIN,
    _chain_matrix,
    _leading_minors,
    _lift,
    _partition_numbers,
    _row_step,
)
from .partitions import (
    DEFAULT_ENUMERATION_CAP,
    DEFAULT_STATE_CAP,
    Partition,
    ResourceLimitError,
    conjugate,
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


def _scan_maxima(n: int, k: int) -> tuple[int, list[tuple[int, ...]], int]:
    """The largest weak k-chain count over the partitions of n, the parts
    of every partition reaching it, in no particular order, and the number
    of leaves scored, one per partition of n with lam_1 >= len(lam).

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

    A leaf's count for k >= 2 is the determinant of its k x k
    Gessel-Viennot matrix, ``counting._chain_matrix``: every node lifts the
    row-DP vectors of its chain paths (``counting._lift``), starting one
    more path while it has fewer than k parts, and pushes every child with
    them extended.  At k = 1 the count is the subpartition count
    sum(lifted) + (r - p) T, T the total of the lifted vector.

    At k = 1 a node scores the two levels below it itself, so only nodes
    with grandchildren are pushed.  Its lifted vector L, with total T, has
    the running sums s0 = sum(L), s1 = sum(accumulate(L)) and
    s2 = sum(accumulate(accumulate(L))).  A child q = p + m lifts
    L + [T] * m: the new entries lift to s0 + i T (i = 1..m) and, lifted
    again, to s1 + i s0 + T i(i+1)/2, so the child's total and sums are
    tc = s0 + m T, c0 = s1 + m s0 + T m(m+1)/2 and
    c1 = s2 + m s1 + s0 m(m+1)/2 + T m(m+1)(m+2)/6 (``_shift``), and one
    more part adds T to tc, the new tc to c0 and the new c0 to c1.  The
    child's leaf counts V(q) = c0 + (r - 2q) tc, so
    V(q + 1) - V(q) = T (r - 2q - 1) - tc, a step that falls by 3T a part:
    2T as r - 2q shrinks and T as tc grows.  Each family of leaves is thus
    walked by second differences (``_family``).

    Child q has children q' >= q only if q <= (r - q) // 2 and
    q <= r - q - d - 3, that is q <= split = min(r // 3, (r - d - 3) // 2),
    and grandchildren only if its child q' = q has children, that is
    q <= deep = min(split, r // 4, (r - d - 4) // 3); both bounds fall with
    q.  Children up to deep are pushed.  The leaves of the later ones are
    one family of the node, and each pre-leaf child (deep < q <= split)
    adds its children's leaves, a family over q' >= q on a node of total
    tc whose first leaf has total c0 and sum c1, with r - q still to place.
    """
    # binomials[t][n - r + i] = C(r - x, t) at index i = x + k - 1
    binomials = [[math.comb(n + k - 1 - i, t) for i in range(n + k)] for t in range(k)]
    best, winners, leaves = 0, [], 0
    # path, the counts of the node's top row (for k > 1 a list of them,
    # one per chain path started below it), its largest part, its number
    # of parts, the rest of n
    stack = [(None, [[0] * (k - 1) + [1]] if k > 1 else [1], 0, 0, n)]
    while stack:
        path, counts, p, d, r = stack.pop()
        if k > 1:
            lifted = _lift(counts, p, k)
            cols = [b[n - r : n - r + p + k] for b in binomials]
            value = _leading_minors(_chain_matrix(lifted, p, r, cols))[-1]
        else:
            lifted, total = _row_step(counts)
            s0 = sum(lifted)
            value = s0 + (r - p) * total
        leaves += 1
        if value >= best:
            best = _keep(value, best, winners, r, path)
        first, last = p or 1, min(r // 2, r - d - 2)
        if k > 1:
            for q in range(first, last + 1):
                stack.append(((q, path), [v + [v[-1]] * (q - p) for v in lifted], q, d + 1, r - q))
            continue
        split = min(last, r // 3, (r - d - 3) // 2)
        deep = min(split, r // 4, (r - d - 4) // 3)
        for q in range(first, deep + 1):
            stack.append(((q, path), lifted + [total] * (q - p), q, d + 1, r - q))
        lo = max(first, deep + 1)  # the first child not pushed
        if lo > last:
            continue
        sums = list(accumulate(lifted))
        s1 = sum(sums)
        s2 = sum(accumulate(sums)) if lo <= split else 0  # for pre-leaf children
        tc, c0, c1 = _shift(total, s0, s1, s2, lo - p)
        # every child not pushed is a leaf of this node's family ...
        best = _family(total, tc, c0, lo, last, r, best, winners, path)
        leaves += last - lo + 1
        # ... and the children of a pre-leaf child are a family of its own
        for q in range(lo, split + 1):
            end = min((r - q) // 2, r - q - d - 3)
            best = _family(tc, c0, c1, q, end, r - q, best, winners, (q, path))
            leaves += end - q + 1
            tc += total
            c0 += tc
            c1 += c0
    winners += [conjugate(Partition(parts)).parts for parts in winners if parts[0] > len(parts)]
    return best, winners, leaves


def _shift(total: int, s0: int, s1: int, s2: int, m: int) -> tuple[int, int, int]:
    """The total tc and the sums c0, c1 of the lifted vector and of its
    prefix sums for the child that extends a lifted vector L by m parts,
    from L's total and the sums s0, s1, s2 of L, accumulate(L) and
    accumulate(accumulate(L)), as derived in ``_scan_maxima``."""
    half = m * (m + 1) // 2
    return (
        s0 + m * total,
        s1 + m * s0 + total * half,
        s2 + m * s1 + s0 * half + total * half * (m + 2) // 3,
    )


def _family(
    total: int,
    tc: int,
    c0: int,
    part: int,
    last: int,
    rest: int,
    best: int,
    winners: list[tuple[int, ...]],
    path,
) -> int:
    """Score the leaves that put one part q, part <= q <= last, over the
    linked ``path`` of a node with total ``total`` and all of rest - q on
    top, given the total tc and sum c0 of the lifted vector for q = part;
    records winners as ``_keep`` does and returns the new best.  Each leaf
    costs two additions and a comparison (see ``_scan_maxima``)."""
    value = c0 + (rest - 2 * part) * tc
    step = total * (rest - 2 * part - 1) - tc
    fall = 3 * total
    for q in range(part, last + 1):
        if value >= best:
            best = _keep(value, best, winners, rest - q, (q, path))
        value += step
        step -= fall
    return best


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


def find_maximizers(n: int, k: int = 1, cap: int = DEFAULT_ENUMERATION_CAP) -> MaximizerReport:
    """Scan the partitions of n and report all maximizers of the weak
    k-chain count (the subpartition count when k = 1).

    Refuses upfront, through ``check_scan``; nothing partial is kept.
    """
    check_scan(n, k, cap)
    best, winners, _ = _scan_maxima(n, k)
    return maximizer_report(n, k, best, winners)


def maximizer_report(n: int, k: int, best: int, winners: list[tuple[int, ...]]) -> MaximizerReport:
    """The report of a scan of the partitions of n whose largest weak
    k-chain count ``best`` is reached by the partitions with the parts in
    ``winners``, given in any order."""
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
    below 1 raises ValueError; k^2 (n + 2) past ``DEFAULT_STATE_CAP``, or
    p(n) past cap, raises ResourceLimitError.

    n + 2 columns is the widest profile window over the partitions of n,
    that of (n), so the first cap is a chain count's own at its widest.  p
    is increasing, so tabulating it stops at the first value past cap.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if k < 1:
        raise ValueError("k must be at least 1")
    if k * k * (n + 2) > DEFAULT_STATE_CAP:
        raise ResourceLimitError(f"chain scan for k={k}, n={n} exceeds cap {DEFAULT_STATE_CAP}")
    for _, p in zip(range(n + 1), _partition_numbers()):
        if p > cap:
            raise ResourceLimitError(f"p({n}) exceeds enumeration cap {cap}")


def shape_report(n: int, k: int = 1, cap: int = DEFAULT_ENUMERATION_CAP) -> ShapeReport:
    """Rescaled profile and convex envelope of the first maximizer, with
    sup-distances to the limit curve and the envelope's functional value."""
    report = find_maximizers(n, k=k, cap=cap)
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
