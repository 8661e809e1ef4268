"""Search for the partitions maximizing subpartition and chain counts,
and limit-shape reports for the winners.

Chain counts are conjugation-invariant, so the scan visits only the
partitions of n with largest part at least their length, adds the
conjugate of each winner, and reports every argmax in decreasing
lexicographic order: maximizer sets come out conjugation-closed and
deterministic.  For every k it builds each partition from its smallest
part upward and carries row-DP vectors (``counting._lift``) down that
tree, so partitions sharing their lower rows share the DP work.  Every
leaf is scored by its grandparent: a node scores the leaves of each
child's children in closed form, as determinants of their k x k
Gessel-Viennot matrices, family by family, from sums it moves from leaf
to leaf by Pascal's rule (at k = 1, four running sums walked by second
differences; at k = 2, eight ints per node and ad - bc per leaf, with no
list built per family or leaf).  So only nodes with grandchildren are
pushed; the root's leaf (n), which has no grandparent, counts
C(n + k, k) in closed form, and its children's leaves (n - q, q) are a
family of the root.  At k = 1 the scan is a branch and bound: a table of
upper bounds on what the rows still to be placed can contribute
(``_bound_table``) lets a node skip each child whose subtree cannot
reach the best count found so far, and ties are never skipped; at
k >= 2 every leaf is scored.  Nothing is materialized but the winners.
The scan runs in one process, and ``check_scan`` refuses an oversized n
or k before any of its work.
"""

from __future__ import annotations

import math
from itertools import accumulate
from operator import add, mul

from .counting import (
    CountResult,
    ROW_DP,
    TRANSFER_CHAIN,
    _leading_minors,
    _lift,
    _partition_numbers,
    _row_step,
)
from .partitions import (
    DEFAULT_SCAN_CAP,
    DEFAULT_STATE_CAP,
    Partition,
    Record,
    ResourceLimitError,
    conjugate,
    format_partition,
    profile,
)
from .ratefn import VershikCurve, shape_functional
from .shapes import PiecewiseLinearShape, rescale, sup_distance

HR_RATE = math.pi * math.sqrt(2.0 / 3.0)


class MaximizerReport(Record):
    n: int
    k: int
    maximizers: tuple[Partition, ...]
    max_count: CountResult
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


def _scan_maxima(n: int, k: int) -> tuple[int, list[tuple[int, ...]], int]:
    """The largest weak k-chain count over the partitions of n, the parts
    of every partition reaching it, in no particular order, and the number
    of leaves scored: at k >= 2 one per partition of n with
    lam_1 >= len(lam), at k = 1 only those of the subtrees not pruned.

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

    A leaf's count is the determinant of its k x k Gessel-Viennot matrix,
    the one ``counting._chain_matrix`` joins at lam_1's strip (c = 1),
    with the sink weights C(r - x, t) in closed form: every node lifts the
    row-DP vectors of its chain paths (``counting._lift``), starting one
    more path while it has fewer than k parts, and a child gets them
    extended by their last entries.  At k = 1 the count is the
    subpartition count sum(lifted) + (r - p) T, T the total of the lifted
    vector.

    Child q has children q' >= q only if q <= (r - q) // 2 and
    q <= r - q - d - 3, that is q <= split = min(r // 3, (r - d - 3) // 2),
    and grandchildren only if its child q' = q has children, that is
    q <= deep = min(split, r // 4, (r - d - 4) // 3); both bounds fall with
    q.  Every leaf is scored by its grandparent: the leaves of child q's
    children, q <= q' <= end with r - q - q' on top, are a family that the
    node scores for each child with children (first <= q <= split), so
    only the children up to deep are pushed.  The root's leaf (n) has no
    grandparent; its weak k-chains are the multisets of k values from
    0..n, C(n + k, k) of them.  Its children's leaves (n - q, q),
    1 <= q <= last = min(n // 2, n - 2), are scored as the family of the
    root's children, from part 1 (see below).

    At k = 1 the node's lifted vector L has total T, and child q lifts
    L + [T] * (q - p).  Write tc, c0 and c1 for the total and sum of child
    q's lifted vector and the sum of its prefix sums: at q = p they are
    sum(L), sum(accumulate(L)) and sum(accumulate(accumulate(L))), and one
    more part appends T to the child's vector, which adds T to tc, the new
    tc to c0 and the new c0 to c1; the root, p = 0, takes that step once
    for its first child, q = 1.  By the same rule, a family node of total
    T' whose leaf q' lifts to total t and sum c gives that leaf the count
    V(q') = c + (rest - 2q') t, so V(q' + 1) - V(q') = T' (rest - 2q' - 1) - t,
    a step that falls by 3T' a part: 2T' as rest - 2q' shrinks and T' as t
    grows.  Child q's family, with rest = r - q, is thus walked by second
    differences (``_family``) from T' = tc, t = c0 and c = c1 at q' = q.
    The root's own family has T' = 1, and its leaf q' = 1 lifts
    [1, 1] to [1, 2]: t = 2 and c = 3.

    So at k = 1 the scan is a branch and bound (Land and Doig,
    Econometrica 28, 1960).  Child q's row counts grown = L + [T] * (q - p)
    count at y the fillings of the rows up to q that put y in row q.  Every
    leaf below the child stacks some nu |- r - q with parts at least q on
    that row, read from the smallest, nu_1 <= ... <= nu_m, and counts
    sum_y grown[y] A_nu(y), where A_nu(y) counts the fillings
    y <= v_1 <= ... <= v_m with v_i <= nu_i.  Splitting off v_1,
    A_nu(y) = sum_{v=y}^{nu_1} A_nu'(v), nu' the rest of nu, and
    A_(r)(y) = r - y + 1.  Taking the max over nu inside that sum gives a
    table B[r][p][y] >= A_nu(y) over every nu |- r with parts at least
    max(p, 1), 0 <= y <= p <= r // 2 (``_bound_table``):
    B[r][p][y] = max(r - y + 1, max over max(p, 1) <= q <= r // 2 of
    sum_{v=y}^{q} B[r - q][q][v]), where B[r - q][q][v] is the one-part
    r - q - v + 1 once 2q > r - q, as no second part fits.  So
    sum_y grown[y] B[r - q][q][y] bounds every leaf below child q, and when
    it is below best the node neither walks the child's family nor pushes
    it.  The test is strict: every leaf so skipped counts less than best,
    which only rises, so it is no winner, while a subtree that could tie
    the best is still scored, and the winners are those of the exhaustive
    scan.  Children are pushed so that the smallest q is popped first,
    which raises best early.  At k >= 2 the scan stays exhaustive: the
    bounds tried there ignore the determinant's cancellation and prune
    almost nothing.

    At k >= 2 child q's lifted vectors V_s end in U_s, and its family puts
    one more part q' on it and leaves top = r - q - q' on top.  The
    hockey-stick identity carries V_s + [U_s] * (q' - q) through the
    leaf's row: e(s, t) = w_s[t + 2] - U_s C(top + 1 - q', t + 2), where
    w_s[j] = sum_y V_s[y] C(top + 1 - y, j - 1) + U_s C(top + 1 - q, j)
    sums V_s extended by U_s without end, and w_s[0] = U_s.  From one leaf
    to the next, q' falls by one and top rises by one, and Pascal's rule
    adds the old w_s[j - 1] to every w_s[j] (``_pascal_up``), so a leaf
    costs O(k^2) additions and a k x k determinant (``_chain_family``).
    The child's vectors are never built: from the binomial sums
    G_{s,j}(R) = sum_y L_s[y] C(R - y, j), j = 0..k+1, of the node's
    lifted vectors L_s, ending in T_s (``_binomial_sums``),
    w_s[j] = G_{s,j}(R) + T_s (C(R - p, j + 1) - C(R - q, j + 1)) at
    R = top + 2 for the family's first leaf, so
    w_s[0] = sum(L_s) + (q - p) T_s = U_s.  The children are taken from
    the last, whose first leaf has the lowest R, so one set of sums G is
    moved up by Pascal's rule.  A source s >= ell that the node, with ell
    lifted vectors, has not started is binomial: the paths started at the
    child (vector ones, U = 1) and at the leaf, and the sources below lam
    (as in ``_chain_matrix``), all have w_s[j] = C(R + ell, j - s + ell)
    (``_binomial_paths``).  The root is the child, placing no part, of a
    node with no lifted vectors, so in the root's family every source is
    binomial, w_s[j] = C(R, j - s) at R = n - last + 2.

    At k = 2 the node body holds all of this in local ints: the eight
    sums G_{s,j}, s = 0, 1 and j = 0..3, come from ``_binomial_sums``
    once per node and are moved up R by Pascal's rule, top-down; at the
    root, whose one lifted vector leaves the second path binomial, that
    path's sums are the row C(R + 1, 0..3) with T = 0.  Child q takes the
    four differences C(R - p, j + 1) - C(R - q, j + 1) once for both
    paths, and ``_pair_family`` walks the family on the two vectors'
    eight ints, ad - bc per leaf.  No list is built per family or leaf.
    """
    # the root's leaf (n); its children's leaves (n - q, q), q <= last,
    # are the family of the root's children
    last = min(n // 2, n - 2)
    winners = []
    best, leaves = _keep(math.comb(n + k, k), 0, winners, n, None), 1 + max(0, last)
    if k == 1:
        best = _family(1, 2, 3, 1, last, n, best, winners, None)
        bounds = _bound_table(n)
        stack = [(None, [1], 0, 0, n)]
    else:
        # binomials[j][n - R + i] = C(R - x, j) at index i = x + k - 1, and
        # pascal[m][j] = C(m, j)
        binomials = [[math.comb(n + k - 1 - i, j) for i in range(n + k)] for j in range(k + 2)]
        pascal = [[math.comb(m, j) for j in range(k + 3)] for m in range(n + k)]
        if last > 0:
            # both sources of the root's family are binomial, w_s[j] = C(R, j - s)
            row = pascal[n - last + 2]
            if k == 2:
                best = _pair_family(*row[:4], 0, *row[:3], 1, last, n, pascal, best, winners, None)
            else:
                best = _chain_family(_binomial_paths(row, 0, k), 1, last, n, pascal, best, winners, None)
        stack = [(None, [[0] * (k - 1) + [1]], 0, 0, n)]
    # a node: its path, the counts of its top row (for k > 1 a list of
    # them, one per chain path started below it), its largest part, its
    # number of parts, the rest of n
    while stack:
        path, counts, p, d, r = stack.pop()
        first = p or 1
        split = min(r // 3, (r - d - 3) // 2)
        deep = min(split, r // 4, (r - d - 4) // 3)
        # each child with children, first <= q <= split, brings the family
        # of its children's leaves
        if k > 1:
            lifted = _lift(counts, p, k)
            for q in range(first, deep + 1):
                stack.append(((q, path), [v + [v[-1]] * (q - p) for v in lifted], q, d + 1, r - q))
            # taken from the last, so that R never falls
            if k == 2:
                at = None
                for q in range(split, first - 1, -1):
                    end = min((r - q) // 2, r - q - d - 3)
                    R = r - q - end + 2
                    if at is None:
                        # the sums G_{0,j} and G_{1,j} of the node's two paths;
                        # the root's second path starts at the child
                        at, tg = R, lifted[0][-1]
                        if p:
                            (g0, g1, g2, g3), (h0, h1, h2, h3) = _binomial_sums(lifted, binomials, n - R)
                            th = lifted[1][-1]
                        else:
                            ((g0, g1, g2, g3),) = _binomial_sums(lifted, binomials, n - R)
                            h0, h1, h2, h3 = pascal[R + 1][:4]
                            th = 0
                    for _ in range(R - at):
                        g3 += g2
                        g2 += g1
                        g1 += g0
                        h3 += h2
                        h2 += h1
                        h1 += h0
                    at = R
                    x, y = pascal[R - p], pascal[R - q]
                    d1, d2, d3, d4 = x[1] - y[1], x[2] - y[2], x[3] - y[3], x[4] - y[4]
                    best = _pair_family(
                        g0 + tg * d1, g1 + tg * d2, g2 + tg * d3, g3 + tg * d4,
                        h0 + th * d1, h1 + th * d2, h2 + th * d3, h3 + th * d4,
                        q, end, r - q, pascal, best, winners, (q, path),
                    )
                    leaves += end - q + 1
                continue
            ell, sums = len(lifted), None
            for q in range(split, first - 1, -1):
                end = min((r - q) // 2, r - q - d - 3)
                R = r - q - end + 2
                if sums is None:
                    sums, at = _binomial_sums(lifted, binomials, n - R), R
                for _ in range(R - at):
                    _pascal_up(sums)
                at = R
                ws = [
                    [g + v[-1] * (b - c) for g, b, c in zip(gs, pascal[R - p][1:], pascal[R - q][1:])]
                    for v, gs in zip(lifted, sums)
                ]
                ws += _binomial_paths(pascal[R + ell], ell, k)
                best = _chain_family(ws, q, end, r - q, pascal, best, winners, (q, path))
                leaves += end - q + 1
            continue
        lifted, total = _row_step(counts)
        sums = list(accumulate(lifted))
        tc, c0, c1 = sum(lifted), sum(sums), sum(accumulate(sums))
        if not p:  # the root's first child puts one part on it
            tc += total
            c0 += tc
            c1 += c0
        kids = []
        for q in range(first, split + 1):
            grown = lifted + [total] * (q - p)
            # strict, so a subtree that can tie the best is still scored
            if sum(map(mul, grown, bounds[r - q][q])) >= best:
                end = min((r - q) // 2, r - q - d - 3)
                best = _family(tc, c0, c1, q, end, r - q, best, winners, (q, path))
                leaves += end - q + 1
                if q <= deep:
                    kids.append(((q, path), grown, q, d + 1, r - q))
            tc += total
            c0 += tc
            c1 += c0
        # the smallest q is popped first
        stack += reversed(kids)
    winners += [conjugate(Partition(parts)).parts for parts in winners if parts[0] > len(parts)]
    return best, winners, leaves


def _bound_table(n: int) -> list[list[list[int]]]:
    """B[r][p][y], 0 <= y <= p <= r // 2, r <= n: an upper bound on
    A_nu(y), the fillings y <= v_1 <= ... <= v_m with v_i <= nu_i, over
    every nu |- r with parts at least max(p, 1), read from the smallest
    (see ``_scan_maxima``).  Row r takes the max over the bottom part q
    from r // 2 down, so B[r][p] is the running max once q = p, and
    p = 0 admits the parts p = 1 does."""
    table = []
    for r in range(n + 1):
        # r - y + 1, the fillings of the one-part nu = (r)
        bound = list(range(r + 1, r - r // 2, -1))
        rows = []
        for q in range(r // 2, 0, -1):
            # B[r - q][q], or the one-part (r - q) where no second part fits
            above = table[r - q][q] if 3 * q <= r else range(r - q + 1, r - 2 * q, -1)
            sums = list(accumulate(reversed(above)))
            bound = list(map(max, sums[::-1], bound))
            rows.append(bound)
        rows.append(bound[:1])
        table.append(rows[::-1])
    return table


def _binomial_sums(lifted: list[list[int]], binomials: list[list[int]], at: int) -> list[list[int]]:
    """G_{s,j}(R) = sum_y lifted[s][y] C(R - y, j), j = 0..k+1, at
    R = n - at: dot products with the scan's table,
    binomials[j][at + y + k - 1] = C(R - y, j)."""
    width = len(lifted[0])
    return [[sum(map(mul, v, b[at : at + width])) for b in binomials] for v in lifted]


def _pascal_up(ws: list[list[int]]) -> None:
    """Move every vector of binomial sums in ``ws`` from R to R + 1 in
    place: Pascal's rule C(m + 1, j) = C(m, j) + C(m, j - 1) adds the old
    w[j - 1] to each w[j], j >= 1, and w[0] stays."""
    for w in ws:
        w[1:] = map(add, w[1:], w)


def _binomial_paths(row: list[int], ell: int, k: int) -> list[list[int]]:
    """The family vectors of the sources ell..k-1 that a node with ell
    lifted vectors has not started, in the family of one of its children,
    from row = C(R + ell, .) for that family's first leaf: slices of the
    row shifted right by s - ell (see ``_scan_maxima``)."""
    return [[0] * (s - ell) + row[: k + ell + 2 - s] for s in range(ell, k)]


def _chain_family(
    ws: list[list[int]],
    part: int,
    last: int,
    rest: int,
    pascal: list[list[int]],
    best: int,
    winners: list[tuple[int, ...]],
    path,
) -> int:
    """Score the k >= 3 leaves that put one part q, part <= q <= last, over
    the linked ``path`` of a node and all of top = rest - q on top, from
    last down, given the family vectors ``ws`` of the k chain paths at
    q = last: leaf q's Gessel-Viennot matrix is
    e(s, t) = ws[s][t + 2] - ws[s][0] C(top + 1 - q, t + 2), and one Pascal
    step of every vector moves to q - 1.  Records winners as ``_keep``
    does and returns the new best; ``ws`` is used up."""
    for q in range(last, part - 1, -1):
        top = rest - q
        tail = pascal[top + 1 - q][2:]
        value = _leading_minors([[a - w[0] * c for a, c in zip(w[2:], tail)] for w in ws])[-1]
        if value >= best:
            best = _keep(value, best, winners, top, (q, path))
        _pascal_up(ws)
    return best


def _pair_family(
    a0: int,
    a1: int,
    a2: int,
    a3: int,
    b0: int,
    b1: int,
    b2: int,
    b3: int,
    part: int,
    last: int,
    rest: int,
    pascal: list[list[int]],
    best: int,
    winners: list[tuple[int, ...]],
    path,
) -> int:
    """``_chain_family`` at k = 2, on the two family vectors a and b at
    q = last held as ints: leaf q counts ad - bc over
    e(s, t) = w_s[t + 2] - w_s[0] C(rest + 1 - 2q, t + 2), and one Pascal
    step, top-down, moves a and b to q - 1."""
    for q in range(last, part - 1, -1):
        cut = pascal[rest + 1 - 2 * q]
        c2, c3 = cut[2], cut[3]
        value = (a2 - a0 * c2) * (b3 - b0 * c3) - (a3 - a0 * c3) * (b2 - b0 * c2)
        if value >= best:
            best = _keep(value, best, winners, rest - q, (q, path))
        a3 += a2
        a2 += a1
        a1 += a0
        b3 += b2
        b2 += b1
        b1 += b0
    return best


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


def find_maximizers(n: int, k: int = 1, cap: int = DEFAULT_SCAN_CAP) -> MaximizerReport:
    """Scan the partitions of n and report all maximizers of the weak
    k-chain count (the subpartition count when k = 1).

    Refuses upfront, through ``check_scan``; nothing partial is kept.
    """
    check_scan(n, k, cap)
    best, winners, _ = _scan_maxima(n, k)
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

    The widest profile window over the partitions of n is n + 1, that of
    (n), so the first cap, one column wider, keeps every count the scan
    makes inside a chain count's own cap.  p is increasing, so tabulating
    it stops at the first value past cap.
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
