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
ordinary node of it.  At k = 1, ``_scan_bounded`` is a branch and bound:
four running sums walk each family by second differences, and a table
of upper bounds on what the rows still to be placed can contribute
(``_bound_table``) lets a node skip each child whose subtree cannot
reach the best count found so far, and stop testing children once one
bound, taken at the node, puts every later child below that best; ties
are never skipped, and from n = 20 the best starts at the count of the
partition read off Vershik's limit curve.  At k >= 2,
``_scan_chains`` scores every leaf as the determinant of its k x k
Gessel-Viennot matrix, from binomial sums it moves from leaf to leaf by
Pascal's rule.  At k = 2 that is ad - bc per leaf on eight ints per
node, with no list built per family or leaf, and a child none of whose
children has grandchildren is not pushed: its parent derives the
child's eight sums in O(1) ints and scores the child's families on the
spot.  Nothing is materialized but the winners.  The scan runs in one
process, and ``check_scan`` refuses an oversized n or k before any of its
work.
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
    _weak_chains,
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

# ``_scan_bounded`` seeds its best count only from n = 20 on.  Per scan,
# the best of 7 rounds of 50 in process on a shared 2-core Xeon (Python
# 3.11.7), seeded against unseeded: 42 against 26 us at n = 8, 192
# against 183 us at n = 18, 233 against 236 us at n = 20 and 388 against
# 419 us at n = 24; ``verify --level fast`` runs 44 of its 45 k = 1
# scans below n = 20
_SEED_FROM = 20


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
        best, leaves = _scan_bounded(n, last, best, winners)
    else:
        best, leaves = _scan_chains(n, k, last, best, winners)
    winners += [conjugate(Partition(parts)).parts for parts in winners if parts[0] > len(parts)]
    return best, winners, 1 + max(0, last) + leaves


def _scan_bounded(n: int, last: int, best: int, winners: list[tuple[int, ...]]) -> tuple[int, int]:
    """The k = 1 kernel of ``_scan_maxima``: score the root's family, then
    walk the tree by branch and bound (Land and Doig, Econometrica 28,
    1960); returns the new best and the number of leaves scored below the
    root's children.

    A node's row counts (``_row_step``) lift to L with total T, and child
    q lifts L + [T] * (q - p); the node's leaf has sum(L) + (r - p) T
    subpartitions.  Write tc, c0 and c1 for the total and sum of child q's
    lifted vector and the sum of its prefix sums: at q = p they are
    sum(L), sum(accumulate(L)) and sum(accumulate(accumulate(L))), and one
    more part appends T to the child's vector, which adds T to tc, the new
    tc to c0 and the new c0 to c1.  By the same rule, a family node of
    total T' whose leaf q' lifts to total t and sum c gives that leaf the
    count V(q') = c + (rest - 2q') t, so
    V(q' + 1) - V(q') = T' (rest - 2q' - 1) - t, a step that falls by 3T' a
    part: 2T' as rest - 2q' shrinks and T' as t grows.  Child q's family,
    with rest = r - q, is thus walked by second differences (``_family``)
    from T' = tc, t = c0 and c = c1 at q' = q.  The root is a part 1 filled
    with 0, counts [1, 0], which bounds no row above it; its own family
    has T' = 1, t = 2 and c = 3, as its leaf q' = 1 lifts [1, 1] to [1, 2].

    Child q's row counts grown = L + [T] * (q - p) count at y the fillings
    of the rows up to q that put y in row q.  Every leaf below the child
    stacks some nu |- r - q with parts at least q on that row, read from
    the smallest, nu_1 <= ... <= nu_m, and counts
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
    which raises best early.

    A child that fails its test can end the loop.  The node's own counts
    give grown[v] = sum_{y <= min(v, p)} counts[y], so child q' tests
    sum_y counts[y] sum_{v=y}^{q'} B[r - q'][q'][v], and as B[r][q] takes
    the max of those inner sums over every q' >= q, the test of each child
    q' >= q is at most U(q) = sum_y counts[y] B[r][q][y].  So once a child
    q fails and U(q) < best, no later child passes, and the loop breaks.
    Only tests are skipped: the pops and leaves are those of the full loop.

    Before the walk, best is raised to the count of one partition of n
    read off Vershik's curve, which the paper proves the maximizers
    approach (``_seed``); at 20 <= n <= 100 it is 0.85 to 1.0 of the
    largest count M(n).  The seed counts a leaf, or a leaf's conjugate, so
    best <= M(n) still, every ancestor of a winner has a bound of at least
    M(n) and passes the test, which keeps ties, and the winners are those
    of the unseeded walk.  The winners found before the seed are dropped
    only when the seed is larger, as they then count less than best.
    """
    best = _family(1, 2, 3, 1, last, n, best, winners, None)
    seed = _seed(n)
    if seed > best:
        winners.clear()
        best = seed
    bounds, leaves = _bound_table(n), 0
    # a node: its path, the counts of its top row, its largest part, its
    # number of parts, the rest of n
    stack = [(None, [1, 0], 1, 0, n)]
    while stack:
        path, counts, p, d, r = stack.pop()
        split = min(r // 3, (r - d - 3) // 2)
        deep = min(split, r // 4, (r - d - 4) // 3)
        lifted, total = _row_step(counts)
        sums = list(accumulate(lifted))
        tc, c0, c1 = sum(lifted), sum(sums), sum(accumulate(sums))
        kids = []
        for q in range(p, split + 1):
            grown = lifted + [total] * (q - p)
            # strict, so a subtree that can tie the best is still scored
            if sum(map(mul, grown, bounds[r - q][q])) >= best:
                end = min((r - q) // 2, r - q - d - 3)
                best = _family(tc, c0, c1, q, end, r - q, best, winners, (q, path))
                leaves += end - q + 1
                if q <= deep:
                    kids.append(((q, path), grown, q, d + 1, r - q))
            elif sum(map(mul, counts, bounds[r][q])) < best:
                # U(q) bounds the test of every later child
                break
            tc += total
            c0 += tc
            c1 += c0
        # the smallest q is popped first
        stack += reversed(kids)
    return best, leaves


def _seed(n: int) -> int:
    """The subpartition count of the partition of n read off Vershik's
    curve (``_curve_parts``), a lower bound on the best count that
    ``_scan_bounded`` starts from; 0 below ``_SEED_FROM``."""
    if n < _SEED_FROM:
        return 0
    return _weak_chains(_curve_parts(n), 1)[0]


def _curve_parts(n: int) -> tuple[int, ...]:
    """The partition of n nearest Vershik's curve: row i, 1 <= i <= n, is
    the curve's row length at height i - 1/2 (``_curve_rows``) scaled so
    that the rows sum to n, floored, and the boxes left over go one each
    to the rows with the largest remainders; the rows are then sorted and
    zeros dropped."""
    lengths = _curve_rows(n, [i - 0.5 for i in range(1, n + 1)])
    scale = n / sum(lengths)
    scaled = [scale * f for f in lengths]
    rows = [int(f) for f in scaled]
    spare = n - sum(rows)
    for i in sorted(range(n), key=lambda i: rows[i] - scaled[i])[:spare]:
        rows[i] += 1
    return tuple(sorted(filter(None, rows), reverse=True))


def _curve_rows(n: int, at: list[float]) -> list[float]:
    """Vershik's limit curve for partitions of n, e^(-c a) + e^(-c f) = 1
    with c = pi / sqrt(6 n): the length f(a) = -log(1 - e^(-c a)) / c of
    the row at height a, for each a in ``at``."""
    c = math.pi / math.sqrt(6 * n)
    return [-math.log1p(-math.exp(-c * a)) / c for a in at]


def _scan_chains(n: int, k: int, last: int, best: int, winners: list[tuple[int, ...]]) -> tuple[int, int]:
    """The k >= 2 kernel of ``_scan_maxima``: score the root's family, then
    every leaf of the tree; returns the new best and the number of leaves
    scored below the root's children.  The walk is exhaustive: the bounds
    tried at k >= 2 ignore the determinant's cancellation and prune almost
    nothing.

    A leaf's count is the determinant of its k x k Gessel-Viennot matrix,
    the one ``counting._chain_matrix`` joins at lam_1's strip (c = 1),
    with the sink weights C(r - x, t) in closed form: every node lifts the
    row-DP vectors of its chain paths (``counting._lift``), starting one
    more path while it has fewer than k parts, and a child gets them
    extended by their last entries.

    Child q's lifted vectors V_s end in U_s, and its family puts one more
    part q' on it and leaves top = r - q - q' on top.  The hockey-stick
    identity carries V_s + [U_s] * (q' - q) through the leaf's row:
    e(s, t) = w_s[t + 2] - U_s C(top + 1 - q', t + 2), where
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
    (``_binomial_paths``).  In the root's family every source is binomial,
    w_s[j] = C(R, j - s) at R = n - last + 2.

    At k = 2 all of this is local ints, eight per node: the sums G_{s,j},
    s = 0, 1 and j = 0..3, at one base, moved to each family's R
    (``_pair_families``).  Child q takes the four differences
    C(R - p, j + 1) - C(R - q, j + 1) once for both paths, and
    ``_pair_family`` walks the family on the two vectors' eight ints,
    ad - bc per leaf.  No list is built per family or leaf.  The root
    starts both paths, [[0, 1], [1, -1]]: one lift makes the second
    [1, 0], whose sums are C(R + 1, j) with total 0, and a child extends
    it by zeros and lifts it to the ones ``_lift`` starts there.

    Only the nodes whose children have grandchildren are pushed at
    k = 2: child q pushes a child of its own only if q <= (r - q) // 4 and
    q <= (r - q - d - 5) // 3, and the children up to deep past that are
    scored by their parent (106 of the 186 nodes with grandchildren at
    n = 28, 1,966 of 3,203 at n = 45).  A pushed node takes its sums at
    base n for j = 0..4, as sum(L_s) and four dot products with the
    table's columns C(n - x, j) (``_binomial_sums`` now serves k >= 3
    only).  Child q lifts L_s + [T_s] * (q - p), so by the hockey-stick
    identity its sums are
    G'_{s,j}(n) = G_{s,j+1}(n) + G_{s,j}(n)
    + T_s (C(n + 1 - p, j + 2) - C(n + 1 - q, j + 2)) - T'_s C(n - q, j + 1),
    j = 0..3, with totals T'_s = G_{s,0}(n) + (q - p) T_s: O(1) ints a
    child (``_child_sums``), from which its families are walked just as
    the node's own are.
    """
    # pascal[m][j] = C(m, j); binomials holds, for each j in columns, the
    # column C(R - x, j) at index n - R + x + k - 1: j = 1..4 at k = 2, read
    # at R = n only, and j = 0..k+1 at k >= 3
    pascal = [[math.comb(m, j) for j in range(k + 4)] for m in range(n + k)]
    columns = range(1, 5) if k == 2 else range(k + 2)
    binomials = [[row[j] for row in reversed(pascal)] for j in columns]
    if last > 0:
        ws = _binomial_paths(pascal[n - last + 2], 0, k)
        if k == 2:
            best = _pair_family(*ws[0], *ws[1], 1, last, n, pascal, best, winners, None)
        else:
            best = _chain_family(ws, 1, last, n, pascal, best, winners, None)
    leaves = 0
    # a node: its path, the counts of its top row for each chain path
    # started below it, its largest part, its number of parts, the rest of n
    stack = [(None, [[0, 1], [1, -1]] if k == 2 else [[0] * (k - 1) + [1]], 0, 0, n)]
    while stack:
        path, counts, p, d, r = stack.pop()
        first = p or 1
        split = min(r // 3, (r - d - 3) // 2)
        deep = min(split, r // 4, (r - d - 4) // 3)
        # at k = 2 a child is pushed only if it pushes a child of its own:
        # q <= (r - q) // 4 and q <= (r - q - d - 5) // 3
        push = min(deep, r // 5, (r - d - 5) // 4) if k == 2 else deep
        lifted = _lift(counts, p, k)
        for q in range(first, push + 1):
            stack.append(((q, path), [v + [v[-1]] * (q - p) for v in lifted], q, d + 1, r - q))
        if k > 2:
            # each child with children, first <= q <= split, brings the family
            # of its children's leaves, taken from the last, so that R never falls
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
        elif split >= first:
            # the node's sums at base n and its own families, then, for each
            # child with grandchildren that is not pushed, that child's
            # families from sums derived here (only the root of n < 5 has
            # no child with children, and it takes no sums)
            a, b = lifted
            g = (sum(a), *[sum(map(mul, a, column)) for column in binomials])
            h = (sum(b), *[sum(map(mul, b, column)) for column in binomials])
            best, found = _pair_families(g, h, a[-1], b[-1], p, d, r, n, pascal, best, winners, path)
            leaves += found
            for q in range(max(first, push + 1), deep + 1):
                best, found = _pair_families(
                    *_child_sums(g, h, a[-1], b[-1], p, q, n, pascal),
                    q, d + 1, r - q, n, pascal, best, winners, (q, path),
                )
                leaves += found
    return best, leaves


def _child_sums(
    g: tuple[int, ...],
    h: tuple[int, ...],
    tg: int,
    th: int,
    p: int,
    q: int,
    base: int,
    pascal: list[list[int]],
) -> tuple[tuple[int, int, int, int], tuple[int, int, int, int], int, int]:
    """The sums of child q of a k = 2 node with largest part p, from the
    node's: given G_{s,j}(base), j = 0..4, of the node's two lifted
    vectors (g and h) and their totals tg and th, the child's G'_{s,j}(base),
    j = 0..3, and its totals T'_s = G_{s,0} + (q - p) T_s, in the order
    ``_pair_families`` takes them.  The child lifts L_s + [T_s] * (q - p),
    so the hockey-stick identity gives
    G'_{s,j} = G_{s,j+1} + G_{s,j} + T_s (C(base + 1 - p, j + 2)
    - C(base + 1 - q, j + 2)) - T'_s C(base - q, j + 1)."""
    x, y, z = pascal[base + 1 - p], pascal[base + 1 - q], pascal[base - q]
    e2, e3, e4, e5 = x[2] - y[2], x[3] - y[3], x[4] - y[4], x[5] - y[5]
    z1, z2, z3, z4 = z[1], z[2], z[3], z[4]
    g0, g1, g2, g3, g4 = g
    h0, h1, h2, h3, h4 = h
    ug, uh = g0 + (q - p) * tg, h0 + (q - p) * th
    return (
        (
            g1 + g0 + tg * e2 - ug * z1,
            g2 + g1 + tg * e3 - ug * z2,
            g3 + g2 + tg * e4 - ug * z3,
            g4 + g3 + tg * e5 - ug * z4,
        ),
        (
            h1 + h0 + th * e2 - uh * z1,
            h2 + h1 + th * e3 - uh * z2,
            h3 + h2 + th * e4 - uh * z3,
            h4 + h3 + th * e5 - uh * z4,
        ),
        ug,
        uh,
    )


def _pair_families(
    g: tuple[int, ...],
    h: tuple[int, ...],
    tg: int,
    th: int,
    p: int,
    d: int,
    r: int,
    base: int,
    pascal: list[list[int]],
    best: int,
    winners: list[tuple[int, ...]],
    path,
) -> tuple[int, int]:
    """Score the families of a k = 2 node's children with children (see
    ``_scan_chains``), given the sums G_{s,j}(base), j = 0..3, of its two
    lifted vectors (g and h, each at least four long) and their totals tg
    and th; returns the new best and the number of leaves scored.  The
    children are taken from the last, whose first leaf has the lowest R:
    Vandermonde's identity C(R - x, j) = sum_i C(m, i) C(base - x, j - i),
    m = R - base, exact with C(m, i) = m (m - 1) ... (m - i + 1) / i! for
    m < 0, moves the sums to that R, and Pascal's rule moves them up:
    R = max((r - q + 1) // 2, d + 3) + 2 rises by at most one a family."""
    first = p or 1
    split = min(r // 3, (r - d - 3) // 2)
    at = r - split - min((r - split) // 2, r - split - d - 3) + 2
    m = at - base
    c2 = m * (m - 1) // 2
    c3 = c2 * (m - 2) // 3
    g0, g1, g2, g3 = g[:4]
    h0, h1, h2, h3 = h[:4]
    g1, g2, g3 = g1 + m * g0, g2 + m * g1 + c2 * g0, g3 + m * g2 + c2 * g1 + c3 * g0
    h1, h2, h3 = h1 + m * h0, h2 + m * h1 + c2 * h0, h3 + m * h2 + c2 * h1 + c3 * h0
    leaves = 0
    for q in range(split, first - 1, -1):
        end = min((r - q) // 2, r - q - d - 3)
        R = r - q - end + 2
        if R > at:
            g1, g2, g3 = g1 + g0, g2 + g1, g3 + g2
            h1, h2, h3 = h1 + h0, h2 + h1, h3 + h2
            at = R
        x, y = pascal[R - p], pascal[R - q]
        d1, d2, d3, d4 = x[1] - y[1], x[2] - y[2], x[3] - y[3], x[4] - y[4]
        best = _pair_family(
            g0 + tg * d1, g1 + tg * d2, g2 + tg * d3, g3 + tg * d4,
            h0 + th * d1, h1 + th * d2, h2 + th * d3, h3 + th * d4,
            q, end, r - q, pascal, best, winners, (q, path),
        )
        leaves += end - q + 1
    return best, leaves


def _bound_table(n: int) -> list[list[list[int]]]:
    """B[r][p][y], 0 <= y <= p <= r // 2, r <= n: an upper bound on
    A_nu(y), the fillings y <= v_1 <= ... <= v_m with v_i <= nu_i, over
    every nu |- r with parts at least max(p, 1), read from the smallest
    (see ``_scan_bounded``).  Row r takes the max over the bottom part q
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
    R = n - at, for k >= 3: dot products with the scan's table,
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
    row shifted right by s - ell (see ``_scan_chains``)."""
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
    T: int,
    t: int,
    c: int,
    part: int,
    last: int,
    rest: int,
    best: int,
    winners: list[tuple[int, ...]],
    path,
) -> int:
    """Score the leaves that put one part q, part <= q <= last, over the
    linked ``path`` of a family node and all of rest - q on top, given the
    total T of the node's lifted vector (T' in ``_scan_bounded``) and the
    total t and sum c of the lifted vector of its first leaf, q = part;
    records winners as ``_keep`` does and returns the new best.  Each leaf
    costs two additions and a comparison."""
    value = c + (rest - 2 * part) * t
    step = T * (rest - 2 * part - 1) - t
    fall = 3 * T
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
