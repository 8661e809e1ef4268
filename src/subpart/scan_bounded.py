"""The k = 1 kernel of the maximizer scan, imported by the branch of
``maximizer._scan_maxima`` that runs it.

``_scan_bounded`` is a branch and bound: four running sums walk each
family by second differences (``_family``), and a table of upper bounds
on what the rows still to be placed can contribute (``_bound_table``)
lets a node skip each child whose subtree cannot reach the best count
found so far, and stop testing children once one bound, taken at the
node, puts every later child below that best; ties are never skipped,
and from n = 20 the best starts at the count of the partition read off
Vershik's limit curve (``_seed``).
"""

from __future__ import annotations

import math
from itertools import accumulate
from operator import mul

from .counting import _weak_chains
from .maximizer import _keep

# ``_scan_bounded`` seeds its best count only from n = 20 on.  Per scan,
# the best of 7 rounds of 50 in process on a shared 2-core Xeon (Python
# 3.11.7), seeded against unseeded: 42 against 26 us at n = 8, 192
# against 183 us at n = 18, 233 against 236 us at n = 20 and 388 against
# 419 us at n = 24; ``verify --level fast`` runs 44 of its 45 k = 1
# scans below n = 20
_SEED_FROM = 20


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
        # each limit is the smaller of two terms, compared inline: a call
        # of the builtin min() costs about three comparisons here; deep is
        # read only as q <= deep with q <= split, so split is not a term
        split, cap = r // 3, (r - d - 3) // 2
        if cap < split:
            split = cap
        deep, cap = r // 4, (r - d - 4) // 3
        if cap < deep:
            deep = cap
        lifted, total = _row_step(counts)
        sums = list(accumulate(lifted))
        tc, c0, c1 = sum(lifted), sum(sums), sum(accumulate(sums))
        kids = []
        for q in range(p, split + 1):
            grown = lifted + [total] * (q - p)
            # strict, so a subtree that can tie the best is still scored
            if sum(map(mul, grown, bounds[r - q][q])) >= best:
                end, cap = (r - q) // 2, r - q - d - 3
                if cap < end:
                    end = cap
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


def _row_step(counts: list[int]) -> tuple[list[int], int]:
    """One step of the row DP at a node of ``_scan_bounded``.

    ``counts[v]`` counts the fillings of the current row (length p) and the
    rows below it that put value v in the current row, 0 <= v <= p.
    Returns the prefix sums ``lifted`` and their total T.  A row of any
    length q >= p placed on top then has the counts
    ``lifted + [T] * (q - p)``, so one step serves every choice of q, and
    the partition capped by that row has ``sum(lifted) + (q - p) * T``
    subpartitions.
    """
    lifted = list(accumulate(counts))
    return lifted, lifted[-1]


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
            sums.reverse()
            bound = [s if s > b else b for s, b in zip(sums, bound)]
            rows.append(bound)
        rows.append(bound[:1])
        rows.reverse()
        table.append(rows)
    return table


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
