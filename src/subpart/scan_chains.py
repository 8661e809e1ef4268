"""The k >= 2 kernel of the maximizer scan, imported by the branch of
``maximizer._scan_maxima`` that runs it.

``_scan_chains`` scores every leaf as the determinant of its k x k
Gessel-Viennot matrix, from binomial sums it moves from leaf to leaf by
Pascal's rule.  At k = 2 that is ad - bc per leaf on eight ints per
node, with no list built per family or leaf, and a child none of whose
children has grandchildren is not pushed: its parent derives the
child's eight sums in O(1) ints and scores the child's families on the
spot.
"""

from __future__ import annotations

import math
from operator import add, mul

from .counting import _leading_minors, _lift
from .maximizer import _keep


def _scan_chains(
    n: int, k: int, last: int, best: int, winners: list[tuple[int, ...]]
) -> tuple[int, int, int]:
    """The k >= 2 kernel of ``_scan_maxima``: score the root's family, then
    every leaf of the tree; returns the new best, the number of leaves
    scored below the root's children and the number of nodes popped.  The
    walk is exhaustive: the bounds tried at k >= 2 ignore the
    determinant's cancellation and prune almost nothing.

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
    table's columns C(n - x, j).  Child q lifts L_s + [T_s] * (q - p), so
    by the hockey-stick identity its sums are
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
    leaves = pops = 0
    # a node: its path, the counts of its top row for each chain path
    # started below it, its largest part, its number of parts, the rest of n
    stack = [(None, [[0, 1], [1, -1]] if k == 2 else [[0] * (k - 1) + [1]], 0, 0, n)]
    while stack:
        path, counts, p, d, r = stack.pop()
        pops += 1
        first = p or 1
        # each limit is the smaller of two terms, compared inline, not by a
        # call of min(); push <= deep <= split needs no third term, as
        # r - d >= 1 at every node and so each term is at most the one
        # before: r // 5 <= r // 4 <= r // 3, and
        # (r - d - 5) // 4 <= (r - d - 4) // 3 <= (r - d - 3) // 2
        split, cap = r // 3, (r - d - 3) // 2
        if cap < split:
            split = cap
        deep, cap = r // 4, (r - d - 4) // 3
        if cap < deep:
            deep = cap
        if k == 2:
            # a child is pushed only if it pushes a child of its own:
            # q <= (r - q) // 4 and q <= (r - q - d - 5) // 3
            push, cap = r // 5, (r - d - 5) // 4
            if cap < push:
                push = cap
        else:
            push = deep
        lifted = _lift(counts, p, k)
        for q in range(first, push + 1):
            stack.append(((q, path), [v + [v[-1]] * (q - p) for v in lifted], q, d + 1, r - q))
        if k > 2:
            # each child with children, first <= q <= split, brings the family
            # of its children's leaves, taken from the last, so that R never falls
            ell, sums = len(lifted), None
            for q in range(split, first - 1, -1):
                end, cap = (r - q) // 2, r - q - d - 3
                if cap < end:
                    end = cap
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
    return best, leaves, pops


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
    split, cap = r // 3, (r - d - 3) // 2
    if cap < split:
        split = cap
    end, cap = (r - split) // 2, r - split - d - 3
    at = r - split - (end if end < cap else cap) + 2
    m = at - base
    c2 = m * (m - 1) // 2
    c3 = c2 * (m - 2) // 3
    g0, g1, g2, g3 = g[:4]
    h0, h1, h2, h3 = h[:4]
    g1, g2, g3 = g1 + m * g0, g2 + m * g1 + c2 * g0, g3 + m * g2 + c2 * g1 + c3 * g0
    h1, h2, h3 = h1 + m * h0, h2 + m * h1 + c2 * h0, h3 + m * h2 + c2 * h1 + c3 * h0
    leaves = 0
    for q in range(split, first - 1, -1):
        end, cap = (r - q) // 2, r - q - d - 3
        if cap < end:
            end = cap
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
