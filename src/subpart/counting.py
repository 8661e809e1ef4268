"""Exact counting of subpartitions, nested chains, and bridge paths.

Everything here is integer-exact (Python arbitrary precision).
Subpartitions and k-chains are counted by one route, ``_weak_chains``:
lam's k x k Gessel-Viennot matrix (``_chain_matrix``), whose minors
``_leading_minors`` takes, met in the middle.  A row DP over part values
carries the source paths up lam's bottom rows (``_lift``), the sink
weights come down its top rows by suffix sums (``_sinks``), and the two
meet at the row where the top rows hold half of lam's area (``_cut``),
so neither half adds integers as wide as the count.  When both halves
are large the sink half runs in one forked child while the row DP runs
here (``_in_two``, which also runs half of ``verify``'s checks); without
``os.fork``, or with other threads running, both halves run here, and
the result is the same.  The maximizer scan's k >= 2 kernel
(``scan_chains``) shares ``_lift`` and ``_leading_minors`` but builds
its own matrices in closed form.
A column DP over bridge paths below the profile counts subpartitions
through a different bijection; it and the reference implementations in
``subpart.oracles`` (among them chains enumerated up the containment
poset and the len(lam) x len(lam) binomial determinant) cross-check
the row route.  Bounds derived from the profile's convex
envelope are carried in log space.
"""

from __future__ import annotations

import marshal
import math
import os
import sys
from bisect import bisect_left
from functools import reduce
from itertools import accumulate, compress, count, islice
from operator import add, and_, gt, lt, mul, sub
from typing import Callable, Iterator, TypeVar

from .envelope import _interpolate, lower_hull
from .partitions import (
    DEFAULT_STATE_CAP,
    LatticeProfile,
    Partition,
    Record,
    ResourceLimitError,
)

ROW_DP = "row-dp"
BRIDGE_DP = "bridge-dp"
TRANSFER_CHAIN = "transfer-chain"
PENTAGONAL_ITERATIVE = "pentagonal-iterative"

_A = TypeVar("_A")
_B = TypeVar("_B")

# The fewest cells (k times the area of their rows) each half of a count
# must hold before ``_weak_chains`` runs the sink half in a forked child.
FORK_CELLS = 1 << 16


class CountResult(Record):
    """An exact count and the algorithm that produced it."""

    value: int
    method: str


def count_subpartitions(lam: Partition) -> CountResult:
    """Number of partitions whose diagram fits inside lam (lam and the
    empty partition included): the 1 x 1 Gessel-Viennot matrix of
    ``_weak_chains``, the row DP up to the half-area strip joined with
    the sink weights carried down to it."""
    return CountResult(_weak_chains(lam.parts, 1)[0], ROW_DP)


def count_bridges_below(prof: LatticeProfile) -> CountResult:
    """Number of +-1 paths gamma with |j| <= gamma(j) <= G(j) across the
    profile window, pinned to |j| at both ends, by a column DP.

    Each such bridge is the profile of a subpartition, so this must agree
    with the row DP.
    """
    ways = {abs(prof.lo): 1}
    for j, ceiling in zip(range(prof.lo + 1, prof.hi + 1), prof.heights[1:]):
        new: dict[int, int] = {}
        for h, c in ways.items():
            for h2 in (h - 1, h + 1):
                if abs(j) <= h2 <= ceiling:
                    new[h2] = new.get(h2, 0) + c
        ways = new
    return CountResult(ways.get(abs(prof.hi), 0), BRIDGE_DP)


def count_kchains(lam: Partition, k: int, strict: bool = False) -> CountResult:
    """Number of nested chains mu_k <= ... <= mu_1 <= lam of length k.

    Weak chains allow equal consecutive elements; strict mode forbids
    equality between consecutive chain elements only (the top containment
    in lam stays weak).  One elimination of lam's k x k Gessel-Viennot
    matrix (``_weak_chains``) gives the weak counts of every length up to
    k, and the strict count comes from them through the run-length
    binomial transform; it can legitimately be zero.

    Raises ResourceLimitError, before any DP work, when k^2 times the
    profile window lam_1 + len(lam), the one ``parse_partition`` caps (one
    column for the empty partition), exceeds ``DEFAULT_STATE_CAP``.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    width = max(1, sum(lam.parts[:1]) + len(lam.parts))
    if k * k * width > DEFAULT_STATE_CAP:
        raise ResourceLimitError(
            f"chain count for k={k}: k^2 times the window {width} exceeds cap {DEFAULT_STATE_CAP}"
        )
    weak = _weak_chains(lam.parts, k)
    value = weak[-1]
    if strict:
        value = sum((-1) ** (k - m) * math.comb(k - 1, m - 1) * w for m, w in enumerate(weak, 1))
    return CountResult(value, TRANSFER_CHAIN)


def _weak_chains(parts: tuple[int, ...], k: int) -> list[int]:
    """The weak m-chain counts below lam, m = 1..k: the leading minors of
    its Gessel-Viennot matrix, joined at the strip ``_cut`` picks from the
    row DP below it (``_walk``) and the sink weights above it
    (``_sinks``).  The empty partition is one row of length 0.

    The halves need only the cut, so when both hold at least
    ``FORK_CELLS`` cells (k times the area of their rows) the sink half
    runs in one forked child while this process walks (``_in_two``).
    Staircases at k = 1, cells per half, medians of 31 alternated runs on
    a shared 2-core host; fork plus transfer costs about 2 ms, and at 400
    the fork won 11/31 in another round:

    ========= ============== ========== ======= ==========
    staircase cells per half in process forked  fork won
    ========= ============== ========== ======= ==========
    300       22k            2.7 ms     3.2 ms  2/31
    400       40k            4.7 ms     3.8 ms  30/31
    500       62k            7.3 ms     6.1 ms  31/31
    700       122k           15.0 ms    11.0 ms 31/31
    1000      250k           24.0 ms    20.1 ms 31/31
    ========= ============== ========== ======= ==========
    """
    parts = parts or (0,)
    c = _cut(parts, k)
    p = parts[c] if c < len(parts) else 0
    bottom, top = parts[c - 1 :], parts[:c]
    if k * min(sum(parts[: c - 1]), sum(parts[c:])) >= FORK_CELLS:
        vectors, (cols, tails) = _in_two(lambda: _walk(bottom, k), lambda: _sinks(top, p, k))
    else:
        vectors, (cols, tails) = _walk(bottom, k), _sinks(top, p, k)
    return _leading_minors(_chain_matrix(vectors, cols, tails, parts[0]))


def _in_two(here: Callable[[], _A], there: Callable[[], _B]) -> tuple[_A, _B]:
    """``(here(), there())`` at once: ``there()`` runs in one forked child
    that sends its value, which must be marshal-able, back through a pipe
    as marshal bytes and always leaves by ``os._exit``, so it never
    flushes this process's stdio buffers.  Without ``os.fork``, in a
    process running more than one thread (the child gets a copy of locks
    that other threads may hold, and Python 3.12+ warns of the fork), when
    the pipe or the fork fails, or when the child does not exit 0,
    ``there()`` runs here, so the result never depends on the child.  The
    child is reaped before this returns or raises; if ``here()`` raises,
    it is killed first.  Should this process be killed instead, the child
    finishes ``there()`` and exits when its write to the pipe fails."""
    # a process that never imported threading started no thread through it
    threading = sys.modules.get("threading")
    if threading is not None and threading.active_count() > 1:
        return here(), there()
    fds = ()
    try:
        fds = os.pipe()
        pid = os.fork()
    except (AttributeError, OSError):  # no os.fork on this platform
        for fd in fds:
            os.close(fd)
        return here(), there()
    read, write = fds
    if pid == 0:
        status = 1
        try:
            os.close(read)
            with open(write, "wb") as pipe:
                pipe.write(marshal.dumps(there()))
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    try:
        with open(read, "rb") as pipe:
            mine = here()
            data = pipe.read()
    except BaseException:
        os.kill(pid, 9)  # SIGKILL, whose number POSIX fixes
        raise
    finally:
        status = os.waitpid(pid, 0)[1]
    if status:
        return mine, there()
    return mine, marshal.loads(data)


def _cut(parts: tuple[int, ...], k: int) -> int:
    """The strip c, 1 <= c <= max(1, len(lam) - k + 1), at which
    ``_weak_chains`` joins its two halves: the first row where lam's top
    rows hold half its area, so both halves carry integers about half as
    wide as the count; at most len(lam) - k + 1, so every source lies
    below the cut."""
    tops = list(accumulate(parts))
    c = bisect_left(tops, (tops[-1] + 1) // 2) + 1
    return max(1, min(c, len(parts) - k + 1))


def _walk(parts: tuple[int, ...], k: int) -> list[list[int]]:
    """Carry ``_lift`` up the rows of ``parts`` below the top one, from the
    bottom: the lifted vectors of the top row's strip."""
    vectors, p = [[0] * (k - 1) + [1]], 0
    for q in reversed(parts[1:]):
        vectors = _lift(vectors, p, k)
        for v in vectors:
            v += [v[-1]] * (q - p)
        p = q
    return _lift(vectors, p, k)


def _lift(vectors: list[list[int]], p: int, k: int) -> list[list[int]]:
    """One row of the row DP at a node with s placed parts, the last of
    them p: the prefix sums of the vectors of the paths started so far,
    plus, when 0 < s < k, path s started with ones on -s..p (s is then
    len(vectors)).  Vectors start at x = 1 - k."""
    lifted = [list(accumulate(v)) for v in vectors]
    s = len(lifted)
    if p and s < k:
        lifted.append([0] * (k - 1 - s) + [1] * (p + s + 1))
    return lifted


def _sinks(top: tuple[int, ...], p: int, k: int) -> tuple[list[list[int]], list[int]]:
    """The sink weights at the strip of lam_c, given lam's top c rows
    ``top``: H_t[x] paths lead from crossing that strip at x to sink t.
    Returns cols[t][x + k - 1] = H_t[x] for 1 - k <= x <= p and
    tails[t], the sum of H_t[x] over p < x <= lam_c.

    On lam_1's strip H_t[x] = C(r - x, t), r = lam_1, and by Pascal's
    rule each t > 0 column is the running sum of the one before it.  When
    that strip is the cut (c = 1) its columns stop at p, and the tail
    sums are C(r - p, t + 1), so a one-row lam builds no r-long column;
    otherwise they start at r.  Below, H_t[x] sums the weights of the
    strip above over x <= x' <= its part, so each row down is a suffix
    sum, truncated at that row's part, of a list kept in descending x."""
    r = top[0]
    hi = r if len(top) > 1 else p
    # H_t[x] for x = hi, hi - 1, ..., 1 - k
    hs = [[1] * (hi + k)]
    for t in range(1, k):
        hs.append(list(accumulate(hs[-1][:-1], initial=math.comb(r - hi, t))))
    if len(top) == 1:
        return [h[::-1] for h in hs], [math.comb(r - p, t + 1) for t in range(k)]
    for q in top[1:]:
        hs = [list(accumulate(h))[hi - q :] for h in hs]
        hi = q
    cut = hi - p
    return [h[cut:][::-1] for h in hs], [sum(h[:cut]) for h in hs]


def _chain_matrix(
    vectors: list[list[int]], cols: list[list[int]], tails: list[int], r: int
) -> list[list[int]]:
    """lam's k x k Gessel-Viennot matrix, k = len(cols), r = lam_1,
    joined at the strip of lam_c (``_cut``): the lifted ``vectors`` of
    the rows below lam_c, the last of them p, count the paths from the
    sources up to that strip, and cols and tails (``_sinks``) those from
    it to the sinks.  Its leading m x m minor counts the weak m-chains
    below lam (Gessel and Viennot, Adv. Math. 58, 1985).

    Put lam_i in the strip i - 1 <= y <= i, l = len(lam).  A partition mu
    with at most l parts is the path of right and down steps from (0, l)
    to (r, 0) that crosses the strip of lam_i at x = mu_i, and mu <= lam
    exactly when every vertex (x, y) of the path with y >= 1 has
    x <= lam_y: the region R.  Path t, mu_{t+1}'s moved by (-t, -t), runs
    from source (-t, l - t) to sink (r - t, -t) and stays in R, as lam
    decreases.  At height y mu's path covers mu_{y+1} <= x <= mu_y
    (mu_0 = r, mu_{l+1} = 0), so when mu_{t+2} <= mu_{t+1} path t + 1 lies
    left of path t at every height, and otherwise the largest i with
    mu_{t+2,i} > mu_{t+1,i} puts (mu_{t+1,i} - t, i - 1 - t) on both: weak
    k-chains are the vertex-disjoint systems of paths 0..k-1 in R.
    Disjoint right-and-down paths cannot cross, so such a system joins
    source t to sink t, and the Lindstrom-Gessel-Viennot lemma counts them
    as det[e(s, t)], e(s, t) the paths in R from source s to sink t.  R
    does not depend on k, so the first m paths give the m x m minor.

    The row DP counts paths strip by strip, from lam_l up to lam_c: a
    vector's entry at x counts those crossing the current strip at x, its
    lifted entry those reaching column x below it, and a next strip of
    length q gets ``lifted + [T] * (q - p)``, T the total.  Source s < l
    sits below the strip of lam_{l-s+1}, the s-th part placed, where
    ``_lift`` starts it; c <= l - k + 1 keeps every source below the
    strip of lam_c.  From above, H_t[x] paths lead from crossing the strip
    of lam_i at x to sink t: C(r - x, t) at lam_1's strip, and the sum of
    the strip above's H_t[x'] over x <= x' <= lam_{i-1} at the next, so
    H_t descends from C(r - x, t) by suffix sums.  So e(s, t) is a dot
    product at strip c,
    e(s, t) = sum_{x <= p} lifted_s[x] H_t[x] + T_s sum_{p < x <= lam_c} H_t[x],
    and at c = 1 the tail sum is C(r - p, t + 1).  A source s >= l, only
    for k > l and so c = 1, starts below lam and meets no boundary:
    e(s, t) = C(r + l, l - s + t), or 0 when l - s + t < 0.
    """
    k = len(cols)
    rows = [
        [sum(map(mul, v, col)) + v[-1] * tail for col, tail in zip(cols, tails)]
        for v in vectors
    ]
    ell = len(rows)
    rows += [
        [math.comb(r + ell, ell - s + t) if ell - s + t >= 0 else 0 for t in range(k)]
        for s in range(ell, k)
    ]
    return rows


def _leading_minors(rows: list[list[int]]) -> list[int]:
    """The leading principal minors of a square matrix, 1 x 1 up to the
    determinant, as the pivots of fraction-free Bareiss elimination;
    every division is exact.  No row swaps: for ``_chain_matrix`` the
    pivot at step i, the leading (i + 1) x (i + 1) minor, counts the weak
    (i + 1)-chains below lam and is at least 1, the chain of empty
    partitions."""
    m, minors, prev = list(rows), [], 1
    for i in range(len(m)):
        pivot = m[i][i]
        for r in range(i + 1, len(m)):
            lead = m[r][i]
            m[r] = [(pivot * a - lead * b) // prev for a, b in zip(m[r], m[i])]
        minors.append(pivot)
        prev = pivot
    return minors


class EnvelopeBound(Record):
    """Upper bound exp(sum of growth rates along the profile's convex
    envelope), kept in log space; value is math.inf once the bound is
    past the largest float."""

    log_value: float
    value: float


def envelope_count_bound(prof: LatticeProfile) -> EnvelopeBound:
    """Bound on the number of bridges below the profile: each unit step of
    the envelope with slope s can contribute at most e^{growth_rate(s)}
    paths per unit length.  Envelope slopes stay in [-1, 1] because the
    profile's own steps are +-1.

    A +-1 path has no lower-hull vertex but its two ends and its valleys
    (a step down, then a step up: lam's inner corners), and the cross
    products of the hull scan are exact on integer-valued floats, so the
    scan takes those points alone and finds the hull of the whole window.
    ``_interpolate`` puts it back on the window, and the steps then run at
    C speed: one ``growth_rate`` per distinct step, summed step by step
    from 0.0 in window order.  The cell-by-cell route, which scans every
    point and prices every step, is ``oracles.envelope_count_bound_cells``.
    """
    from .ratefn import growth_rate

    h = prof.heights
    valleys = compress(count(1), map(and_, map(gt, h, h[1:]), map(lt, h[1:], h[2:])))
    corners = [0, *valleys, len(h) - 1] if len(h) > 1 else [0]
    hull = lower_hull([(prof.lo + i, float(h[i])) for i in corners])
    env = _interpolate(hull, prof.lo, prof.hi)
    steps = list(map(sub, env[1:], env))
    rate = {d: growth_rate(max(-1.0, min(1.0, d))) for d in set(steps)}
    # not sum(): from Python 3.12 it compensates float sums, changing bits
    log_value = reduce(add, map(rate.__getitem__, steps), 0.0)
    try:
        value = math.exp(log_value)
    except OverflowError:
        value = math.inf
    return EnvelopeBound(log_value=log_value, value=value)


def partition_count(n: int) -> CountResult:
    """p(n) by Euler's pentagonal-number recurrence, tabulated upward.

    Refuses n past ``DEFAULT_STATE_CAP`` before the table is built.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > DEFAULT_STATE_CAP:
        raise ResourceLimitError(f"p({n}) table exceeds cap {DEFAULT_STATE_CAP}")
    value = next(islice(_partition_numbers(), n, None))
    return CountResult(value, PENTAGONAL_ITERATIVE)


def _partition_numbers() -> Iterator[int]:
    """p(0), p(1), p(2), ... without end, each from the ones before it by
    Euler's pentagonal-number recurrence."""
    table = [1]
    yield 1
    for m in count(1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            if g1 > m:
                break
            sign = 1 if k % 2 else -1
            total += sign * table[m - g1]
            g2 = k * (3 * k + 1) // 2
            if g2 <= m:
                total += sign * table[m - g2]
            k += 1
        table.append(total)
        yield total

