"""Exact counting of subpartitions, nested chains, and bridge paths.

Everything here is integer-exact (Python arbitrary precision).  There is
one route per object: a row DP over part values for subpartitions, a
column DP over bridge paths below the profile, and, for k-chains, a
k x k Gessel-Viennot determinant whose entries come from the same
column DP run on k shifted bridges.  The first two count the same
objects through different bijections; all three are cross-checked
against each other and against the reference implementations in
``subpart.oracles`` (among them the column transfer DP over nested
height tuples and the len(lam) x len(lam) binomial determinant).  Bounds
derived from the profile's convex envelope are carried in log space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate, count, islice
from typing import Iterator

from .envelope import DiscreteFunction, lower_convex_envelope
from .partitions import (
    DEFAULT_STATE_CAP,
    LatticeProfile,
    Partition,
    ResourceLimitError,
    format_partition,
    profile,
)
from .ratefn import growth_rate

ROW_DP = "row-dp"
BRIDGE_DP = "bridge-dp"
TRANSFER_CHAIN = "transfer-chain"
PENTAGONAL_ITERATIVE = "pentagonal-iterative"


@dataclass(frozen=True)
class CountResult:
    """An exact count plus the algorithm and parameters that produced it."""

    value: int
    method: str
    params: dict[str, object] = field(default_factory=dict, compare=False)


def count_subpartitions(lam: Partition) -> CountResult:
    """Number of partitions whose diagram fits inside lam (lam and the
    empty partition included)."""
    return CountResult(
        value=_subpartition_count(lam.parts),
        method=ROW_DP,
        params={"partition": format_partition(lam)},
    )


def _subpartition_count(parts: tuple[int, ...]) -> int:
    """Row DP from the bottom row up, starting below the bottom row from
    an empty row of length 0; the state is the value of the current part.
    """
    counts, p = [1], 0
    for q in reversed(parts):
        lifted, total = _row_step(counts)
        counts, p = lifted + [total] * (q - p), q
    return sum(counts)


def _row_step(counts: list[int]) -> tuple[list[int], int]:
    """One step of the row DP.

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


def count_bridges_below(prof: LatticeProfile) -> CountResult:
    """Number of +-1 paths gamma with |j| <= gamma(j) <= G(j) across the
    profile window, pinned to |j| at both ends.

    Each such bridge is the profile of a subpartition, so this must agree
    with the row DP.
    """
    ends = _bridge_ends(prof, abs(prof.lo), 0)
    return CountResult(
        value=ends.get(abs(prof.hi), 0),
        method=BRIDGE_DP,
        params={"window": [prof.lo, prof.hi]},
    )


def _bridge_ends(prof: LatticeProfile, start: int, drop: int) -> dict[int, int]:
    """Column DP over +-1 paths: the paths that leave height ``start`` at
    column lo and stay between |j| - drop and G(j) at every column j of
    the window, counted by their height at column hi.

    A path that starts and ends on or above the floor |j| - drop never
    crosses it, so the floor only prunes paths that could not end on it.
    """
    ways = {start: 1}
    for j, ceiling in zip(range(prof.lo + 1, prof.hi + 1), prof.heights[1:]):
        floor = abs(j) - drop
        new: dict[int, int] = {}
        for h, c in ways.items():
            for h2 in (h - 1, h + 1):
                if floor <= h2 <= ceiling:
                    new[h2] = new.get(h2, 0) + c
        ways = new
    return ways


def count_kchains(lam: Partition, k: int, strict: bool = False) -> CountResult:
    """Number of nested chains mu_k <= ... <= mu_1 <= lam of length k.

    Weak chains allow equal consecutive elements; strict mode forbids
    equality between consecutive chain elements only (the top containment
    in lam stays weak).  Weak counts are k x k Gessel-Viennot determinants
    of bridge counts (see ``_weak_chains_transfer``).  Strict counts come
    from weak counts of every length up to k through the run-length
    binomial transform, so they can legitimately be zero; the transform
    runs from m = k down, so an oversized request is refused before any
    DP work.

    Raises ResourceLimitError when k^2 times the profile window exceeds
    ``DEFAULT_STATE_CAP``.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    prof = profile(lam)
    if not strict:
        value = _weak_chains_transfer(prof, k)
    else:
        value = sum(
            (-1) ** (k - m) * math.comb(k - 1, m - 1) * _weak_chains_transfer(prof, m)
            for m in range(k, 0, -1)
        )
    return CountResult(
        value=value,
        method=TRANSFER_CHAIN,
        params={"partition": format_partition(lam), "k": k, "strict": strict},
    )


# Named for the transfer DP it replaced: perfbench/tracing.py times this
# layer under that name.
def _weak_chains_transfer(prof: LatticeProfile, k: int) -> int:
    """Weak k-chains below the profile, as a k x k determinant of path
    counts (Gessel and Viennot, "Binomial determinants, paths, and hook
    length formulae", Adv. Math. 58, 1985).

    A weak k-chain mu_k <= ... <= mu_1 is the same thing as k bridges
    gamma_1 >= ... >= gamma_k below the profile, ordered pointwise.  Shift
    bridge t + 1 down by 2t, delta_t = gamma_{t+1} - 2t for t < k.  Then
    delta_t - delta_{t+1} >= 2, so the shifted paths share no vertex, and
    all of them stay in the region R between |j| - 2(k - 1) and G(j).
    Conversely, vertex-disjoint paths in R from (lo, |lo| - 2t) to
    (hi, |hi| - 2t) keep their order: every height at column j has the
    parity of j, so two paths that cross must meet at a vertex.  Their
    gaps are then at least 2, which gives delta_t <= delta_0 - 2t <=
    G - 2t and delta_t >= delta_{k-1} + 2(k-1-t) >= |j| - 2t, so undoing
    the shift gives a weak chain back.  The same order argument shows
    that a vertex-disjoint system in R can only join source t to sink t,
    so the Lindstrom-Gessel-Viennot lemma counts the chains as
    det[e(s, t)], where e(s, t) counts the paths in R from
    (lo, |lo| - 2s) to (hi, |hi| - 2t): one ``_bridge_ends`` run per
    source.

    Raises ResourceLimitError, before any DP work, when k^2 times the
    window length exceeds ``DEFAULT_STATE_CAP``.
    """
    width = prof.hi - prof.lo + 1
    if k * k * width > DEFAULT_STATE_CAP:
        raise ResourceLimitError(
            f"chain count for k={k} over {width} columns exceeds cap {DEFAULT_STATE_CAP}"
        )
    drop = 2 * (k - 1)
    top, bottom = abs(prof.lo), abs(prof.hi)
    rows = []
    for s in range(k):
        ends = _bridge_ends(prof, top - 2 * s, drop)
        rows.append([ends.get(bottom - 2 * t, 0) for t in range(k)])
    return _bareiss_det(rows)


def _bareiss_det(rows: list[list[int]]) -> int:
    """Determinant by fraction-free Bareiss elimination; every division
    is exact.  No row swaps: the pivot at step i is the leading
    (i+1) x (i+1) minor, which for the path matrices above counts the
    vertex-disjoint systems of the first i + 1 paths and is at least 1
    (the floor |j| shifted down by 2t is one)."""
    m = list(rows)
    prev = 1
    for i in range(len(m) - 1):
        pivot = m[i][i]
        for r in range(i + 1, len(m)):
            lead = m[r][i]
            m[r] = [(pivot * a - lead * b) // prev for a, b in zip(m[r], m[i])]
        prev = pivot
    return m[-1][-1]


@dataclass(frozen=True)
class EnvelopeBound:
    """Upper bound exp(sum of growth rates along the profile's convex
    envelope), kept in log space; value is math.inf once the bound is
    past the largest float."""

    log_value: float
    value: float


def envelope_count_bound(prof: LatticeProfile) -> EnvelopeBound:
    """Bound on the number of bridges below the profile: each unit step of
    the envelope with slope s can contribute at most e^{growth_rate(s)}
    paths per unit length.  Envelope slopes stay in [-1, 1] because the
    profile's own steps are +-1."""
    heights = DiscreteFunction(prof.lo, tuple(float(h) for h in prof.heights))
    env = lower_convex_envelope(heights)
    log_value = 0.0
    for d in env.increments():
        log_value += growth_rate(max(-1.0, min(1.0, d)))
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
    return CountResult(value=value, method=PENTAGONAL_ITERATIVE, params={"n": n})


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

