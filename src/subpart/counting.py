"""Exact counting of subpartitions, nested chains, and bridge paths.

Everything here is integer-exact (Python arbitrary precision).  There is
one route per object: a row DP over part values for subpartitions, a
column DP over bridge paths below the profile, and a column transfer DP
over nested bridges for k-chains.  The first two count the same objects
through different bijections; all three are cross-checked against each
other and against the reference implementations in ``subpart.oracles``.
Bounds derived from the profile's convex envelope are carried in log
space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate, product

from .envelope import DiscreteFunction, lower_convex_envelope
from .partitions import LatticeProfile, Partition, ResourceLimitError, format_partition, profile
from .ratefn import growth_rate

DEFAULT_STATE_CAP = 1_000_000

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
    ways = {abs(prof.lo): 1}
    for j in range(prof.lo + 1, prof.hi + 1):
        ceiling = prof.value(j)
        floor = abs(j)
        new: dict[int, int] = {}
        for h, c in ways.items():
            for h2 in (h - 1, h + 1):
                if floor <= h2 <= ceiling:
                    new[h2] = new.get(h2, 0) + c
        ways = new
    return CountResult(
        value=ways.get(abs(prof.hi), 1 if prof.lo == prof.hi else 0),
        method=BRIDGE_DP,
        params={"window": [prof.lo, prof.hi]},
    )


def count_kchains(
    lam: Partition,
    k: int,
    strict: bool = False,
    state_cap: int = DEFAULT_STATE_CAP,
) -> CountResult:
    """Number of nested chains mu_k <= ... <= mu_1 <= lam of length k.

    Weak chains allow equal consecutive elements; strict mode forbids
    equality between consecutive chain elements only (the top containment
    in lam stays weak).  Strict counts come from weak counts of every
    length up to k through the run-length binomial transform, so they can
    legitimately be zero.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    prof = profile(lam)
    if not strict:
        value = _weak_chains_transfer(prof, k, state_cap)
    else:
        value = sum(
            (-1) ** (k - m)
            * math.comb(k - 1, m - 1)
            * _weak_chains_transfer(prof, m, state_cap)
            for m in range(1, k + 1)
        )
    return CountResult(
        value=value,
        method=TRANSFER_CHAIN,
        params={"partition": format_partition(lam), "k": k, "strict": strict},
    )


def _weak_chains_transfer(prof: LatticeProfile, k: int, state_cap: int) -> int:
    """Column transfer DP over nested k-tuples of bridge heights.

    A weak k-chain is the same thing as k non-crossing bridges below the
    profile, ordered pointwise; the state at column j is the weakly
    decreasing tuple of their heights.
    """
    start = (abs(prof.lo),) * k
    ways = {start: 1}
    signs = tuple(product((-1, 1), repeat=k))
    for j in range(prof.lo + 1, prof.hi + 1):
        ceiling = prof.value(j)
        floor = abs(j)
        new: dict[tuple[int, ...], int] = {}
        for heights, c in ways.items():
            for step in signs:
                nh = tuple(h + s for h, s in zip(heights, step))
                if nh[0] > ceiling or nh[-1] < floor:
                    continue
                if any(a < b for a, b in zip(nh, nh[1:])):
                    continue
                new[nh] = new.get(nh, 0) + c
        if len(new) > state_cap:
            raise ResourceLimitError(
                f"chain DP state space exceeded cap {state_cap} at column {j}"
            )
        ways = new
    return ways.get((abs(prof.hi),) * k, 1 if prof.lo == prof.hi else 0)


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
    """p(n) by Euler's pentagonal-number recurrence, tabulated upward."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return CountResult(
        value=_pentagonal_iterative(n), method=PENTAGONAL_ITERATIVE, params={"n": n}
    )


def _pentagonal_iterative(n: int) -> int:
    table = [1] + [0] * n
    for m in range(1, n + 1):
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
        table[m] = total
    return table[n]


def hardy_ramanujan_exponent(n: int, k: int = 1) -> float:
    """k * pi * sqrt(2n/3), the growth exponent of p(n) scaled to k nested
    chains."""
    return k * math.pi * math.sqrt(2.0 * n / 3.0)
