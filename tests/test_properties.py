"""Property tests: the boundary-walk profile against the diagonal count,
the row DP against the bridge DP and brute force, the chain determinant
against the binomial determinant (many small partitions at k <= 4, and
larger ones up to k = 8), on generated partitions, the k = 1 scan's
leaf-family walk against its closed form, and the k = 2 walk on ints
against the generic k x k one.  Derandomized, so every run draws the
same cases."""

import math
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from subpart import oracles, scan_bounded, scan_chains
from subpart.counting import count_bridges_below, count_kchains, count_subpartitions
from subpart.partitions import Partition, conjugate, profile


def _partitions(max_parts: int, max_part: int):
    return st.lists(st.integers(1, max_part), max_size=max_parts).map(
        lambda parts: tuple(sorted(parts, reverse=True))
    )


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(_partitions(30, 40))
def test_profile_walk_matches_diagonal_count(parts):
    assert profile(Partition(parts)) == oracles.diagonal_profile(parts)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(_partitions(15, 40))
def test_row_dp_matches_bridge_dp(parts):
    lam = Partition(parts)
    assert count_subpartitions(lam).value == count_bridges_below(profile(lam)).value


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(_partitions(4, 4))
def test_row_dp_matches_brute_force(parts):
    assert count_subpartitions(Partition(parts)).value == len(oracles.brute_subpartitions(parts))


def _assert_determinant_matches_binomial(parts, k, strict):
    # the matrix joined at the half-area strip, against the len(lam) x
    # len(lam) determinant, weak and through the strict transform
    got = count_kchains(Partition(parts), k, strict=strict).value
    if strict:
        want = sum(
            (-1) ** (k - m) * math.comb(k - 1, m - 1) * oracles.binomial_chain_count(parts, m)
            for m in range(1, k + 1)
        )
    else:
        want = oracles.binomial_chain_count(parts, k)
    assert got == want


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_partitions(6, 6), st.integers(1, 4), st.booleans())
def test_small_chain_determinant_matches_binomial_determinant(parts, k, strict):
    _assert_determinant_matches_binomial(parts, k, strict)


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(_partitions(25, 25), st.integers(1, 8), st.booleans())
# the clamp binds: the half-area row is 3, but the k sources need c <= 2
@example((20, 20, 20, 20, 1, 1), 5, False)
@example((20, 20, 20, 20, 1, 1), 5, True)
# c = 1: by the clamp, and with k - len(lam) sources below lam
@example((25, 25, 25, 25), 4, True)
@example((25, 25, 3), 5, False)
# a small lam cut at its half-area row, c = 3
@example((3, 3, 3, 3, 3), 2, True)
def test_chain_determinant_matches_binomial_determinant(parts, k, strict):
    _assert_determinant_matches_binomial(parts, k, strict)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(_partitions(12, 12), st.integers(1, 6), st.booleans())
def test_chain_count_is_conjugation_invariant(parts, k, strict):
    lam = Partition(parts)
    assert count_kchains(lam, k, strict).value == count_kchains(conjugate(lam), k, strict).value


def test_chain_count_pinned_cases():
    staircase_14 = Partition(tuple(range(14, 0, -1)))
    assert count_kchains(staircase_14, 6).value == 1618287241389691773168208620000
    staircase_60 = tuple(range(60, 0, -1))
    assert count_kchains(Partition(staircase_60), 50).value == oracles.binomial_chain_count(
        staircase_60, 50
    )
    hook = (100,) + (1,) * 100
    assert count_kchains(Partition(hook), 2).value == oracles.binomial_chain_count(hook, 2)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(
    st.integers(0, 10**6),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
    st.integers(0, 30),
    st.integers(0, 30),
    st.integers(0, 30),
    st.integers(-20, 120),
)
def test_family_walk_matches_closed_form(total, s0, s1, base, lo, size, rest):
    # V(j) = s1 + j s0 + T j(j+1)/2 + (rest - 2(base + j))(s0 + j T); a
    # _keep that never raises the best records every leaf of the walk
    seen = []

    def keep(value, best, winners, top, path):
        seen.append((value, top, path))
        return best

    tc, c0 = s0 + lo * total, s1 + lo * s0 + total * lo * (lo + 1) // 2
    with mock.patch.object(scan_bounded, "_keep", keep):
        scan_bounded._family(total, tc, c0, base + lo, base + lo + size, rest, -math.inf, [], "p")
    want = [
        (
            s1 + j * s0 + total * j * (j + 1) // 2 + (rest - 2 * (base + j)) * (s0 + j * total),
            rest - base - j,
            (base + j, "p"),
        )
        for j in range(lo, lo + size + 1)
    ]
    assert seen == want


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(
    st.lists(st.integers(-(10**6), 10**6), min_size=8, max_size=8),
    st.integers(1, 30),
    st.integers(0, 30),
    st.integers(0, 40),
)
def test_pair_walk_matches_generic_walk(ints, part, size, slack):
    # the same two family vectors, as ints and as lists: a _keep that never
    # raises the best records every leaf of either walk, and the generic one
    # scores each by _leading_minors
    last, seen = part + size, []
    rest = 2 * last + slack
    pascal = [[math.comb(m, j) for j in range(5)] for m in range(rest + 2)]

    def keep(value, best, winners, top, path):
        seen.append((value, top, path))
        return best

    with mock.patch.object(scan_chains, "_keep", keep):
        scan_chains._pair_family(*ints, part, last, rest, pascal, -math.inf, [], "p")
        paired = seen[:]
        seen.clear()
        ws = [ints[:4], ints[4:]]
        scan_chains._chain_family(ws, part, last, rest, pascal, -math.inf, [], "p")
    assert len(paired) == size + 1
    assert paired == seen
