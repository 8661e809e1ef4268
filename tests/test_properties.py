"""Property tests: the boundary-walk profile against the diagonal count,
the row DP against the bridge DP and brute force, and the chain
determinant against the transfer DP and the binomial determinant, on
generated partitions.  Derandomized, so every run draws
the same cases."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from subpart import oracles
from subpart.counting import _subpartition_count, count_bridges_below, count_kchains
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
    assert _subpartition_count(parts) == count_bridges_below(profile(Partition(parts))).value


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(_partitions(4, 4))
def test_row_dp_matches_brute_force(parts):
    assert _subpartition_count(parts) == len(oracles.brute_subpartitions(parts))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_partitions(6, 6), st.integers(1, 4), st.booleans())
def test_chain_determinant_matches_transfer_dp(parts, k, strict):
    got = count_kchains(Partition(parts), k, strict=strict).value
    if strict:
        want = sum(
            (-1) ** (k - m) * math.comb(k - 1, m - 1) * oracles.transfer_chain_count(parts, m)
            for m in range(1, k + 1)
        )
    else:
        want = oracles.transfer_chain_count(parts, k)
    assert got == want


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(_partitions(20, 20), st.integers(1, 8))
def test_chain_determinant_matches_binomial_determinant(parts, k):
    assert count_kchains(Partition(parts), k).value == oracles.binomial_chain_count(parts, k)


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
    assert count_kchains(Partition(hook), 2).value == oracles.transfer_chain_count(hook, 2)
