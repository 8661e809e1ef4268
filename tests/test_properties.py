"""Property tests: the row DP against the bridge DP and brute force on
generated partitions.  Derandomized, so every run draws the same cases."""

from hypothesis import given, settings
from hypothesis import strategies as st

from subpart import oracles
from subpart.counting import _subpartition_count, count_bridges_below
from subpart.partitions import Partition, profile


def _partitions(max_parts: int, max_part: int):
    return st.lists(st.integers(1, max_part), max_size=max_parts).map(
        lambda parts: tuple(sorted(parts, reverse=True))
    )


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(_partitions(15, 40))
def test_row_dp_matches_bridge_dp(parts):
    assert _subpartition_count(parts) == count_bridges_below(profile(Partition(parts))).value


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(_partitions(4, 4))
def test_row_dp_matches_brute_force(parts):
    assert _subpartition_count(parts) == len(oracles.brute_subpartitions(parts))
