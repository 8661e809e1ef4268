import pytest

from subpart.counting import partition_count
from subpart.partitions import (
    LatticeProfile,
    Partition,
    PartitionFormatError,
    conjugate,
    format_partition,
    parse_partition,
    profile,
)

from subpart import oracles
from subpart.oracles import is_subpartition


def test_partition_basics():
    lam = Partition((4, 2, 1))
    assert lam.n == 7
    assert len(lam) == 3
    assert list(lam) == [4, 2, 1]
    assert str(lam) == "4,2,1"
    assert Partition(()).n == 0


def test_partition_rejects_bad_parts():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))
    with pytest.raises(ValueError):
        Partition((-1,))


def test_parse_and_format_round_trip():
    for text in ["4,2,1", "1", "10,10,3", ""]:
        assert format_partition(parse_partition(text)) == text
    assert parse_partition(" 3 , 1 ") == Partition((3, 1))
    # Arabic-Indic three and one, decimal digits that int() reads
    assert parse_partition("\u0663,\u0661") == Partition((3, 1))


# a superscript two is a digit to str.isdigit but not to int()
@pytest.mark.parametrize("bad", ["1,2", "a", "2,,1", "0", "3,-1", ",", "\u00b2", "3,-\u00b2"])
def test_parse_rejects_garbage(bad):
    with pytest.raises(PartitionFormatError):
        parse_partition(bad)


def test_enumeration_order_and_count():
    for n in range(1, 13):
        seen = list(oracles.enumerate_partitions(n))
        assert seen[0] == (n,)
        assert seen[-1] == (1,) * n
        # strictly decreasing lexicographic order, so no partition twice
        assert all(a > b for a, b in zip(seen, seen[1:]))
        assert len(seen) == partition_count(n).value
        assert all(Partition(p).n == n for p in seen)
    assert list(oracles.enumerate_partitions(0)) == [()]


def test_is_subpartition_matches_brute_force():
    lam = Partition((3, 2, 1))
    expected = set(oracles.brute_subpartitions(lam.parts))
    for m in range(0, 7):
        for mu in oracles.enumerate_partitions(m):
            assert is_subpartition(Partition(mu), lam) == (mu in expected)


def test_is_subpartition_edge_cases():
    lam = Partition((2, 2))
    assert is_subpartition(lam, lam)
    assert is_subpartition(Partition(()), lam)
    assert not is_subpartition(Partition((1, 1, 1)), lam)
    assert not is_subpartition(Partition((3,)), lam)


def test_conjugate():
    assert conjugate(Partition((4, 2, 1))) == Partition((3, 2, 1, 1))
    assert conjugate(Partition(())) == Partition(())
    for n in range(0, 9):
        for mu in oracles.enumerate_partitions(n):
            lam = Partition(mu)
            assert conjugate(conjugate(lam)) == lam
            assert conjugate(lam).n == lam.n


def test_profile_frozen_cases():
    cases = {
        (): (0, 0, (0,)),
        (1,): (-1, 1, (1, 2, 1)),
        (2, 1): (-2, 2, (2, 3, 2, 3, 2)),
        (3, 1): (-2, 3, (2, 3, 2, 3, 4, 3)),
        (2, 2): (-2, 2, (2, 3, 4, 3, 2)),
    }
    for parts, (lo, hi, heights) in cases.items():
        prof = profile(Partition(parts))
        assert (prof.lo, prof.hi, prof.heights) == (lo, hi, heights)


def test_profile_value_and_area():
    for n in range(0, 11):
        for mu in oracles.enumerate_partitions(n):
            prof = profile(Partition(mu))
            assert prof.excess_area() == 2 * n
            assert all(d in (-1, 1) for d in prof.increments())
            assert prof.value(prof.lo - 5) == 5 - prof.lo
            assert prof.value(prof.hi + 3) == prof.hi + 3
            assert prof.value(prof.lo) == abs(prof.lo)
            assert prof.value(prof.hi) == abs(prof.hi)


def test_profile_conjugation_reflects():
    for n in range(1, 10):
        for mu in oracles.enumerate_partitions(n):
            a = profile(Partition(mu))
            b = profile(conjugate(Partition(mu)))
            lo = min(a.lo, b.lo) - 1
            hi = max(a.hi, b.hi) + 1
            assert all(a.value(j) == b.value(-j) for j in range(lo, hi + 1))


def test_lattice_profile_validation():
    with pytest.raises(ValueError):
        LatticeProfile(lo=-1, hi=1, heights=(1, 2, 2))  # step of 0
    with pytest.raises(ValueError):
        LatticeProfile(lo=-1, hi=1, heights=(1, -1, 1))  # below |j|
    with pytest.raises(ValueError):
        LatticeProfile(lo=-1, hi=1, heights=(2, 3, 2))  # endpoints off |j|
    with pytest.raises(ValueError):
        LatticeProfile(lo=-1, hi=1, heights=(1, 2))  # wrong length
    # the window may be wider than the support
    flat = LatticeProfile(lo=-1, hi=1, heights=(1, 0, 1))
    assert flat.excess_area() == 0
