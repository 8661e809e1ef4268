import contextlib
import math
import os
import random
import subprocess
import sys
import time
from unittest import mock

import pytest

from forks import assert_no_child, count_forks, live_thread, open_fds
from subpart import cli, counting, oracles
from subpart.counting import (
    BRIDGE_DP,
    PENTAGONAL_ITERATIVE,
    ROW_DP,
    count_bridges_below,
    count_kchains,
    count_subpartitions,
    envelope_count_bound,
    partition_count,
)
from subpart.partitions import Partition, ResourceLimitError, profile


FROZEN_COUNTS = {
    (): 1,
    (1,): 2,
    (2, 1): 5,
    (4,): 5,
    (3, 1): 7,
    (2, 2): 6,
    (2, 1, 1): 7,
    (1, 1, 1, 1): 5,
}


def test_count_subpartitions_frozen():
    for parts, want in FROZEN_COUNTS.items():
        res = count_subpartitions(Partition(parts))
        assert res.value == want
        assert res.method == ROW_DP


def test_kchains_frozen():
    assert count_kchains(Partition((2, 2)), 2).value == 20
    assert count_kchains(Partition((2, 2)), 2, strict=True).value == 14
    assert count_kchains(Partition((1,)), 3).value == 4
    assert count_kchains(Partition((1,)), 3, strict=True).value == 0
    assert count_kchains(Partition(()), 3).value == 1
    assert count_kchains(Partition(()), 2, strict=True).value == 0


def test_kchains_reduce_to_subpartition_count_at_k1():
    for n in range(0, 7):
        for mu in oracles.enumerate_partitions(n):
            lam = Partition(mu)
            assert count_kchains(lam, 1).value == count_subpartitions(lam).value
            assert (
                count_kchains(lam, 1, strict=True).value
                == count_subpartitions(lam).value
            )


def test_kchains_validation_and_caps():
    with pytest.raises(ValueError):
        count_kchains(Partition((2, 1)), 0)
    with pytest.raises(TypeError):
        count_kchains(Partition((2, 1)), 2, method="nonsense")
    with pytest.raises(TypeError):
        count_kchains(Partition((3, 3, 3)), 3, state_cap=2)
    with pytest.raises(ResourceLimitError):
        count_kchains(Partition((1,)), 1000)
    with pytest.raises(ResourceLimitError):
        count_kchains(Partition((1,)), 1000, strict=True)


def test_poset_chain_counts_match_the_determinant_and_the_run_length_transform():
    # the poset walk against an independent route: its weak counts are the
    # binomial determinant at every length, its strict ones their run-length
    # transform, sum of (-1)^(k - m) C(k - 1, m - 1) W_m, as count_kchains
    # takes it
    for n in range(7):
        for parts in oracles.enumerate_partitions(n):
            for k in range(1, 5):
                weak, strict = oracles.poset_chain_counts(parts, k)
                assert weak == [oracles.binomial_chain_count(parts, m) for m in range(1, k + 1)]
                assert strict == [
                    sum(
                        (-1) ** (j - m) * math.comb(j - 1, m - 1) * weak[m - 1]
                        for m in range(1, j + 1)
                    )
                    for j in range(1, k + 1)
                ], (parts, k)


def test_strict_count_runs_one_elimination():
    # the weak counts of every length up to k are the leading minors of one
    # k x k matrix, so a strict count eliminates once
    eliminate, sizes = counting._leading_minors, []

    def counted(rows):
        sizes.append(len(rows))
        return eliminate(rows)

    parts = (5, 3, 3, 1)
    with mock.patch.object(counting, "_leading_minors", counted):
        got = count_kchains(Partition(parts), 6, strict=True).value
    assert sizes == [6]
    assert got == sum(
        (-1) ** (6 - m) * math.comb(5, m - 1) * oracles.binomial_chain_count(parts, m)
        for m in range(1, 7)
    )


def test_envelope_bound_frozen_and_dominant():
    bound = envelope_count_bound(profile(Partition((1,))))
    assert bound.log_value == pytest.approx(math.log(4.0), abs=1e-15)
    assert bound.value == pytest.approx(4.0, abs=1e-12)
    for n in range(0, 10):
        for mu in oracles.enumerate_partitions(n):
            lam = Partition(mu)
            b = envelope_count_bound(profile(lam))
            s = count_subpartitions(lam).value
            assert math.log(s) <= b.log_value + 1e-9, mu
            assert b.value == pytest.approx(math.exp(b.log_value), rel=1e-12)


def _bound_cases():
    yield from (Partition(mu) for n in range(13) for mu in oracles.enumerate_partitions(n))
    yield from (Partition(tuple(range(m, 0, -1))) for m in range(20, 601, 20))
    yield from (Partition((m,) * m) for m in (2, 3, 10, 45))
    yield from (Partition((m,)) for m in (1, 2, 9, 500))
    rng = random.Random(2000)
    for top in (2000, 6000, 20000):
        yield Partition(tuple(sorted((rng.randint(1, top) for _ in range(2000)), reverse=True)))


def test_envelope_bound_matches_the_cell_by_cell_route():
    # the hull of the ends and valleys, priced once per distinct step, is
    # the hull of every point priced step by step, to the last bit; the
    # largest staircases overflow the float, so both reprs read inf
    values = set()
    for lam in _bound_cases():
        got = envelope_count_bound(profile(lam))
        want = oracles.envelope_count_bound_cells(profile(lam))
        assert (repr(got.log_value), repr(got.value)) == (
            repr(want.log_value), repr(want.value)
        ), lam
        values.add(got.value)
    assert math.inf in values and 1.0 in values


def test_partition_count_frozen():
    small = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    for n, want in enumerate(small):
        assert partition_count(n).value == want
    assert partition_count(20).value == 627
    assert partition_count(30).value == 5604
    assert partition_count(100).value == 190569292
    assert partition_count(100).method == PENTAGONAL_ITERATIVE
    assert oracles.pentagonal_memoized(100) == 190569292


def test_partition_count_methods_agree():
    for n in range(0, 61):
        assert partition_count(n).value == oracles.pentagonal_memoized(n)


def test_partition_count_validation():
    with pytest.raises(ValueError):
        partition_count(-1)
    with pytest.raises(TypeError):
        partition_count(5, method="bogus")


def test_cut_lies_between_one_and_the_lowest_source_row():
    for n in range(0, 40, 3):
        for mu in oracles.enumerate_partitions(n):
            for k in (1, 2, 3, 6):
                cut = counting._cut(mu or (0,), k)
                assert 1 <= cut <= max(1, len(mu) - k + 1), (mu, k)
    # the half-area row, clamped so that the k sources lie below it
    assert counting._cut((20, 20, 20, 20, 1, 1), 3) == 3
    assert counting._cut((20, 20, 20, 20, 1, 1), 5) == 2
    assert counting._cut((25, 25, 25, 25), 4) == 1
    # a top row holding half the area keeps the closed-form sink weights
    assert counting._cut((999_999,), 1) == 1
    assert counting._cut((100, 1, 1, 1), 1) == 1
    assert counting._cut((9, 5, 2), 1) == 1
    # a small lam is cut at its half-area row too
    assert counting._cut((3, 3, 3, 3, 3), 2) == 3
    assert counting._cut((2, 2, 2, 2), 1) == 2


def test_meet_in_the_middle_on_a_seeded_400_part_partition():
    rng = random.Random(400)
    parts = tuple(sorted((rng.randint(1, 400) for _ in range(400)), reverse=True))
    assert 1 < counting._cut(parts, 1) < len(parts)
    lam = Partition(parts)
    bridges = count_bridges_below(profile(lam))
    assert count_subpartitions(lam).value == bridges.value
    assert bridges.method == BRIDGE_DP


def test_forked_sinks_match_the_in_process_count(monkeypatch):
    rng = random.Random(19)
    shapes = [
        tuple(sorted((rng.randint(1, 12) for _ in range(rng.randint(2, 12))), reverse=True))
        for _ in range(5)
    ]
    # the empty partition, one row, a cut at c = 1, and k > len(lam) for k >= 3
    shapes += [(), (7,), (100, 1, 1, 1), (2, 1)]
    cases = [
        (Partition(parts), k, strict)
        for parts in shapes
        for k in (1, 2, 3, 4)
        for strict in (False, True)
    ]
    want = [count_kchains(*case).value for case in cases]
    fds, forked = open_fds(), []
    for cells in (0, 1):
        monkeypatch.setattr(counting, "FORK_CELLS", cells)
        forks = count_forks(monkeypatch)
        assert [count_kchains(*case).value for case in cases] == want
        assert_no_child()
        forked.append(len(forks))
    # 0 forks every count; 1 keeps in process the counts with an empty half
    assert forked[0] == len(cases) > forked[1] > 0
    assert open_fds() == fds


def test_no_child_leaves_in_two():
    # a child that returned or raised out of _in_two would go on running
    # this test session; one that gets this far reports through the pipe
    parent, (read, write) = os.getpid(), os.pipe()
    try:
        assert counting._in_two(lambda: 0, lambda: 1) == (0, 1)
    finally:
        if os.getpid() != parent:
            os.write(write, b"escaped")
            os._exit(0)
    os.close(write)
    with open(read, "rb") as pipe:
        assert pipe.read() == b""
    assert_no_child()


def _refused(*args):
    raise OSError("refused")


# each branch of _in_two: the forks it makes, and the runs of there() here
IN_TWO_CASES = {
    "forked": (1, 0),
    "thread": (0, 1),
    "no fork": (0, 1),
    "fork fails": (0, 1),
    "pipe fails": (0, 1),
    "child raises": (1, 1),
    "child killed": (1, 1),
}


@pytest.mark.parametrize("case", IN_TWO_CASES)
def test_in_two_runs_there_in_a_child_or_else_here(monkeypatch, case):
    fds, parent, here = open_fds(), os.getpid(), []

    def there():
        if os.getpid() == parent:
            here.append(1)
        elif case == "child raises":
            raise MemoryError
        elif case == "child killed":
            os.kill(os.getpid(), 9)
        return {"there": (2, 3)}

    forks = count_forks(monkeypatch)
    if case == "no fork":
        monkeypatch.delattr(os, "fork")
    elif case == "fork fails":
        monkeypatch.setattr(os, "fork", _refused)
    elif case == "pipe fails":
        monkeypatch.setattr(os, "pipe", _refused)
    with live_thread() if case == "thread" else contextlib.nullcontext():
        assert counting._in_two(lambda: "here", there) == ("here", {"there": (2, 3)})
    assert (len(forks), len(here)) == IN_TWO_CASES[case]
    assert_no_child()
    assert open_fds() == fds


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_in_two_kills_the_child_when_here_raises(monkeypatch, error):
    fds = open_fds()

    def failing():
        raise error

    def slow():
        time.sleep(20)  # killed long before this ends

    forks = count_forks(monkeypatch)
    start = time.monotonic()
    with pytest.raises(error):
        counting._in_two(failing, slow)
    assert time.monotonic() - start < 10
    assert len(forks) == 1
    assert_no_child()
    assert open_fds() == fds


def test_small_counts_and_scans_never_fork(monkeypatch, capsys):
    def fork():
        pytest.fail("forked below FORK_CELLS")

    monkeypatch.setattr(os, "fork", fork)
    staircase = ",".join(map(str, range(14, 0, -1)))
    for argv in (["count", "999999"], ["count", staircase, "--k", "6"], ["maximize", "--n", "30"]):
        assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert out.startswith("1000000\n1618287241389691773168208620000\n")


def test_child_exits_when_the_parent_is_killed():
    # the sinks (about 300 kB of marshal bytes) overfill the pipe, so the
    # orphaned child's write fails once no reader is left
    if not os.path.isdir("/proc/self"):
        pytest.skip("no /proc to read the child's state")
    code = """if True:
        import os, random, sys, time
        from subpart import counting
        rng = random.Random(7)
        big = tuple(sorted((rng.randint(1, 2000) for _ in range(2000)), reverse=True))
        fork = os.fork
        os.fork = lambda: (pid := fork()) and print(pid, file=sys.stderr, flush=True) or pid
        counting._walk = lambda parts, k: time.sleep(60)
        counting._weak_chains(big, 1)
    """
    proc = subprocess.Popen([sys.executable, "-c", code], stderr=subprocess.PIPE, text=True)
    child = 0
    try:
        child = int(proc.stderr.readline())
        proc.kill()
        proc.wait(timeout=30)
        deadline = time.monotonic() + 30
        while not _exited(child) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert _exited(child)
    finally:
        proc.kill()
        proc.wait(timeout=30)
        proc.stderr.close()
        if child and not _exited(child):
            os.kill(child, 9)


def _exited(pid):
    """Whether pid is gone or a zombie no one has reaped yet."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True
