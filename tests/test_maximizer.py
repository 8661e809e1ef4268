import math
from functools import lru_cache
from itertools import accumulate
from operator import mul
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subpart import maximizer, oracles, scan_bounded, scan_chains
from subpart.counting import count_bridges_below
from subpart.maximizer import (
    HR_RATE,
    _scan_maxima,
    find_maximizers,
    shape_report,
)
from subpart.partitions import Partition, ResourceLimitError, profile
from subpart.ratefn import FUNCTIONAL_MAX, VershikCurve


def test_maximizers_are_actual_maxima():
    # the streamed scan against the exhaustive route: every partition
    # counted on its own, winners re-counted as bridges below the profile
    for n in range(1, 31):
        best, winners = oracles.scan_maximizers(n, 1)
        report = find_maximizers(n)
        assert report.max_count.value == best
        assert report.maximizers == tuple(Partition(p) for p in sorted(winners, reverse=True))
        for lam in report.maximizers:
            assert count_bridges_below(profile(lam)).value == best


@pytest.mark.parametrize("k", [2, 3])
def test_scan_scores_every_leaf_once(k):
    # the argmax alone would pass a scan that drops subtrees holding no
    # winner; at k >= 2 it scores one leaf per partition with
    # lam_1 >= len(lam) (k = 1: test_bounded_scan_prunes_only_below_the_best)
    for n in range(1, 31):
        want = sum(1 for lam in oracles.enumerate_partitions(n) if lam[0] >= len(lam))
        assert _scan_maxima(n, k)[2] == want


@pytest.mark.parametrize("k, top", [(1, 30), (2, 16), (3, 16), (4, 14), (5, 12), (6, 12)])
def test_scan_scores_every_leaf_exactly(k, top):
    # a _keep that never raises the best, and at k = 1 a seed of 0, record
    # every leaf the scan scores, the root's as C(n + k, k) and the rest in
    # closed form; each is checked against a route of its own: the bridge
    # column DP at k = 1, the binomial determinant beyond
    keep, scored = maximizer._keep, []

    def record(value, best, winners, top, path):
        parts = []
        keep(value, value, parts, top, path)
        scored.append((parts[0], value))
        return best

    def independent(parts):
        if k == 1:
            return count_bridges_below(profile(Partition(parts))).value
        return oracles.binomial_chain_count(parts, k)

    # the frame scores the root's leaf, each kernel the rest, each through
    # the _keep its module binds
    with (
        mock.patch.object(maximizer, "_keep", record),
        mock.patch.object(scan_bounded, "_keep", record),
        mock.patch.object(scan_chains, "_keep", record),
        mock.patch.object(scan_bounded, "_seed", lambda n: 0),
    ):
        for n in range(1, top + 1):
            scored.clear()
            _scan_maxima(n, k)
            want = [
                (lam, independent(lam))
                for lam in oracles.enumerate_partitions(n)
                if lam[0] >= len(lam)
            ]
            assert sorted(scored) == sorted(want)


def _nodes_with_descendants(n, generations):
    # the scan's tree: a node placed d parts up to p with r left, and its
    # children add q, p <= q <= min(r // 2, r - d - 2); counts the nodes
    # other than the root that have descendants that many generations down
    def children(p, d, r):
        return [(q, d + 1, r - q) for q in range(p or 1, min(r // 2, r - d - 2) + 1)]

    def reaches(node, depth):
        return depth == 0 or any(reaches(kid, depth - 1) for kid in children(*node))

    found, stack = 0, [(0, 0, n)]
    while stack:
        kids = children(*stack.pop())
        stack += kids
        found += sum(1 for kid in kids if reaches(kid, generations))
    return found


@pytest.mark.parametrize("k", [2, 3])
def test_scan_pushes_only_nodes_with_grandchildren(k):
    # one lift per popped node: the root and the nodes with grandchildren,
    # at k = 2 only those whose children have grandchildren; every leaf is
    # scored by its grandparent, the root's own as C(n + k, k) and its
    # children's as the root's family, and at k = 2 a child none of whose
    # children has grandchildren is scored by its parent from derived sums
    # (k = 1 prunes: test_bounded_scan_counts_at_n45)
    step, pops = scan_chains._lift, []
    generations = 3 if k == 2 else 2

    def counted(*args):
        pops.append(args)
        return step(*args)

    with mock.patch.object(scan_chains, "_lift", counted):
        for n in range(1, 31):
            pops.clear()
            _scan_maxima(n, k)
            assert len(pops) == 1 + _nodes_with_descendants(n, generations)
        if k == 2:
            assert 1 + _nodes_with_descendants(28, 3) == 81
            pops.clear()
            assert _scan_maxima(45, k)[2] == 46767
            assert len(pops) == 1 + _nodes_with_descendants(45, 3) == 1238


@st.composite
def _child_cases(draw):
    # a k = 2 node's two lifted vectors, x = -1..p, a child q >= p and a
    # base at least q
    p = draw(st.integers(0, 25))
    ints = st.lists(st.integers(-(10**6), 10**6), min_size=p + 2, max_size=p + 2)
    vectors = [draw(ints), draw(ints)]
    q = draw(st.integers(p, p + 20))
    return vectors, p, q, draw(st.integers(q, q + 30))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(_child_cases())
def test_child_sums_match_the_childs_own_vectors(case):
    # the sums derived at the node equal the dot products over the
    # vectors the child lifts, L_s extended by T_s to q, and their totals
    vectors, p, q, base = case
    pascal = [[math.comb(m, j) for j in range(6)] for m in range(base + 2)]

    def sums(v, size):
        return tuple(
            sum(c * math.comb(base - x, j) for x, c in enumerate(v, start=-1)) for j in range(size)
        )

    child = [list(accumulate(v + [v[-1]] * (q - p))) for v in vectors]
    got = scan_chains._child_sums(
        sums(vectors[0], 5), sums(vectors[1], 5), vectors[0][-1], vectors[1][-1], p, q, base, pascal
    )
    assert got == (sums(child[0], 4), sums(child[1], 4), child[0][-1], child[1][-1])


def _row_counts(rows):
    # the fillings v_1 <= ... <= v_j of the rows, read from the smallest,
    # with v_i <= rows[i], by the value of v_j
    counts = [1]
    for a in rows:
        counts = [sum(counts[: y + 1]) for y in range(a + 1)]
    return counts


def test_bounded_scan_prunes_only_below_the_best():
    # every partition of n with lam_1 >= len(lam) is scored once, or some
    # run of its bottom rows is a node whose bound, over every way to stack
    # the rest of n on it, is below the final best; the table's bounds are
    # checked in test_bound_table_is_admissible
    family, scored = scan_bounded._family, []

    def walked(T, t, c, part, last, rest, best, winners, path):
        below, link = [], path
        while link is not None:
            q, link = link
            below.append(q)
        scored.extend((rest - q, q, *below) for q in range(part, last + 1))
        return family(T, t, c, part, last, rest, best, winners, path)

    with mock.patch.object(scan_bounded, "_family", walked):
        for n in range(1, 31):
            scored[:] = [(n,)]  # the root's leaf, C(n + 1, 1)
            best, _, leaves = _scan_maxima(n, 1)
            bounds = scan_bounded._bound_table(n)
            assert len(scored) == len(set(scored)) == leaves
            kept = set(scored)
            for lam in oracles.enumerate_partitions(n):
                if lam[0] < len(lam):
                    assert lam not in kept
                    continue
                if lam in kept:
                    continue
                rows = lam[::-1]
                assert any(
                    sum(map(mul, _row_counts(rows[:i]), bounds[n - sum(rows[:i])][rows[i - 1]])) < best
                    for i in range(1, len(rows))
                    if 2 * rows[i - 1] <= n - sum(rows[:i])
                ), lam


@lru_cache(maxsize=None)
def _fillings_above(nu, y):
    # the fillings y <= v_1 <= ... <= v_m with v_i <= nu_i, nu read from
    # its smallest part
    if not nu:
        return 1
    return sum(_fillings_above(nu[1:], v) for v in range(y, nu[0] + 1))


def test_bound_table_is_admissible():
    # B[r][p][y] is at least the fillings of every nu |- r with parts at
    # least max(p, 1); the frozen counts say how often it is tight
    table = scan_bounded._bound_table(18)
    tight = loose = 0
    for r in range(19):
        assert len(table[r]) == r // 2 + 1
        nus = [lam[::-1] for lam in oracles.enumerate_partitions(r)]
        for p, row in enumerate(table[r]):
            assert len(row) == p + 1
            for y, bound in enumerate(row):
                most = max(_fillings_above(nu, y) for nu in nus if not nu or nu[0] >= max(p, 1))
                assert bound >= most
                tight += bound == most
                loose += bound > most
    assert (tight, loose) == (261, 124)


def test_bound_table_matches_its_recurrence():
    # B[r][p][y] straight from the recurrence in _scan_bounded's docstring:
    # each entry its own max over every bottom part q >= max(p, 1), with no
    # running max shared between rows
    n, want = 40, {}

    def above(r, q, v):
        # B[r - q][q][v], or the one-part r - q - v + 1 once no second part fits
        return want[r - q, q, v] if 3 * q <= r else r - q - v + 1

    for r in range(n + 1):
        for p in range(r // 2 + 1):
            for y in range(p + 1):
                stacks = [
                    sum(above(r, q, v) for v in range(y, q + 1))
                    for q in range(max(p, 1), r // 2 + 1)
                ]
                want[r, p, y] = max([r - y + 1, *stacks])
    got = {
        (r, p, y): bound
        for r, rows in enumerate(scan_bounded._bound_table(n))
        for p, row in enumerate(rows)
        for y, bound in enumerate(row)
    }
    assert got == want


def test_bound_table_suffix_break_premise():
    # B[r][q][y] bounds sum_{v=y}^{q'} B[r - q'][q'][v] for every q' >= q,
    # so the bound U(q) of a child that fails its test bounds the tests of
    # all later children, and _scan_bounded may stop there
    table = scan_bounded._bound_table(40)
    cases = 0
    for r in range(41):
        for q in range(1, r // 3 + 1):
            for later in range(q, r // 3 + 1):
                above = table[r - later][later]
                for y in range(q + 1):
                    assert table[r][q][y] >= sum(above[y : later + 1]), (r, q, later, y)
                    cases += 1
    assert cases == 6279


@pytest.mark.parametrize("n", [20, 45, 100])
def test_seed_rows_lie_on_the_limit_curve(n):
    # the seed's closed form is Vershik's curve: the end of a row of length
    # f(a) at height a is the profile point (f - a, f + a), which rescale
    # scales by 1 / sqrt(2n)
    at = [0.05 * i for i in range(1, 20 * n)]
    curve, s = VershikCurve(), math.sqrt(2 * n)
    for a, f in zip(at, scan_bounded._curve_rows(n, at)):
        assert curve.value((f - a) / s) == pytest.approx((f + a) / s, abs=1e-12)


def test_seed_is_a_partition_below_the_best():
    # the seed counts a partition of n, so it never passes M(n), and the
    # curve puts it within a fifth of M(n)
    text = Path(__file__).with_name("maximizers_k1.txt").read_text()
    lines = [line.split() for line in text.splitlines() if not line.startswith("#")]
    best = {int(n): int(value) for n, value, *_ in lines}
    for n in range(20, 101):
        parts = scan_bounded._curve_parts(n)
        assert sum(parts) == n and min(parts) >= 1
        assert list(parts) == sorted(parts, reverse=True)
        assert 0.8 * best[n] <= scan_bounded._seed(n) <= best[n]


@pytest.mark.parametrize(
    "k, name, top",
    [(1, "maximizers_k1.txt", 100), (2, "maximizers_k2.txt", 45), (3, "maximizers_k3.txt", 30)],
)
def test_maximizers_pinned_in_file(k, name, top):
    # frozen from the exhaustive scan (k = 1 from n = 81: from the unseeded
    # branch and bound); the seeded k = 1 scan and the closed-form walks at
    # k = 2 and 3 must find the same best count and every partition
    # reaching it
    text = Path(__file__).with_name(name).read_text()
    lines = [line.split() for line in text.splitlines() if not line.startswith("#")]
    assert [int(line[0]) for line in lines] == list(range(1, top + 1))
    for n, value, *winners in lines:
        report = find_maximizers(int(n), k, cap=200_000_000)
        assert report.max_count.value == int(value)
        assert report.maximizers == tuple(
            Partition(tuple(map(int, w.split(",")))) for w in winners
        )


def test_bounded_scan_counts_at_n45():
    # one row step per popped node; the exhaustive scan scored 46,767
    # leaves in 3,204 pops, the unseeded branch and bound 11,056 in 876
    step, pops = scan_bounded._row_step, []

    def counted(*args):
        pops.append(args)
        return step(*args)

    with mock.patch.object(scan_bounded, "_row_step", counted):
        assert _scan_maxima(45, 1)[2] == 8423
    assert len(pops) == 679


@pytest.mark.parametrize("k", [2, 3, 4])
def test_chain_scan_matches_per_partition_counts(k):
    # the streamed determinant scan against counting each partition on its
    # own, leaves with fewer parts than k included
    for n in range(1, 19):
        best, winners = oracles.scan_maximizers(n, k)
        report = find_maximizers(n, k)
        assert report.max_count.value == best
        assert report.maximizers == tuple(Partition(p) for p in sorted(winners, reverse=True))


# k = 1 to 3 are pinned in the files read by test_maximizers_pinned_in_file
@pytest.mark.parametrize(
    "n, k, value, maximizers",
    [
        pytest.param(20, 4, 25740890, ((7, 5, 3, 2, 1, 1, 1), (7, 4, 3, 2, 2, 1, 1)), id="20-4"),
        pytest.param(20, 5, 341205328, ((7, 5, 3, 2, 1, 1, 1), (7, 4, 3, 2, 2, 1, 1)), id="20-5"),
        pytest.param(18, 6, 654069663, ((7, 4, 3, 2, 1, 1), (6, 4, 3, 2, 1, 1, 1)), id="18-6"),
    ],
)
def test_chain_maximizers_pinned(n, k, value, maximizers):
    report = find_maximizers(n, k)
    assert report.max_count.value == value
    assert report.maximizers == tuple(Partition(p) for p in maximizers)


def test_input_validation_and_cap():
    with pytest.raises(ValueError):
        find_maximizers(0)
    with pytest.raises(ValueError):
        find_maximizers(3, k=0)
    with pytest.raises(ResourceLimitError):
        find_maximizers(30, cap=100)


def test_shape_report_consistency():
    rep = shape_report(6)
    assert rep.partition.n == 6
    assert rep.profile_shape.excess_area() == pytest.approx(1.0, abs=1e-9)
    assert rep.envelope_distance <= rep.profile_distance + 1e-12
    assert rep.envelope_functional <= FUNCTIONAL_MAX + 1e-9
    assert rep.profile_distance == pytest.approx(
        find_maximizers(6).distance_to_vershik, abs=0
    )


def test_hr_rate_frozen():
    assert HR_RATE == pytest.approx(2.565099660323728, abs=1e-15)
