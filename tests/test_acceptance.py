"""Acceptance gate: one test per shipping criterion, tolerances pinned.

Each criterion gets a single test whose pass/fail line is echoed in the
terminal summary.  Runtime ceilings are asserted where the criterion
states one.
"""

import math
import random
import time

from subpart import oracles
from subpart.cli import main as cli_main
from subpart.counting import (
    count_bridges_below,
    count_kchains,
    count_subpartitions,
    envelope_count_bound,
    partition_count,
)
from subpart.envelope import DiscreteFunction, lower_convex_envelope
from subpart.maximizer import find_maximizers
from subpart.partitions import Partition, conjugate, enumerate_partitions, profile
from subpart.ratefn import FUNCTIONAL_MAX, rate_function, shape_functional
from subpart.shapes import rescale
from subpart.verify import decreasing_lower_convex_envelope, path_energy, verify_constants


def all_partitions_through(n_max):
    for n in range(0, n_max + 1):
        for lam in enumerate_partitions(n):
            yield n, lam


def test_criterion_01_rate_function_exactness():
    start = time.perf_counter()
    worst = 0.0
    for i in range(1000):
        x = -0.999 + 1.998 * i / 999.0
        worst = max(worst, abs(rate_function(x) - oracles.rate_function_numeric(x)))
    elapsed = time.perf_counter() - start
    assert worst < 1e-9, f"max deviation {worst:.3e}"
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_02_limit_curve_constants():
    start = time.perf_counter()
    residuals = verify_constants()
    elapsed = time.perf_counter() - start
    assert residuals["functional_residual"] < 1e-6
    assert residuals["normalization_residual"] < 1e-8
    assert residuals["tail_integral_residual"] < 1e-8
    assert residuals["growth_identity_lhs_residual"] < 1e-8
    assert residuals["growth_identity_rhs_residual"] < 1e-8
    assert residuals["euler_lagrange_residual"] < 1e-10
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_03_counting_oracle_equivalence():
    start = time.perf_counter()
    for n, lam in all_partitions_through(8):
        assert count_subpartitions(lam).value == len(
            oracles.brute_subpartitions(lam.parts)
        ), lam
    for n, lam in all_partitions_through(10):
        assert (
            count_bridges_below(profile(lam)).value
            == count_subpartitions(lam).value
        ), lam
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_criterion_04_kchain_oracles():
    start = time.perf_counter()
    assert count_kchains(Partition((2, 2)), 2).value == 20
    for a in range(1, 4):
        for b in range(1, 4):
            for k in range(1, 4):
                assert (
                    count_kchains(Partition((b,) * a), k).value
                    == oracles.macmahon_box(a, b, k)
                ), (a, b, k)
    for n, lam in all_partitions_through(6):
        for k in (1, 2, 3):
            for strict in (False, True):
                want = oracles.brute_chain_count(lam.parts, k, strict)
                assert count_kchains(lam, k, strict).value == want, (lam, k, strict)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.2f}s"


def test_criterion_05_bound_dominance():
    start = time.perf_counter()
    for n, lam in all_partitions_through(12):
        bound = envelope_count_bound(profile(lam))
        assert (
            math.log(count_subpartitions(lam).value) <= bound.log_value + 1e-9
        ), lam
    for n, lam in all_partitions_through(10):
        bound = envelope_count_bound(profile(lam))
        assert (
            math.log(count_kchains(lam, 2).value) <= 2 * bound.log_value + 1e-9
        ), lam
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.2f}s"


def test_criterion_06_hardy_ramanujan_shell():
    for n in range(0, 31):
        assert partition_count(n).value == len(list(enumerate_partitions(n))), n
    for n, lam in all_partitions_through(12):
        assert count_subpartitions(lam).value <= (n + 1) * partition_count(n).value
    a = partition_count(100).value
    b = oracles.pentagonal_memoized(100)
    assert a == b == 190569292


def _random_minorant(rng, f, pin_right):
    vals = list(f.values)
    last = len(vals) - 1
    for i in range(len(vals)):
        if i == 0 or (pin_right and i == last):
            continue
        if rng.random() < 0.7:
            vals[i] = f.values[i] - rng.uniform(0.0, 1.5)
    return DiscreteFunction(f.lo, tuple(vals))


def test_criterion_07_lemma0_property_suite():
    rng = random.Random(60502)
    violations = 0
    for _ in range(200):
        f = oracles.random_grid(rng)
        h = lower_convex_envelope(f)
        jh = path_energy(h, rate_function)
        assert path_energy(h, rate_function) == jh  # equality at g = h, exactly
        assert h.values[0] == f.values[0] and h.values[-1] == f.values[-1]
        g = _random_minorant(rng, f, pin_right=True)
        if path_energy(g, rate_function) < jh - 1e-9:
            violations += 1
    for _ in range(200):
        f = oracles.random_grid(rng)
        h = decreasing_lower_convex_envelope(f)
        jh = path_energy(h, rate_function)
        assert path_energy(h, rate_function) == jh
        assert h.values[0] == f.values[0]
        g = _random_minorant(rng, f, pin_right=False)
        if path_energy(g, rate_function) < jh - 1e-9:
            violations += 1
    assert violations == 0


def test_criterion_08_maximizer_ground_truth():
    start = time.perf_counter()
    report = find_maximizers(4, 1)
    assert report.maximizers == (Partition((3, 1)), Partition((2, 1, 1)))
    assert report.max_count.value == 7
    best = []
    for n in range(1, 31):
        rep = find_maximizers(n)
        best.append(rep.max_count.value)
        if n <= 20:
            have = set(rep.maximizers)
            assert {conjugate(lam) for lam in have} == have, n
    assert all(a < b for a, b in zip(best, best[1:]))
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"took {elapsed:.2f}s"


def test_criterion_09_limit_shape_trend():
    early, late = [], []
    for n in list(range(1, 6)) + list(range(25, 36)):
        rep = find_maximizers(n)
        shape = rescale(profile(rep.maximizers[0]), n)
        functional = shape_functional(shape.envelope())
        assert functional <= FUNCTIONAL_MAX + 1e-9, n
        assert rep.hr_reference - rep.exponent > 0.0, n
        (early if n <= 5 else late).append(rep.distance_to_vershik)
    assert min(late) < min(early), (min(early), min(late))


def test_criterion_10_csv_determinism(tmp_path):
    outputs = []
    for jobs in ("1", "8"):
        path = tmp_path / f"maximize-jobs{jobs}.csv"
        code = cli_main(
            [
                "maximize",
                "--n",
                "20",
                "--format",
                "csv",
                "--jobs",
                jobs,
                "--out",
                str(path),
            ]
        )
        assert code == 0
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]
