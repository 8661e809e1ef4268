import json
import os
import random
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

from forks import assert_no_child, count_forks, open_fds
from subpart import verify
from subpart.partitions import Partition
from subpart.verify import CHECKS, FAST, random_shape, run_verification


def test_registry_holds_32_checks():
    # the benchmark's verify workload requires exactly 32 PASS lines, and a
    # renamed check would zero its per-layer metric without a failure
    assert len(CHECKS) == 32
    declared = json.loads((Path(__file__).parents[1] / "BENCHMARK.json").read_text())
    prefix, suffix = "verify.check.", ".s"
    names = [
        m["name"][len(prefix) : -len(suffix)]
        for m in declared["per_layer"]
        if m["name"].startswith(prefix)
    ]
    assert names == [name for name, _ in CHECKS]


def test_full_level_matches_golden(full_run):
    # golden_verify_full.txt holds verify --level full's text lines without
    # their seconds, so that a changed FULL size fails here
    lines = [f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}\n" for r in full_run.values()]
    assert "".join(lines) == (Path(__file__).parent / "golden_verify_full.txt").read_text()


def test_suite_passes_under_other_seeds():
    for seed in (1, 31337):
        results = run_verification("fast", seed=seed)
        assert all(r.passed for r in results)


@pytest.mark.parametrize(
    "attr, sabotaged, check",
    [
        ("rate_function", lambda x: 0.9 * x * x, "rate-function-oracle"),
        ("HR_RATE", verify.HR_RATE * 1.001, "hardy-ramanujan-exponent"),
        ("HR_RATE", verify.HR_RATE * 0.999, "hardy-ramanujan-exponent"),
        ("HR_RATE", verify.HR_RATE * 1.0002, "hardy-ramanujan-exponent"),
    ],
    ids=["rate_function", "HR_RATE*1.001", "HR_RATE*0.999", "HR_RATE*1.0002"],
)
def test_sabotage_fails_only_its_check(monkeypatch, attr, sabotaged, check):
    # each sabotage must fail exactly the check that owns the sabotaged name
    monkeypatch.setattr(verify, attr, sabotaged)
    results = run_verification("fast", seed=2718)
    failed = {r.name for r in results if not r.passed}
    assert failed == {check}


@pytest.fixture
def empty_caches():
    """Empty verify's per-run caches around a test that fills them outside
    a run, so that no value it made outlives it."""
    for helper in verify._PER_RUN:
        helper.cache_clear()
    yield
    for helper in verify._PER_RUN:
        helper.cache_clear()


def test_chain_count_mismatch_names_the_determinant(monkeypatch, empty_caches):
    # the package counts chains by the Gessel-Viennot determinant alone
    real = verify.count_kchains

    def off_by_one(lam, k, strict=False):
        return SimpleNamespace(value=real(lam, k, strict=strict).value + 1)

    monkeypatch.setattr(verify, "count_kchains", off_by_one)
    passed, detail = verify.check_counting_brute_force(FAST, random.Random(0))
    assert not passed
    assert detail == "chain count mismatch at , k=1, strict=False: determinant 2, poset 1"


def test_no_count_outlives_its_run(monkeypatch, empty_caches):
    # a count or a scan left in this process's caches, here wrong ones (a
    # 1-chain count of 0 for (1), the report of n = 5 for (4, 1)), is not
    # served to the forked half, which starts from a copy of them
    wrong_scan = verify.find_maximizers(5, 1)
    with monkeypatch.context() as m:
        m.setattr(verify, "count_kchains", lambda lam, k, strict: SimpleNamespace(value=0))
        m.setattr(verify, "find_maximizers", lambda n, k: wrong_scan)
        verify._chains(Partition((1,)), 1, False)
        verify._scan(4, 1)
    assert all(r.passed for r in run_verification("fast", seed=7))
    assert not any(helper.cache_info().currsize for helper in verify._PER_RUN)
    # nor, in one process, is one served from one run to the next
    calls = Counter()

    def counted(name, real):
        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return call

    names = (
        "count_subpartitions", "count_kchains", "find_maximizers", "profile", "enumerate_partitions"
    )
    for name in names:
        monkeypatch.setattr(verify, name, counted(name, getattr(verify, name)))
    monkeypatch.delattr(os, "fork")
    made = []
    for _ in range(2):
        calls.clear()
        assert all(r.passed for r in run_verification("fast", seed=7))
        assert not any(helper.cache_info().currsize for helper in verify._PER_RUN)
        made.append(dict(calls))
    # each value is computed once a half, so a cache that stopped holding
    # one kind of value changes its count; find_maximizers: the forked
    # half's 26 scans, and the two that csv-determinism and json-roundtrip
    # make for themselves, since the cached reports are not what they render
    assert made == [dict(zip(names, (68, 135, 28, 142, 84)))] * 2
    with monkeypatch.context() as m:
        m.setattr(verify, "find_maximizers", lambda n, k: None)
        verify._scan(10, 2)
        verify._scan(6, 2)
    calls.clear()
    for check in (verify.check_csv_determinism, verify.check_json_roundtrip):
        assert check(FAST, random.Random(0))[0]
    assert calls["find_maximizers"] == 2


def test_unknown_level_rejected():
    with pytest.raises(ValueError):
        run_verification("thorough")


def test_random_shape_generator():
    for seed in range(10):
        shape = random_shape(random.Random(seed))
        assert shape.excess_area() == pytest.approx(1.0, abs=1e-9)
        xs = [k[0] for k in shape.kinks]
        assert xs == sorted(xs)
        for x, y in shape.kinks:
            assert y >= abs(x) - 1e-12


def _outcomes(results):
    return [(r.name, r.passed, r.detail) for r in results]


def _patch_checks(monkeypatch):
    """Wrap every registry check so it records its name when it runs in
    this process.  Returns the list of names run here, in order."""
    here, parent = [], os.getpid()

    def wrap(name, fn):
        def check(caps, rng):
            if os.getpid() == parent:
                here.append(name)
            return fn(caps, rng)

        return check

    patched = [(name, wrap(name, fn)) for name, fn in CHECKS]
    monkeypatch.setattr(verify, "CHECKS", patched)
    return here


NAMES = [name for name, _ in CHECKS]


@pytest.mark.parametrize("seed", [7, 99, 2718])
def test_forked_registry_matches_the_in_process_run(monkeypatch, seed):
    forked = run_verification("fast", seed=seed)
    assert [r.name for r in forked] == NAMES
    assert all(r.seconds >= 0.0 for r in forked)
    monkeypatch.delattr(os, "fork")  # a platform without fork
    assert _outcomes(forked) == _outcomes(run_verification("fast", seed=seed))


def test_forked_full_registry_matches_the_in_process_run(monkeypatch, full_run):
    monkeypatch.delattr(os, "fork")
    here = run_verification("full")
    assert [r.name for r in here] == NAMES
    assert _outcomes(full_run.values()) == _outcomes(here)


def test_verify_forks_once_and_runs_the_first_half_here(monkeypatch):
    fds = open_fds()
    here = _patch_checks(monkeypatch)
    forks = count_forks(monkeypatch)
    results = run_verification("fast", seed=7)
    assert [r.name for r in results] == NAMES and all(r.passed for r in results)
    assert len(forks) == 1
    # CI's traced verify run reads layers that only these two checks feed
    assert here == NAMES[:15]
    assert {"enumeration-order-and-count", "limit-curve-constants"} <= set(here)
    assert_no_child()
    assert open_fds() == fds
