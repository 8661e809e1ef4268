import json
import os
import random
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from forks import assert_no_child, count_forks, live_thread, open_fds
from subpart import verify
from subpart.verify import CHECKS, FAST, FULL, random_shape, run_verification


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


def test_fast_suite_passes():
    results = run_verification("fast", seed=2718)
    assert len(results) == len(CHECKS)
    assert [r.name for r in results] == [name for name, _ in CHECKS]
    failures = [r for r in results if not r.passed]
    assert failures == [], [f"{r.name}: {r.detail}" for r in failures]
    assert all(r.seconds >= 0.0 for r in results)


def test_full_suite_passes(full_run):
    assert list(full_run) == [name for name, _ in CHECKS]
    failures = [f"{r.name}: {r.detail}" for r in full_run.values() if not r.passed]
    assert failures == []


def test_full_level_matches_golden(full_run):
    # golden_verify_full.txt holds verify --level full's text lines without
    # their seconds, so that a changed FULL size fails here
    lines = [f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}\n" for r in full_run.values()]
    assert "".join(lines) == (Path(__file__).parent / "golden_verify_full.txt").read_text()


def test_suite_is_deterministic_per_seed():
    a = run_verification("fast", seed=99)
    b = run_verification("fast", seed=99)
    assert [(r.name, r.passed, r.detail) for r in a] == [
        (r.name, r.passed, r.detail) for r in b
    ]


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


def test_chain_count_mismatch_names_the_determinant(monkeypatch):
    # the package counts chains by the Gessel-Viennot determinant alone
    real = verify.count_kchains

    def off_by_one(lam, k, strict=False):
        return SimpleNamespace(value=real(lam, k, strict=strict).value + 1)

    monkeypatch.setattr(verify, "count_kchains", off_by_one)
    passed, detail = verify.check_counting_brute_force(FAST, random.Random(0))
    assert not passed
    assert detail == "chain count mismatch at , k=1, strict=False: determinant 2, poset 1"


def test_unknown_level_rejected():
    with pytest.raises(ValueError):
        run_verification("thorough")


def test_caps_presets():
    assert FULL.envelope_trials > FAST.envelope_trials
    assert FULL.trend_ns == range(25, 36) and FAST.trend_ns == range(15, 20)


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


def _patch_checks(monkeypatch, replace=None):
    """Wrap every registry check so it records its name when it runs in
    this process; ``replace`` maps a name to the check that stands in for
    it.  Returns the list of names run here, in order."""
    here, parent, replace = [], os.getpid(), replace or {}

    def wrap(name, fn):
        def check(caps, rng):
            if os.getpid() == parent:
                here.append(name)
            return fn(caps, rng)

        return check

    patched = [(name, wrap(name, replace.get(name, fn))) for name, fn in CHECKS]
    monkeypatch.setattr(verify, "CHECKS", patched)
    return here


NAMES = [name for name, _ in CHECKS]


@pytest.mark.parametrize("seed", [7, 99, 2718])
def test_forked_registry_matches_the_in_process_run(monkeypatch, seed):
    forked = run_verification("fast", seed=seed)
    assert [r.name for r in forked] == NAMES
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
    # the traced verify smoke reads layers that only these two checks feed
    assert here == NAMES[:16]
    assert {"enumeration-order-and-count", "limit-curve-constants"} <= set(here)
    assert_no_child()
    assert open_fds() == fds


def test_checks_run_here_while_another_thread_runs(monkeypatch):
    want = _outcomes(run_verification("fast", seed=7))
    here = _patch_checks(monkeypatch)
    forks = count_forks(monkeypatch)
    with live_thread():
        assert _outcomes(run_verification("fast", seed=7)) == want
    assert forks == []
    assert here == NAMES


def test_checks_run_here_when_fork_fails(monkeypatch):
    want = _outcomes(run_verification("fast", seed=7))
    fds = open_fds()

    def refused():
        raise OSError("fork refused")

    here = _patch_checks(monkeypatch)
    monkeypatch.setattr(os, "fork", refused)
    assert _outcomes(run_verification("fast", seed=7)) == want
    assert here == NAMES
    assert open_fds() == fds


def test_second_half_reruns_here_when_the_child_dies(monkeypatch):
    want = _outcomes(run_verification("fast", seed=7))
    name = NAMES[20]
    check, parent = dict(CHECKS)[name], os.getpid()

    def dying(caps, rng):
        if os.getpid() != parent:
            os._exit(1)
        return check(caps, rng)

    here = _patch_checks(monkeypatch, {name: dying})
    forks = count_forks(monkeypatch)
    assert _outcomes(run_verification("fast", seed=7)) == want
    assert len(forks) == 1
    assert here == NAMES
    assert_no_child()


def test_interrupt_in_the_first_half_propagates_and_leaves_no_child(monkeypatch):
    fds, parent = open_fds(), os.getpid()
    slow_check = dict(CHECKS)[NAMES[16]]

    def interrupted(caps, rng):
        raise KeyboardInterrupt

    def slow(caps, rng):
        if os.getpid() != parent:
            time.sleep(60)  # killed long before this ends
        return slow_check(caps, rng)

    _patch_checks(monkeypatch, {NAMES[3]: interrupted, NAMES[16]: slow})
    forks = count_forks(monkeypatch)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_verification("fast", seed=7)
    assert time.monotonic() - start < 30
    assert len(forks) == 1
    assert_no_child()
    assert open_fds() == fds
