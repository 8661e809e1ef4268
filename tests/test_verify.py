import json
import random
from pathlib import Path

import pytest

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
