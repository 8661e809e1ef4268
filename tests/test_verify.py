import random

import pytest

from subpart import verify
from subpart.verify import CHECKS, FAST, FULL, random_shape, run_verification


def test_registry_holds_32_checks():
    # the benchmark's verify workload requires exactly 32 PASS lines
    assert len(CHECKS) == 32


def test_fast_suite_passes():
    results = run_verification("fast", seed=2718)
    assert len(results) == len(CHECKS)
    assert [r.name for r in results] == [name for name, _ in CHECKS]
    failures = [r for r in results if not r.passed]
    assert failures == [], [f"{r.name}: {r.detail}" for r in failures]
    assert all(r.seconds >= 0.0 for r in results)


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


def test_broken_rate_function_is_caught(monkeypatch):
    # sabotage the closed form; exactly the oracle comparison must notice
    monkeypatch.setattr(verify, "rate_function", lambda x: 0.9 * x * x)
    results = run_verification("fast", seed=2718)
    failed = {r.name for r in results if not r.passed}
    assert failed == {"rate-function-oracle"}


def test_unknown_level_rejected():
    with pytest.raises(ValueError):
        run_verification("thorough")


def test_caps_presets():
    assert FULL.envelope_trials > FAST.envelope_trials
    assert FULL.run_trend and not FAST.run_trend


def test_random_shape_generator():
    for seed in range(10):
        shape = random_shape(random.Random(seed))
        assert shape.excess_area() == pytest.approx(1.0, abs=1e-9)
        xs = [k[0] for k in shape.kinks]
        assert xs == sorted(xs)
        for x, y in shape.kinks:
            assert y >= abs(x) - 1e-12
