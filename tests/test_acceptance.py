"""Acceptance gate: one test per shipping criterion.

The evidence lives in the ``verify`` registry.  The pytest session's one
run of ``run_verification("full")`` (the ``full_run`` fixture) feeds every
criterion; each test asserts that its checks passed and, where the
criterion states a runtime ceiling, that their summed time stays under it.
The conftest summary block echoes one PASS/FAIL line per criterion.
"""


def assert_passed(full_run, *names, ceiling=None):
    results = [full_run[name] for name in names]
    failures = [f"{r.name}: {r.detail}" for r in results if not r.passed]
    assert failures == []
    took = sum(r.seconds for r in results)
    assert ceiling is None or took < ceiling, f"took {took:.2f}s"


def test_criterion_01_rate_function_exactness(full_run):
    assert_passed(full_run, "rate-function-oracle", ceiling=1.0)


def test_criterion_02_limit_curve_constants(full_run):
    assert_passed(full_run, "limit-curve-constants", ceiling=5.0)


def test_criterion_03_counting_oracle_equivalence(full_run):
    assert_passed(
        full_run, "counting-brute-force", "bridge-subpartition-bijection", ceiling=30.0
    )


def test_criterion_04_kchain_oracles(full_run):
    assert_passed(
        full_run, "macmahon-box-product", "counting-brute-force", ceiling=60.0
    )


def test_criterion_05_bound_dominance(full_run):
    assert_passed(full_run, "envelope-count-bound", ceiling=60.0)


def test_criterion_06_hardy_ramanujan_shell(full_run):
    assert_passed(full_run, "pentagonal-recurrence", "crude-count-bound")


def test_criterion_07_lemma0_property_suite(full_run):
    assert_passed(
        full_run, "envelope-energy-optimality", "decreasing-envelope-energy-optimality"
    )


def test_criterion_08_maximizer_ground_truth(full_run):
    assert_passed(
        full_run,
        "maximizer-ground-truth",
        "maximizer-growth",
        "maximizer-conjugation-closure",
        ceiling=300.0,
    )


def test_criterion_09_limit_shape_trend(full_run):
    assert_passed(full_run, "limit-shape-trend")


def test_criterion_10_csv_determinism(full_run):
    assert_passed(full_run, "csv-determinism")
