import math
import random

import pytest

from subpart.oracles import (
    adaptive_simpson,
    bisect_increasing,
    derivative,
    log_cosh,
    rate_function_numeric,
)
from subpart.ratefn import (
    FUNCTIONAL_MAX,
    VERSHIK_BETA,
    VERSHIK_HEIGHT,
    VershikCurve,
    growth_rate,
    rate_function,
    shape_functional,
)
from subpart.shapes import PiecewiseLinearShape
from subpart.verify import AREA_CONSTANT, verify_constants


def test_named_constants():
    assert VERSHIK_BETA == pytest.approx(math.pi / (2 * math.sqrt(3.0)), abs=0)
    assert VERSHIK_BETA == 0.9068996821171089
    assert VERSHIK_HEIGHT == pytest.approx(math.log(2.0) / VERSHIK_BETA, abs=1e-15)
    assert VERSHIK_HEIGHT == pytest.approx(0.7643041388456882, abs=1e-15)
    assert FUNCTIONAL_MAX == pytest.approx(math.pi / math.sqrt(3.0), abs=0)
    assert AREA_CONSTANT == pytest.approx(math.pi**2 / 12.0, abs=0)
    assert AREA_CONSTANT == pytest.approx(VERSHIK_BETA**2)


def test_log_cosh():
    assert log_cosh(0.0) == 0.0
    assert log_cosh(1.0) == pytest.approx(0.4337808304830271, abs=1e-16)
    assert log_cosh(-3.7) == log_cosh(3.7)
    # stable far in the tail where cosh overflows
    assert log_cosh(1000.0) == pytest.approx(1000.0 - math.log(2.0), abs=1e-12)
    assert log_cosh(2.0) == pytest.approx(math.log(math.cosh(2.0)), abs=1e-15)


def test_rate_function_values():
    assert rate_function(0.0) == 0.0
    assert rate_function(1.0) == math.log(2.0)
    assert rate_function(-1.0) == math.log(2.0)
    assert rate_function(0.5) == pytest.approx(0.13081203594113697, abs=1e-16)
    assert rate_function(-0.5) == rate_function(0.5)
    assert math.isinf(rate_function(1.0000001))
    assert math.isinf(rate_function(-2.0))


def test_rate_function_is_convex():
    xs = [i / 50.0 for i in range(-49, 50)]
    for a, b in zip(xs, xs[2:]):
        mid = (a + b) / 2.0
        assert rate_function(mid) <= (rate_function(a) + rate_function(b)) / 2.0 + 1e-12


def test_rate_function_against_numeric_transform():
    rng = random.Random(7)
    worst = 0.0
    for _ in range(200):
        x = rng.uniform(-0.999, 0.999)
        worst = max(worst, abs(rate_function(x) - rate_function_numeric(x)))
    assert worst < 1e-12


def test_growth_rate():
    assert growth_rate(0.0) == pytest.approx(math.log(2.0), abs=0)
    assert growth_rate(1.0) == 0.0
    assert growth_rate(-1.0) == 0.0
    assert growth_rate(math.tanh(1.0)) == pytest.approx(0.3653338550872076, abs=1e-16)
    with pytest.raises(ValueError):
        growth_rate(1.5)


def test_vershik_curve_shape():
    curve = VershikCurve()
    assert curve.value(0.0) == pytest.approx(VERSHIK_HEIGHT, abs=1e-15)
    for x in [0.0, 0.4, 1.0, 3.0]:
        assert curve.value(-x) == pytest.approx(curve.value(x), abs=1e-15)
        assert curve.value(x) > abs(x)
        assert curve.slope(x) == pytest.approx(math.tanh(VERSHIK_BETA * x), abs=1e-15)
    # hugging |x| far out
    assert curve.value(40.0) - 40.0 < 1e-30
    assert curve.slope_inverse(0.0) == 0.0
    s = curve.slope(1.7)
    assert curve.slope_inverse(s) == pytest.approx(1.7, abs=1e-12)
    assert curve.slope_inverse(1.0) is None
    assert curve.slope_inverse(-1.0) is None


def test_shape_functional_piecewise_cases():
    assert shape_functional(PiecewiseLinearShape.absolute_value()) == 0.0
    flat = PiecewiseLinearShape(((-1.0, 1.0), (1.0, 1.0)))
    assert shape_functional(flat) == pytest.approx(2.0 * math.log(2.0), abs=1e-12)
    tent = PiecewiseLinearShape(((-2.0, 2.0), (0.0, 1.0), (2.0, 2.0)))
    assert shape_functional(tent) == pytest.approx(4.0 * growth_rate(0.5), abs=1e-12)


def test_shape_functional_scales_linearly():
    shape = PiecewiseLinearShape(((-2.0, 2.0), (-0.5, 1.0), (1.0, 1.25), (2.0, 2.0)))
    base = shape_functional(shape)
    for s in [0.5, 2.0, 3.75]:
        assert shape_functional(shape.rescaled(s)) == pytest.approx(s * base, rel=1e-12)


def test_constants_report():
    residuals = verify_constants()
    assert set(residuals) == {
        "tail_integral_residual",
        "growth_identity_lhs_residual",
        "growth_identity_rhs_residual",
        "normalization_residual",
        "functional_residual",
        "euler_lagrange_residual",
    }
    assert max(residuals.values()) < 1e-10
    assert all(v >= 0.0 for v in residuals.values())


def test_adaptive_simpson():
    assert adaptive_simpson(math.sin, 0.0, math.pi) == pytest.approx(2.0, abs=1e-10)
    assert adaptive_simpson(lambda x: x * x, 0.0, 1.0) == pytest.approx(1 / 3, abs=1e-12)
    assert adaptive_simpson(math.exp, -1.0, 1.0) == pytest.approx(
        math.e - 1.0 / math.e, abs=1e-10
    )


def test_derivative_stencil():
    assert derivative(math.sin, 0.3) == pytest.approx(math.cos(0.3), abs=1e-10)
    assert derivative(lambda x: x**3, 2.0) == pytest.approx(12.0, abs=1e-8)


def test_bisect_increasing():
    root = bisect_increasing(math.tanh, 0.5, -1.0, 1.0)
    assert math.tanh(root) == pytest.approx(0.5, abs=1e-13)
    # bracket widening finds targets outside the initial interval
    root = bisect_increasing(lambda t: t, 9.0, 0.0, 1.0)
    assert root == pytest.approx(9.0, abs=1e-12)
