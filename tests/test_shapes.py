import math

import pytest

from subpart.partitions import Partition, profile
from subpart.ratefn import VERSHIK_HEIGHT, VershikCurve
from subpart.shapes import PiecewiseLinearShape, rescale, sup_distance

from subpart import oracles


def test_validation():
    with pytest.raises(ValueError):
        PiecewiseLinearShape(((1.0, 1.0), (0.0, 0.0)))  # x not increasing
    with pytest.raises(ValueError):
        PiecewiseLinearShape(((-1.0, 0.5), (1.0, 1.0)))  # below |x|
    with pytest.raises(ValueError):
        PiecewiseLinearShape(((-1.0, 1.0), (1.0, 3.5)))  # slope > 1
    with pytest.raises(ValueError):
        PiecewiseLinearShape(((-1.0, 1.5), (1.0, 1.0)))  # edge kink off |x|
    with pytest.raises(ValueError):
        PiecewiseLinearShape(())


def test_absolute_value_shape():
    v = PiecewiseLinearShape.absolute_value()
    for x in [-3.0, -0.5, 0.0, 2.25]:
        assert v.value(x) == abs(x)
    assert v.excess_area() == 0.0


def test_value_interpolates_and_extends():
    tent = PiecewiseLinearShape(((-2.0, 2.0), (0.0, 1.0), (2.0, 2.0)))
    assert tent.value(0.0) == 1.0
    assert tent.value(-1.0) == 1.5
    assert tent.value(1.5) == 1.75
    assert tent.value(5.0) == 5.0
    assert tent.value(-9.0) == 9.0


def test_excess_area():
    flat = PiecewiseLinearShape(((-1.0, 1.0), (1.0, 1.0)))
    assert flat.excess_area() == pytest.approx(1.0, abs=1e-15)
    tent = PiecewiseLinearShape(((-2.0, 2.0), (0.0, 1.0), (2.0, 2.0)))
    assert tent.excess_area() == pytest.approx(2.0, abs=1e-15)


def test_rescaled():
    tent = PiecewiseLinearShape(((-2.0, 2.0), (0.0, 1.0), (2.0, 2.0)))
    half = tent.rescaled(0.5)
    assert half.kinks == ((-1.0, 1.0), (0.0, 0.5), (1.0, 1.0))
    assert half.excess_area() == pytest.approx(0.25 * tent.excess_area(), abs=1e-15)
    with pytest.raises(ValueError):
        tent.rescaled(0.0)


def test_envelope_of_shape():
    bumpy = PiecewiseLinearShape(
        ((-2.0, 2.0), (-1.0, 1.5), (0.0, 1.8), (1.0, 1.5), (2.0, 2.0))
    )
    env = bumpy.envelope()
    xs = [k[0] for k in bumpy.kinks]
    ys = [k[1] for k in bumpy.kinks]
    want = oracles.chord_min_envelope(ys)
    for x, w in zip(xs, want):
        assert env.value(x) == pytest.approx(w, abs=1e-12)
    for x in [-1.7, -0.3, 0.9]:
        assert env.value(x) <= bumpy.value(x) + 1e-12


def test_rescale_profiles_have_unit_area():
    for n in range(1, 9):
        for mu in oracles.enumerate_partitions(n):
            shape = rescale(profile(Partition(mu)), n)
            assert shape.excess_area() == pytest.approx(1.0, abs=1e-9)
            assert len(shape.kinks) == len(profile(Partition(mu)).heights)
    with pytest.raises(ValueError):
        rescale(profile(Partition((2, 1))), 0)


def test_rescale_frozen_square():
    shape = rescale(profile(Partition((2, 2))), 4)
    s = 1.0 / math.sqrt(8.0)
    assert shape.kinks == (
        (-2 * s, 2 * s),
        (-1 * s, 3 * s),
        (0.0, 4 * s),
        (1 * s, 3 * s),
        (2 * s, 2 * s),
    )


def test_sup_distance_piecewise_pairs():
    v = PiecewiseLinearShape.absolute_value()
    flat = PiecewiseLinearShape(((-1.0, 1.0), (1.0, 1.0)))
    assert sup_distance(v, flat) == pytest.approx(1.0, abs=0)
    assert sup_distance(flat, v) == sup_distance(v, flat)
    assert sup_distance(flat, flat) == 0.0
    # difference of two piecewise-linear shapes peaks on the kink union
    tent = PiecewiseLinearShape(((-2.0, 2.0), (0.0, 1.0), (2.0, 2.0)))
    assert sup_distance(tent, flat) == pytest.approx(0.5, abs=1e-15)


def test_sup_distance_to_curve():
    curve = VershikCurve()
    v = PiecewiseLinearShape.absolute_value()
    assert sup_distance(v, curve) == pytest.approx(VERSHIK_HEIGHT, abs=1e-12)
    with pytest.raises(TypeError):
        sup_distance(curve, curve)
    # a chord of the curve stays within its sagitta of the curve
    a, b = 0.5, 2.0
    chordish = PiecewiseLinearShape(
        ((-20.0, 20.0), (-b, curve.value(b)), (-a, curve.value(a)),
         (a, curve.value(a)), (b, curve.value(b)), (20.0, 20.0))
    )
    d = sup_distance(chordish, curve)
    assert 0.0 < d < VERSHIK_HEIGHT
    assert d == pytest.approx(sup_distance(chordish, curve), abs=0)


def test_sup_distance_catches_origin_gap():
    # kinks only at +-1; the largest gap to |x| sits exactly at 0
    flat = PiecewiseLinearShape(((-1.0, 1.0), (1.0, 1.0)))
    assert sup_distance(flat, PiecewiseLinearShape.absolute_value()) == 1.0
