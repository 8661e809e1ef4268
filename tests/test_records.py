"""The value records of the package: construction, equality, hashing,
immutability and repr, the same for all nine classes."""

import copy
import math
import pickle
import re

import pytest

from subpart.counting import CountResult, EnvelopeBound
from subpart.maximizer import MaximizerReport, ShapeReport
from subpart.partitions import LatticeProfile, Partition, Record
from subpart.shapes import PiecewiseLinearShape
from subpart.verify import FAST, CheckResult, VerifyCaps

CAPS_FIELDS = (
    "order_pairs_n", "formula_n", "paired_n", "enumeration_n", "envelope_trials",
    "rate_points", "brute_n", "chain_bound_n", "sequence_n", "argmax_n",
    "closure_chain_n", "trend_ns",
)
TENT = PiecewiseLinearShape(((-1.0, 1.0), (0.0, 1.5), (1.0, 1.0)))
COUNT = CountResult(19, "row-dp", {"partition": "4,2,1"})

# (class, field names, field values as stored); every field is compared
# except CountResult's params, whose cases are below
RECORDS = [
    (Partition, ("parts",), ((4, 2, 1),)),
    (LatticeProfile, ("lo", "hi", "heights"), (-1, 1, (1, 2, 1))),
    (PiecewiseLinearShape, ("kinks",), (TENT.kinks,)),
    (EnvelopeBound, ("log_value", "value"), (1.5, math.exp(1.5))),
    (
        MaximizerReport,
        ("n", "k", "maximizers", "max_count", "exponent", "hr_reference", "distance_to_vershik"),
        (4, 1, (Partition((2, 1, 1)), Partition((3, 1))), 7, 1.25, 2.5, 0.125),
    ),
    (
        ShapeReport,
        (
            "n", "k", "partition", "profile_shape", "envelope_shape",
            "profile_distance", "envelope_distance", "envelope_functional",
        ),
        (4, 2, Partition((2, 2)), TENT, TENT, 0.5, 0.25, 1.75),
    ),
    (CheckResult, ("name", "passed", "detail", "seconds"), ("area", True, "ok", 0.5)),
    (VerifyCaps, CAPS_FIELDS, tuple(getattr(FAST, f) for f in CAPS_FIELDS)),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls, fields, values", RECORDS, ids=IDS)
def test_positional_and_keyword_construction(cls, fields, values):
    record = cls(*values)
    assert tuple(getattr(record, f) for f in fields) == values
    assert cls(**dict(zip(fields, values))) == record
    with pytest.raises(TypeError):
        cls(*values[:-1])
    with pytest.raises(TypeError):
        cls(*values, values[-1])
    # each of these names the class in its message
    with pytest.raises(TypeError, match=cls.__name__):
        cls(*values, unknown_field=1)
    with pytest.raises(TypeError, match=cls.__name__):
        cls(*values, **{fields[0]: values[0]})
    with pytest.raises(TypeError, match=cls.__name__):
        cls()


@pytest.mark.parametrize("cls, fields, values", RECORDS, ids=IDS)
def test_eq_and_hash_follow_the_field_tuple(cls, fields, values):
    record = cls(*values)
    assert record == cls(*values) and not record != cls(*values)
    assert hash(record) == hash(cls(*values)) == hash(values)
    assert record != values
    assert pickle.loads(pickle.dumps(record)) == record == copy.deepcopy(record)
    # equality holds only within the same class, as with dataclasses
    sub = type("Sub", (cls,), {})
    assert record != sub(*values) and sub(*values) != record


@pytest.mark.parametrize("cls, fields, values", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, fields, values):
    record = cls(*values)
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(record, f, values[0])
        with pytest.raises(AttributeError):
            delattr(record, f)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert tuple(getattr(record, f) for f in fields) == values


@pytest.mark.parametrize("cls, fields, values", RECORDS, ids=IDS)
def test_repr_names_every_field(cls, fields, values):
    expected = ", ".join(f"{f}={v!r}" for f, v in zip(fields, values))
    assert repr(cls(*values)) == f"{cls.__qualname__}({expected})"


class Point(Record):
    x: int
    y: int


class Point3(Point):
    z: int


def test_annotations_alone_make_a_record_and_a_subclass_adds_fields_last():
    assert Point._fields == ("x", "y") and Point3._fields == ("x", "y", "z")
    p = Point3(1, 2, 3)
    assert (p.x, p.y, p.z) == (1, 2, 3)
    assert p == Point3(z=3, y=2, x=1) == Point3(1, 2, z=3)
    assert p != Point(1, 2) and Point(1, 2) == Point(y=2, x=1)
    assert repr(p) == "Point3(x=1, y=2, z=3)"
    assert repr(Point(1, 2)) == "Point(x=1, y=2)"
    assert pickle.loads(pickle.dumps(p)) == p == copy.deepcopy(p)
    with pytest.raises(TypeError, match="Point3"):
        Point3(1, 2)
    with pytest.raises(TypeError, match=r"^Point\b"):
        Point(1, 2, 3)


def test_envelope_bound_repr():
    assert repr(EnvelopeBound(1.5, 2.0)) == "EnvelopeBound(log_value=1.5, value=2.0)"


def test_count_result_params_are_not_compared():
    assert COUNT == CountResult(19, "row-dp") == CountResult(19, "row-dp", {"other": 1})
    assert hash(COUNT) == hash(CountResult(19, "row-dp", {})) == hash((19, "row-dp"))
    assert COUNT != CountResult(19, "bridge-dp", COUNT.params)
    assert COUNT != CountResult(20, "row-dp", COUNT.params)
    assert CountResult(value=19, method="row-dp", params={"n": 1}).params == {"n": 1}
    assert repr(COUNT) == "CountResult(value=19, method='row-dp', params={'partition': '4,2,1'})"
    with pytest.raises(AttributeError):
        COUNT.params = {}


def test_count_result_default_params_are_fresh_dicts():
    a, b = CountResult(1, "m"), CountResult(1, "m")
    assert a.params == {} and b.params == {}
    assert a.params is not b.params
    a.params["seen"] = True
    assert b.params == {}


def test_partition_n_is_cached():
    lam = Partition((4, 2, 1))
    assert "n" not in vars(lam)
    assert lam.n == 7
    assert vars(lam)["n"] == 7
    assert lam == Partition((4, 2, 1))


def test_stored_fields_are_normalized():
    assert Partition([3, 1]).parts == (3, 1)
    kinks = PiecewiseLinearShape([[0, 0]]).kinks
    assert kinks == ((0.0, 0.0),) and all(type(v) is float for v in kinks[0])


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Partition((1, 2)), "parts must be weakly decreasing, got (1, 2)"),
        (lambda: Partition((2, 0)), "parts must be positive integers, got 0"),
        (lambda: Partition((2.0,)), "parts must be positive integers, got 2.0"),
        (lambda: LatticeProfile(1, 0, (1, 0)), "window does not match heights"),
        (lambda: LatticeProfile(0, 1, (0,)), "window does not match heights"),
        (lambda: LatticeProfile(0, 1, (1, 1)), "profile must equal |j| at the window endpoints"),
        (lambda: LatticeProfile(-2, 2, (2, 0, 0, 0, 2)), "profile dips below |j| at -1"),
        (lambda: LatticeProfile(-2, 2, (2, 2, 2, 0, 2)), "profile dips below |j| at 1"),
        (lambda: LatticeProfile(-2, 0, (2, 2, 0)), "profile increments must be +-1"),
        pytest.param(
            lambda: LatticeProfile(-1, 1, (1, 1, 1)),
            "profile increments must be +-1",
            id="flat steps above |j|",
        ),
        (lambda: PiecewiseLinearShape(()), "a piecewise-linear shape needs at least one kink"),
        (
            lambda: PiecewiseLinearShape(((0.0, 0.0), (0.0, 0.0))),
            "kink x-coordinates must be strictly increasing",
        ),
        (lambda: PiecewiseLinearShape(((-1.0, 1.0), (0.0, -0.5), (1.0, 1.0))), "shape dips below |x| at x=0.0"),
        (
            lambda: PiecewiseLinearShape(((-1.0, 1.0), (0.0, 2.5), (1.0, 1.0))),
            "slope exceeds 1 in magnitude on [-1.0, 0.0]",
        ),
        (lambda: PiecewiseLinearShape(((-1.0, 1.5), (1.0, 1.5))), "outermost kinks must lie on |x|"),
    ],
)
def test_validation_errors_are_unchanged(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()
