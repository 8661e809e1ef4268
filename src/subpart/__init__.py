"""Counting subpartitions and nested chains of integer partitions, exact
bounds through convex envelopes of profiles, and the limit shape of the
count-maximizing partitions."""

from .counting import (
    CountResult,
    EnvelopeBound,
    count_bridges_below,
    count_kchains,
    count_subpartitions,
    envelope_count_bound,
    partition_count,
)
from .envelope import DiscreteFunction, lower_convex_envelope
from .maximizer import (
    MaximizerReport,
    ShapeReport,
    find_maximizers,
    shape_report,
)
from .partitions import (
    LatticeProfile,
    Partition,
    PartitionFormatError,
    ResourceLimitError,
    conjugate,
    format_partition,
    parse_partition,
    profile,
)
from .ratefn import VershikCurve, growth_rate, rate_function, shape_functional
from .shapes import PiecewiseLinearShape, rescale, sup_distance

__version__ = "0.1.0"

__all__ = [
    "CountResult",
    "DiscreteFunction",
    "EnvelopeBound",
    "LatticeProfile",
    "MaximizerReport",
    "Partition",
    "PartitionFormatError",
    "PiecewiseLinearShape",
    "ResourceLimitError",
    "ShapeReport",
    "VershikCurve",
    "conjugate",
    "count_bridges_below",
    "count_kchains",
    "count_subpartitions",
    "envelope_count_bound",
    "find_maximizers",
    "format_partition",
    "growth_rate",
    "lower_convex_envelope",
    "parse_partition",
    "partition_count",
    "profile",
    "rate_function",
    "rescale",
    "shape_functional",
    "shape_report",
    "sup_distance",
    "__version__",
]
