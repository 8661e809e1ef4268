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
    hardy_ramanujan_exponent,
    partition_count,
)
from .envelope import (
    DiscreteFunction,
    decreasing_lower_convex_envelope,
    lower_convex_envelope,
    path_energy,
)
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
    enumerate_partitions,
    format_partition,
    is_subpartition,
    parse_partition,
    profile,
)
from .ratefn import (
    ConstantsReport,
    VershikCurve,
    growth_rate,
    log_cosh,
    rate_function,
    rate_function_numeric,
    shape_functional,
    verify_constants,
)
from .shapes import PiecewiseLinearShape, rescale, sup_distance

__version__ = "0.1.0"

__all__ = [
    "ConstantsReport",
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
    "decreasing_lower_convex_envelope",
    "enumerate_partitions",
    "envelope_count_bound",
    "find_maximizers",
    "format_partition",
    "growth_rate",
    "hardy_ramanujan_exponent",
    "is_subpartition",
    "log_cosh",
    "lower_convex_envelope",
    "parse_partition",
    "partition_count",
    "path_energy",
    "profile",
    "rate_function",
    "rate_function_numeric",
    "rescale",
    "shape_functional",
    "shape_report",
    "sup_distance",
    "verify_constants",
    "__version__",
]
