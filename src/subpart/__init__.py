"""Counting subpartitions and nested chains of integer partitions, exact
bounds through convex envelopes of profiles, and the limit shape of the
count-maximizing partitions.

The names below are loaded on first use (PEP 562), so that importing the
package, or ``subpart.cli``, runs no module a command does not need.
"""

__version__ = "0.1.0"

# public name -> the module that defines it
_HOMES = {
    "CountResult": "counting",
    "EnvelopeBound": "counting",
    "count_bridges_below": "counting",
    "count_kchains": "counting",
    "count_subpartitions": "counting",
    "envelope_count_bound": "counting",
    "partition_count": "counting",
    "lower_convex_envelope": "envelope",
    "MaximizerReport": "maximizer",
    "ShapeReport": "maximizer",
    "find_maximizers": "maximizer",
    "shape_report": "maximizer",
    "LatticeProfile": "partitions",
    "Partition": "partitions",
    "PartitionFormatError": "partitions",
    "ResourceLimitError": "partitions",
    "conjugate": "partitions",
    "format_partition": "partitions",
    "parse_partition": "partitions",
    "profile": "partitions",
    "VershikCurve": "ratefn",
    "growth_rate": "ratefn",
    "rate_function": "ratefn",
    "shape_functional": "ratefn",
    "PiecewiseLinearShape": "shapes",
    "rescale": "shapes",
    "sup_distance": "shapes",
}

__all__ = [*sorted(_HOMES), "__version__"]


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f"{__name__}.{home}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
