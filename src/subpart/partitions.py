"""Integer partitions and their lattice profiles.

A partition is stored as a weakly decreasing tuple of positive parts; the
empty tuple is the empty partition.  The profile of a partition is the
boundary of its Young diagram drawn in the Russian convention, tracked in
integer diagonal coordinates: every cell of the diagram becomes a unit
diamond of area 2, so the region between the profile and ``|x|`` has area
exactly ``2n``.
"""

from __future__ import annotations

from functools import cached_property
from itertools import accumulate
from operator import sub
from typing import Iterator

# Largest p(n) for which a maximizer scan of the partitions of n starts.
DEFAULT_SCAN_CAP = 1_000_000
# Largest DP a single count may set up: the profile window lambda_1 +
# len(lambda) of a parsed partition, and k^2 times that same window for a
# k-chain count.
DEFAULT_STATE_CAP = 1_000_000
# Seed of the randomized checks of `subpart verify` when --seed is not given.
DEFAULT_SEED = 2718


class PartitionFormatError(ValueError):
    """Raised when partition text cannot be parsed."""


class ResourceLimitError(RuntimeError):
    """Raised when a scan, a DP or a parsed partition's window exceeds its cap."""


class Record:
    """Base of the package's immutable value records.

    A record's fields are the names its class annotates, in order (a
    subclass adds its own after its base's).  The base ``__init__`` takes
    them by position or by name and stores them through ``__dict__``; a
    class that validates, normalizes or defaults a field defines its own.
    Records compare equal only to records of the same class with equal
    ``_key()``, by default every field; the hash is the hash of that key,
    and the repr names every field.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields += tuple(cls.__dict__.get("__annotations__", ()))

    def __init__(self, *args, **kwargs) -> None:
        fields, name = self._fields, self.__class__.__qualname__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
        values = dict(zip(fields, args))
        for f, v in kwargs.items():
            if f in values or f not in fields:
                why = "multiple values for" if f in values else "an unexpected"
                raise TypeError(f"{name}() got {why} argument {f!r}")
            values[f] = v
        if len(values) < len(fields):
            missing = ", ".join(repr(f) for f in fields if f not in values)
            raise TypeError(f"{name}() missing argument(s) {missing}")
        self.__dict__.update(values)

    def _key(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Partition(Record):
    """A weakly decreasing tuple of positive integer parts."""

    parts: tuple[int, ...]

    def __init__(self, parts: tuple[int, ...]) -> None:
        parts = tuple(parts)
        self.__dict__["parts"] = parts
        for p in parts:
            if not isinstance(p, int) or p <= 0:
                raise ValueError(f"parts must be positive integers, got {p!r}")
        if any(a < b for a, b in zip(parts, parts[1:])):
            raise ValueError(f"parts must be weakly decreasing, got {parts}")

    @cached_property
    def n(self) -> int:
        return sum(self.parts)

    def _key(self) -> tuple:
        # the base key, without its walk over the field names: every
        # cache keyed by a Partition hashes through here
        return (self.parts,)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __str__(self) -> str:
        return format_partition(self)


def parse_partition(text: str) -> Partition:
    """Parse comma-separated decreasing parts; the empty string is the empty partition.

    Raises ResourceLimitError when lambda_1 + len(lambda), the profile
    window every count and bound walks, exceeds ``DEFAULT_STATE_CAP``.
    """
    text = text.strip()
    if not text:
        return Partition(())
    parts = []
    for token in text.split(","):
        token = token.strip()
        if not token or not (token.isdecimal() or (token[0] == "-" and token[1:].isdecimal())):
            raise PartitionFormatError(f"bad part {token!r} in partition text {text!r}")
        parts.append(int(token))
    try:
        lam = Partition(tuple(parts))
    except ValueError as exc:
        raise PartitionFormatError(str(exc)) from exc
    window = lam.parts[0] + len(lam.parts)
    if window > DEFAULT_STATE_CAP:
        raise ResourceLimitError(f"partition window {window} exceeds cap {DEFAULT_STATE_CAP}")
    return lam


def format_partition(lam: Partition) -> str:
    return ",".join(str(p) for p in lam.parts)


def conjugate(lam: Partition) -> Partition:
    """Transpose of the Young diagram."""
    if not lam.parts:
        return lam
    return Partition(tuple(sum(1 for p in lam.parts if p >= j) for j in range(1, lam.parts[0] + 1)))


class LatticeProfile(Record):
    """Profile heights G(j) on the integer window lo..hi.

    G takes the value |j| at both window endpoints, satisfies G(j) >= |j|,
    and moves by +-1 between consecutive integers.  Outside the window the
    profile continues as |j|.
    """

    lo: int
    hi: int
    heights: tuple[int, ...]

    def __init__(self, lo: int, hi: int, heights: tuple[int, ...]) -> None:
        if hi < lo or len(heights) != hi - lo + 1:
            raise ValueError("window does not match heights")
        if heights[0] != abs(lo) or heights[-1] != abs(hi):
            raise ValueError("profile must equal |j| at the window endpoints")
        # from pinned ends, +-1 steps never raise G(j) - j nor lower G(j) + j,
        # so G dips below |j| only where some step is not +-1
        if not set(map(sub, heights[1:], heights)) <= {1, -1}:
            for j, g in zip(range(lo, hi + 1), heights):
                if g < abs(j):
                    raise ValueError(f"profile dips below |j| at {j}")
            raise ValueError("profile increments must be +-1")
        self.__dict__.update(lo=lo, hi=hi, heights=heights)

    def value(self, j: int) -> int:
        if j < self.lo or j > self.hi:
            return abs(j)
        return self.heights[j - self.lo]

    def increments(self) -> tuple[int, ...]:
        return tuple(b - a for a, b in zip(self.heights, self.heights[1:]))

    def excess_area(self) -> int:
        """Area between the profile and |j|; equals 2n for a partition of n."""
        return sum(g - abs(j) for j, g in zip(range(self.lo, self.hi + 1), self.heights))


def profile(lam: Partition) -> LatticeProfile:
    """Profile of lam: G(j) = |j| + 2 * #cells on diagonal j.

    Diagonal j collects the cells (i, c) of the Young diagram with c - i = j
    (rows and columns 1-based).  The window is [-len(lam), lam_1], collapsing
    to [0, 0] for the empty partition.  The heights come from walking the
    diagram's boundary from j = -len(lam), where G = len(lam): from the last
    row up, each row steps +1 once per unit it is longer than the row below
    it, then -1 up its right edge; O(lam_1 + len(lam)) in all.
    """
    parts = lam.parts
    if not parts:
        return LatticeProfile(0, 0, (0,))
    steps: list[int] = []
    for p, below in zip(reversed(parts), reversed(parts[1:] + (0,))):
        steps += [1] * (p - below)
        steps.append(-1)
    return LatticeProfile(-len(parts), parts[0], tuple(accumulate(steps, initial=len(parts))))
