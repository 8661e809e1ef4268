"""Spans recorded at the program's module boundaries, from outside it.

Each traced boundary is a name through which one module of ``subpart``
calls another.  While a ``Tracer`` is installed, that name is replaced in
the calling module's namespace by a wrapper that records a span (name,
start, end, parent) and a few counters; ``uninstall`` restores the
original objects, so untraced operations run the unmodified program.  A
name that a later version of the program no longer has is skipped, and
its metrics read zero.

Spans stay in memory until ``dump`` writes them at the end of a run.

Chunks of a parallel scan run in forked worker processes, where the
wrappers are inherited.  The chunk wrapper there returns its spans along
with the chunk's counts, inside a list subclass whose pickled form
delivers them to this module's inbox in the parent; the parent attaches
them below the span that was open when the pool returned.  Workers
started with the ``spawn`` method import the unmodified program, and their
spans are not seen.
"""

from __future__ import annotations

import functools
import importlib
import os
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    # Seconds of work: end - start, except for a generator, which is busy
    # only inside its own next() calls.
    busy: float = 0.0
    # Another span of the same name was open when this one started.
    nested: bool = False
    # Root span of a worker process, attached to a parent-process span.
    foreign: bool = False


def _cells(counts, args, kwargs, result):
    parts = args[0]
    counts["counting.row_dp.cells"] += sum(parts) + len(parts)


def _scan(counts, args, kwargs, result):
    n = args[0] if args else kwargs["n"]
    counts["maximizer.scanned"] += partition_number(n)
    counts["maximizer.argmax_size"] += len(result.maximizers)


def _checks(counts, args, kwargs, result):
    counts["verify.checks_run"] += len(result)
    counts["verify.checks_passed"] += sum(1 for r in result if r.passed)
    for r in result:
        counts[f"verify.check.{r.name}.s"] += r.seconds


# (calling module[:class], attribute, span name, counter hook)
BOUNDARIES: list[tuple[str, str, str, Callable | None]] = [
    ("subpart.cli", "parse_partition", "partitions.parse", None),
    ("subpart.cli", "profile", "partitions.profile", None),
    ("subpart.counting", "profile", "partitions.profile", None),
    ("subpart.maximizer", "profile", "partitions.profile", None),
    ("subpart.verify", "profile", "partitions.profile", None),
    ("subpart.maximizer", "enumerate_partitions", "partitions.enumerate", None),
    ("subpart.verify", "enumerate_partitions", "partitions.enumerate", None),
    ("subpart.counting", "_subpartition_count", "counting.row_dp", _cells),
    ("subpart.maximizer", "_subpartition_count", "counting.row_dp", _cells),
    ("subpart.counting", "_weak_chains_transfer", "counting.chain_dp", None),
    ("subpart.maximizer", "_weak_chains_transfer", "counting.chain_dp", None),
    ("subpart.cli", "count_kchains", "counting.count_kchains", None),
    ("subpart.verify", "count_kchains", "counting.count_kchains", None),
    ("subpart.cli", "envelope_count_bound", "counting.envelope_bound", None),
    ("subpart.verify", "envelope_count_bound", "counting.envelope_bound", None),
    ("subpart.counting", "lower_convex_envelope", "envelope.lower_convex_envelope", None),
    ("subpart.verify", "lower_convex_envelope", "envelope.lower_convex_envelope", None),
    ("subpart.cli", "find_maximizers", "maximizer.find_maximizers", _scan),
    ("subpart.maximizer", "find_maximizers", "maximizer.find_maximizers", _scan),
    ("subpart.verify", "find_maximizers", "maximizer.find_maximizers", _scan),
    ("subpart.maximizer", "_all_counts", "maximizer.count_all", None),
    ("subpart.maximizer", "_count_chunk", "maximizer.count_chunk", None),
    ("subpart.maximizer", "rescale", "shapes.rescale", None),
    ("subpart.verify", "rescale", "shapes.rescale", None),
    ("subpart.maximizer", "sup_distance", "shapes.sup_distance", None),
    ("subpart.shapes:PiecewiseLinearShape", "envelope", "shapes.envelope", None),
    ("subpart.maximizer", "shape_functional", "ratefn.shape_functional", None),
    ("subpart.verify", "shape_functional", "ratefn.shape_functional", None),
    ("subpart.ratefn", "adaptive_simpson", "numerics.adaptive_simpson", None),
    ("subpart.verify", "verify_constants", "ratefn.verify_constants", None),
    ("subpart.cli", "run_verification", "verify.run_verification", _checks),
    ("subpart.cli", "write_shape_svg", "svgplot.write_shape_svg", None),
] + [
    ("subpart.render", fn, "render", None)
    for fn in (
        "to_json", "count_payload", "bound_payload", "report_payload",
        "report_row", "reports_csv", "report_text", "shape_payload",
    )
]

# Span names whose busy seconds are reported as "<name>.s".
TIMED = (
    "partitions.parse", "partitions.profile", "partitions.enumerate", "counting.row_dp",
    "counting.chain_dp", "counting.count_kchains", "counting.envelope_bound",
    "envelope.lower_convex_envelope", "maximizer.find_maximizers",
    "maximizer.count_all", "shapes.rescale", "shapes.sup_distance",
    "shapes.envelope", "ratefn.shape_functional", "numerics.adaptive_simpson",
    "ratefn.verify_constants", "verify.run_verification",
    "svgplot.write_shape_svg", "render",
)
# Span names reported by number of calls as "<name>.calls".
CALLED = ("counting.row_dp", "counting.chain_dp", "numerics.adaptive_simpson")
# Span names reported by self time, busy minus in-process children, as "<name>.self_s".
SELF_TIMED = ("maximizer.find_maximizers", "cli.main")

# Filled while unpickling results sent by worker processes; drained by the
# tracer that is recording in this process.
_INBOX: list[tuple[list[Span], dict]] = []


class WorkerResult(list):
    """A chunk's counts plus the spans the worker recorded for it."""

    def __init__(self, items, spans, counts):
        super().__init__(items)
        self.spans = spans
        self.counts = counts

    def __reduce__(self):
        return _from_worker, (list(self), self.spans, dict(self.counts))


def _from_worker(items, spans, counts):
    _INBOX.append((spans, counts))
    return items


class Tracer:
    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self._saved: list[tuple[object, str, object]] = []

    # -- installing the wrappers ------------------------------------------

    def install(self) -> None:
        for owner_path, attr, name, hook in BOUNDARIES:
            owner = _resolve(owner_path)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, hook))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name, hook):
        if name == "maximizer.count_chunk":

            @functools.wraps(fn)
            def chunk(*args, **kwargs):
                if os.getpid() == self.pid:
                    return self.call(name, fn, args, kwargs, hook)
                # A forked worker: the inherited spans belong to the parent.
                self.spans, self.counts, self._stack, self._open = [], Counter(), [], Counter()
                result = self.call(name, fn, args, kwargs, hook)
                return WorkerResult(result, self.spans, self.counts)

            return chunk
        if name == "partitions.enumerate":

            @functools.wraps(fn)
            def generator(*args, **kwargs):
                return self._generate(name, fn(*args, **kwargs))

            return generator

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, hook)

        return wrapper

    # -- recording ----------------------------------------------------------

    def _begin(self, name: str) -> Span:
        span = Span(
            name,
            perf_counter(),
            0.0,
            self._stack[-1] if self._stack else None,
            nested=self._open[name] > 0,
        )
        self.spans.append(span)
        return span

    def call(self, name, fn, args, kwargs, hook=None):
        """Run fn(*args, **kwargs) inside a span named ``name``."""
        index = len(self.spans)
        span = self._begin(name)
        self._stack.append(index)
        self._open[name] += 1
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self.counts[f"{name}.failed"] += 1
            raise
        finally:
            span.end = perf_counter()
            span.busy = span.end - span.start
            self._open[name] -= 1
            self._stack.pop()
            if _INBOX:
                self._adopt(index)
        if hook is not None:
            hook(self.counts, args, kwargs, result)
        return result

    def _generate(self, name, iterator):
        # Not pushed on the stack: the consumer's calls between items are
        # not part of the enumeration.
        span = self._begin(name)
        items = 0
        try:
            while True:
                t = perf_counter()
                try:
                    item = next(iterator)
                except StopIteration:
                    span.busy += perf_counter() - t
                    return
                span.busy += perf_counter() - t
                items += 1
                yield item
        finally:
            span.end = perf_counter()
            self.counts[f"{name}.items"] += items

    def _adopt(self, parent: int) -> None:
        while _INBOX:
            spans, counts = _INBOX.pop()
            offset = len(self.spans)
            for span in spans:
                if span.parent is None:
                    span.parent, span.foreign = parent, True
                else:
                    span.parent += offset
            self.spans.extend(spans)
            self.counts.update(counts)
            self.counts["maximizer.worker_chunks"] += 1

    # -- reporting ------------------------------------------------------------

    def mark(self) -> tuple[int, Counter]:
        """Start of an operation; pass the value to ``metrics``."""
        return len(self.spans), self.counts.copy()

    def metrics(self, mark: tuple[int, Counter]) -> dict[str, float]:
        """Per-layer metrics of the operation that began at ``mark``."""
        first, before = mark
        spans = self.spans[first:]
        counts = self.counts - before
        out: dict[str, float] = {key: float(v) for key, v in counts.items()}
        busy: Counter = Counter()
        calls: Counter = Counter()
        children: Counter = Counter()
        for span in spans:
            calls[span.name] += 1
            if not span.nested:
                busy[span.name] += span.busy
            if span.parent is not None and span.parent >= first and not span.foreign:
                children[span.parent - first] += span.busy
        for name in TIMED:
            out[f"{name}.s"] = float(busy[name])
        for name in CALLED:
            out[f"{name}.calls"] = float(calls[name])
        for name in SELF_TIMED:
            out[f"{name}.self_s"] = sum(
                span.busy - children[i] for i, span in enumerate(spans) if span.name == name
            )
        scanned = counts["maximizer.scanned"]
        under_scan = sum(
            1
            for span in spans
            if span.name in ("counting.row_dp", "counting.chain_dp")
            and self._below(span, "maximizer.find_maximizers")
        )
        out["maximizer.counts_per_scanned"] = under_scan / scanned if scanned else 0.0
        return out

    def _below(self, span: Span, ancestor: str) -> bool:
        while span.parent is not None:
            span = self.spans[span.parent]
            if span.name == ancestor:
                return True
        return False

    def dump(self, path: Path, ops: list[int]) -> None:
        """Write every span as a tab-separated row; ``ops`` holds the index
        of each operation's first span."""
        bounds = ops + [len(self.spans)]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op\tindex\tname\tstart\tend\tparent\tbusy\n")
            for op, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
                for i in range(lo, hi):
                    s = self.spans[i]
                    parent = "" if s.parent is None else s.parent
                    fh.write(f"{op}\t{i}\t{s.name}\t{s.start!r}\t{s.end!r}\t{parent}\t{s.busy!r}\n")


def _resolve(owner_path: str):
    module_name, _, cls = owner_path.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(owner, cls, None) if cls else owner


@functools.lru_cache(maxsize=None)
def partition_number(n: int) -> int:
    """p(n) by the standard coin-change table, independent of the program."""
    table = [1] + [0] * n
    for part in range(1, n + 1):
        for m in range(part, n + 1):
            table[m] += table[m - part]
    return table[n]
