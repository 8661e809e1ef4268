"""Command line interface.

Commands: count, pn, bound, maximize, table, shape, verify.  Each command
accepts only the flags its handler reads: every command takes --format and
--out (shape and verify render only text and json); the scans (maximize,
table, shape) add --cap, and --jobs, parsed but without effect; verify adds
--level and --seed.  Each handler builds its result's JSON payload, CSV
rows and text, and ``render.document`` picks the one --format asks for.
Start-up loads only ``render``, ``counting`` and what they import:
``maximizer`` (with ``shapes`` and ``ratefn``) is imported by the first
scan, ``verify`` and ``svgplot`` only when their command runs, each
through a module-level forwarder below.
Exit codes: 0 success, 1 verification failure, 2 parse or validation
error, 3 resource cap exceeded, 4 output I/O failure.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager

from . import render
from .counting import count_kchains, count_subpartitions, envelope_count_bound, partition_count
from .partitions import (
    DEFAULT_SCAN_CAP,
    DEFAULT_SEED,
    PartitionFormatError,
    ResourceLimitError,
    format_partition,
    parse_partition,
    profile,
)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # PartitionFormatError among them
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


def _output_flags(formats: list[str]) -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--format", choices=formats, default="text",
        help="output format (default text)",
    )
    parent.add_argument("--out", help="write output to this path instead of stdout")
    return parent


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    output = _output_flags(["text", "json", "csv"])
    text_or_json = _output_flags(["text", "json"])
    jobs = argparse.ArgumentParser(add_help=False)
    jobs.add_argument(
        "--jobs", type=_positive_int, default=1,
        help="accepted for compatibility; has no effect, scans run in one process",
    )
    cap = argparse.ArgumentParser(add_help=False)
    cap.add_argument(
        "--cap", type=_positive_int, default=DEFAULT_SCAN_CAP,
        help="scan cap on p(n)",
    )

    parser = argparse.ArgumentParser(
        prog="subpart",
        description="count subpartitions and nested chains, bound them, "
        "and study the partitions maximizing them",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", parents=[output], help="count subpartitions or k-chains")
    p_count.add_argument("partition", help='comma-separated parts, e.g. "4,2,1"; "" is empty')
    p_count.add_argument("--k", type=int, default=1, help="chain length (default 1)")
    p_count.add_argument("--strict", action="store_true", help="forbid equal consecutive chain elements")
    p_count.set_defaults(handler=cmd_count)

    p_pn = sub.add_parser("pn", parents=[output], help="partition numbers p(n)")
    p_pn.add_argument("n", type=int)
    p_pn.set_defaults(handler=cmd_pn)

    p_bound = sub.add_parser("bound", parents=[output], help="envelope bound on the subpartition count")
    p_bound.add_argument("partition")
    p_bound.set_defaults(handler=cmd_bound)

    p_max = sub.add_parser("maximize", parents=[output, jobs, cap], help="find all count-maximizing partitions of n")
    p_max.add_argument("--n", type=int, required=True)
    p_max.add_argument("--k", type=int, default=1)
    p_max.set_defaults(handler=cmd_maximize)

    p_table = sub.add_parser("table", parents=[output, jobs, cap], help="maximizer reports over a range of n")
    p_table.add_argument("--n", required=True, help='range such as "1-12" or "4,9,16"')
    p_table.add_argument("--k", type=int, default=1)
    p_table.set_defaults(handler=cmd_table)

    p_shape = sub.add_parser("shape", parents=[text_or_json, jobs, cap], help="SVG of the maximizer shape against the limit curve")
    p_shape.add_argument("--n", type=int, required=True)
    p_shape.add_argument("--k", type=int, default=1)
    p_shape.set_defaults(handler=cmd_shape)

    p_verify = sub.add_parser("verify", parents=[text_or_json], help="run the self-verification suites")
    p_verify.add_argument("--level", choices=["fast", "full"], default="fast")
    p_verify.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help="seed for randomized verification checks",
    )
    p_verify.set_defaults(handler=cmd_verify)

    return parser


def _emit(text: str, args) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


@contextmanager
def _all_digits():
    """Lift Python's limit on the digits of an int turned into text
    (3.10.7 and later) for the block, restoring it afterwards.  Only
    rendering runs inside, so int() on argv keeps the guard."""
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:
        yield
        return
    limit = get_limit()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def cmd_count(args) -> int:
    lam = parse_partition(args.partition)
    if args.k == 1 and not args.strict:
        result = count_subpartitions(lam)
    else:
        result = count_kchains(lam, args.k, strict=args.strict)
    # a count inside the caps can pass the limit (the 7200 x 7200 square
    # has 4,333 digits); the other commands' values stay far below it
    with _all_digits():
        value = str(result.value)
        rows = [
            ["partition", "k", "strict", "value", "method"],
            [format_partition(lam), str(args.k), str(args.strict).lower(), value, result.method],
        ]
        payload = render.count_payload(result)
        _emit(render.document(args.format, payload, rows, f"{value}\n"), args)
    return 0


def cmd_pn(args) -> int:
    result = partition_count(args.n)
    rows = [["n", "value"], [str(args.n), str(result.value)]]
    payload = render.count_payload(result)
    _emit(render.document(args.format, payload, rows, f"{result.value}\n"), args)
    return 0


def cmd_bound(args) -> int:
    lam = parse_partition(args.partition)
    lam_text = format_partition(lam)
    bound = envelope_count_bound(profile(lam))
    rows = [
        ["partition", "log_bound", "bound"],
        [lam_text, repr(bound.log_value), repr(bound.value)],
    ]
    text = f"log_bound {bound.log_value!r}\nbound {bound.value!r}\n"
    _emit(render.document(args.format, render.bound_payload(lam_text, bound), rows, text), args)
    return 0


def cmd_maximize(args) -> int:
    report = find_maximizers(args.n, args.k, cap=args.cap)
    rows = [render.MAXIMIZE_COLUMNS, render.report_row(report)]
    payload = render.report_payload(report)
    _emit(render.document(args.format, payload, rows, render.report_text(report)), args)
    return 0


def _parse_n_ranges(spec: str) -> list[range]:
    ranges: list[range] = []
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            if "-" in chunk[1:]:
                a, _, b = chunk.partition("-")
                lo, hi = int(a), int(b)
            else:
                lo = hi = int(chunk)
        except ValueError:
            raise PartitionFormatError(f"bad n range {chunk!r}") from None
        if hi < lo:
            raise PartitionFormatError(f"empty range {chunk!r}")
        ranges.append(range(lo, hi + 1))
    if not ranges:
        raise PartitionFormatError(f"no n values in {spec!r}")
    return ranges


def cmd_table(args) -> int:
    ranges = _parse_n_ranges(args.n)
    # refuse the whole table before scanning any of it
    check_scan(min(r[0] for r in ranges), args.k, args.cap)
    check_scan(max(r[-1] for r in ranges), args.k, args.cap)
    reports = [find_maximizers(n, args.k, cap=args.cap) for r in ranges for n in r]
    rows = [render.MAXIMIZE_COLUMNS] + [render.report_row(r) for r in reports]
    widths = [max(map(len, column)) for column in zip(*rows)]
    text = "".join(
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() + "\n" for row in rows
    )
    payload = [render.report_payload(r) for r in reports]
    _emit(render.document(args.format, payload, rows, text), args)
    return 0


# The forwarders below import the module that does the work on first call.
# They stay module-level names so that callers (and perfbench/tracing.py,
# which wraps some of them by name) find them in this module.
def find_maximizers(n: int, k: int = 1, cap: int = DEFAULT_SCAN_CAP):
    from .maximizer import _find_maximizers

    return _find_maximizers(n, k, cap)


def check_scan(n: int, k: int, cap: int) -> None:
    from .maximizer import check_scan

    check_scan(n, k, cap)


def shape_report(n: int, k: int = 1, cap: int = DEFAULT_SCAN_CAP):
    from .maximizer import shape_report

    return shape_report(n, k, cap)


def write_shape_svg(report, path: str) -> None:
    from .svgplot import write_shape_svg

    write_shape_svg(report, path)


def run_verification(level: str, seed: int):
    from .verify import run_verification

    return run_verification(level=level, seed=seed)


def cmd_shape(args) -> int:
    report = shape_report(args.n, args.k, cap=args.cap)
    svg_path = args.out or f"shape-n{args.n}-k{args.k}.svg"
    write_shape_svg(report, svg_path)
    from .svgplot import format_caption

    payload = render.shape_payload(report, svg_path)
    text = f"{svg_path}\n{format_caption(report)}\n"
    # --out names the SVG, so the report always goes to stdout
    sys.stdout.write(render.document(args.format, payload, None, text))
    return 0


def cmd_verify(args) -> int:
    results = run_verification(level=args.level, seed=args.seed)
    payload = [
        {"name": r.name, "passed": r.passed, "detail": r.detail, "seconds": round(r.seconds, 3)}
        for r in results
    ]
    passed = sum(r.passed for r in results)
    text = "".join(
        f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail} ({r.seconds:.2f}s)\n"
        for r in results
    )
    text += f"{passed}/{len(results)} checks passed at level {args.level}\n"
    _emit(render.document(args.format, payload, None, text), args)
    return 0 if passed == len(results) else 1


if __name__ == "__main__":
    sys.exit(main())
