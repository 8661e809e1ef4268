"""Command line interface.

Commands: count, pn, bound, maximize, table, shape, verify.  Each command
accepts only the flags its handler reads: every command takes --format and
--out (shape and verify render only text and json); the scans (maximize,
table, shape) add --cap, and --jobs, parsed but without effect; verify adds
--level and --seed.
Exit codes: 0 success, 1 verification failure, 2 parse or validation
error, 3 resource cap exceeded, 4 output I/O failure.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager

from . import render
from .counting import (
    count_kchains,
    count_subpartitions,
    envelope_count_bound,
    partition_count,
)
from .maximizer import check_scan, find_maximizers, shape_report
from .partitions import (
    DEFAULT_SCAN_CAP,
    PartitionFormatError,
    ResourceLimitError,
    format_partition,
    parse_partition,
    profile,
)
from .svgplot import format_caption, write_shape_svg
from .verify import DEFAULT_SEED, run_verification


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except PartitionFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
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
        if args.format == "json":
            _emit(render.to_json(render.count_payload(result)), args)
        elif args.format == "csv":
            _emit(
                render.csv_lines(
                    [
                        ["partition", "k", "strict", "value", "method"],
                        [
                            format_partition(lam),
                            str(args.k),
                            str(args.strict).lower(),
                            str(result.value),
                            result.method,
                        ],
                    ]
                ),
                args,
            )
        else:
            _emit(f"{result.value}\n", args)
    return 0


def cmd_pn(args) -> int:
    result = partition_count(args.n)
    if args.format == "json":
        _emit(render.to_json(render.count_payload(result)), args)
    elif args.format == "csv":
        _emit(render.csv_lines([["n", "value"], [str(args.n), str(result.value)]]), args)
    else:
        _emit(f"{result.value}\n", args)
    return 0


def cmd_bound(args) -> int:
    lam = parse_partition(args.partition)
    bound = envelope_count_bound(profile(lam))
    if args.format == "json":
        _emit(render.to_json(render.bound_payload(format_partition(lam), bound)), args)
    elif args.format == "csv":
        _emit(
            render.csv_lines(
                [
                    ["partition", "log_bound", "bound"],
                    [format_partition(lam), repr(bound.log_value), repr(bound.value)],
                ]
            ),
            args,
        )
    else:
        _emit(f"log_bound {bound.log_value!r}\nbound {bound.value!r}\n", args)
    return 0


def cmd_maximize(args) -> int:
    report = find_maximizers(args.n, args.k, cap=args.cap)
    if args.format == "json":
        _emit(render.to_json(render.report_payload(report)), args)
    elif args.format == "csv":
        _emit(render.reports_csv([report]), args)
    else:
        _emit(render.report_text(report), args)
    return 0


def _parse_n_ranges(spec: str) -> list[range]:
    ranges: list[range] = []
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if "-" in chunk[1:]:
            a, _, b = chunk.partition("-")
            lo, hi = int(a), int(b)
            if hi < lo:
                raise PartitionFormatError(f"empty range {chunk!r}")
            ranges.append(range(lo, hi + 1))
        elif chunk:
            n = int(chunk)
            ranges.append(range(n, n + 1))
    if not ranges:
        raise PartitionFormatError(f"no n values in {spec!r}")
    return ranges


def cmd_table(args) -> int:
    try:
        ranges = _parse_n_ranges(args.n)
    except ValueError as exc:
        raise PartitionFormatError(str(exc)) from exc
    # refuse the whole table before scanning any of it
    check_scan(min(r[0] for r in ranges), args.k, args.cap)
    check_scan(max(r[-1] for r in ranges), args.k, args.cap)
    reports = [find_maximizers(n, args.k, cap=args.cap) for r in ranges for n in r]
    if args.format == "json":
        _emit(render.to_json([render.report_payload(r) for r in reports]), args)
    elif args.format == "csv":
        _emit(render.reports_csv(reports), args)
    else:
        rows = [render.MAXIMIZE_COLUMNS] + [render.report_row(r) for r in reports]
        widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
        lines = [
            "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
            for row in rows
        ]
        _emit("\n".join(lines) + "\n", args)
    return 0


def cmd_shape(args) -> int:
    report = shape_report(args.n, args.k, cap=args.cap)
    svg_path = args.out or f"shape-n{args.n}-k{args.k}.svg"
    write_shape_svg(report, svg_path)
    if args.format == "json":
        sys.stdout.write(render.to_json(render.shape_payload(report, svg_path)))
    else:
        sys.stdout.write(f"{svg_path}\n{format_caption(report)}\n")
    return 0


def cmd_verify(args) -> int:
    results = run_verification(level=args.level, seed=args.seed)
    if args.format == "json":
        payload = [
            {
                "name": r.name,
                "passed": r.passed,
                "detail": r.detail,
                "seconds": round(r.seconds, 3),
            }
            for r in results
        ]
        _emit(render.to_json(payload), args)
    else:
        lines = [
            f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail} ({r.seconds:.2f}s)"
            for r in results
        ]
        failed = sum(1 for r in results if not r.passed)
        lines.append(
            f"{len(results) - failed}/{len(results)} checks passed at level {args.level}"
        )
        _emit("\n".join(lines) + "\n", args)
    return 0 if all(r.passed for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
