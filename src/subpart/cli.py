"""Command line interface.

Commands: count, pn, bound, maximize, table, shape, verify.  Each command
accepts only the flags its handler reads: every command takes --format and
--out (shape and verify render only text and json); the scans (maximize,
table, shape) add --cap, and --jobs, parsed but without effect; verify adds
--level and --seed.  Each handler builds its result's JSON payload, CSV
rows and text, and ``render.document`` picks the one --format asks for.
A run builds the parser of its own command only (``build_parser(name)``);
help, an unknown command or no command builds the full tree of all
seven, so every help and usage text reads as it would from the full tree.
Start-up loads only ``render``, ``counting`` and what they import:
``maximizer`` (with ``shapes`` and ``ratefn``) is imported by the first
scan, with only the kernel that the scan runs (``scan_bounded`` at
k = 1, ``scan_chains`` at k >= 2), and ``verify`` and ``svgplot`` only
when their command runs, each through a module-level forwarder below.
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
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv[0] if argv else None).parse_args(argv)
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


def _output_flags(parser: argparse.ArgumentParser, formats=("text", "json", "csv")) -> None:
    parser.add_argument(
        "--format", choices=formats, default="text",
        help="output format (default text)",
    )
    parser.add_argument("--out", help="write output to this path instead of stdout")


def _scan_flags(parser: argparse.ArgumentParser, formats=("text", "json", "csv")) -> None:
    _output_flags(parser, formats)
    parser.add_argument(
        "--jobs", type=_positive_int, default=1,
        help="accepted for compatibility; has no effect, scans run in one process",
    )
    parser.add_argument(
        "--cap", type=_positive_int, default=DEFAULT_SCAN_CAP,
        help="scan cap on p(n)",
    )


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


# One builder per command: it adds the command's flags, the shared ones
# first (usage and help list flags in the order they were added), and
# returns the command's handler.
def _count_flags(p):
    _output_flags(p)
    p.add_argument("partition", help='comma-separated parts, e.g. "4,2,1"; "" is empty')
    p.add_argument("--k", type=int, default=1, help="chain length (default 1)")
    p.add_argument("--strict", action="store_true", help="forbid equal consecutive chain elements")
    return cmd_count


def _pn_flags(p):
    _output_flags(p)
    p.add_argument("n", type=int)
    return cmd_pn


def _bound_flags(p):
    _output_flags(p)
    p.add_argument("partition")
    return cmd_bound


def _maximize_flags(p):
    _scan_flags(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=1)
    return cmd_maximize


def _table_flags(p):
    _scan_flags(p)
    p.add_argument("--n", required=True, help='range such as "1-12" or "4,9,16"')
    p.add_argument("--k", type=int, default=1)
    return cmd_table


def _shape_flags(p):
    _scan_flags(p, ("text", "json"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=1)
    return cmd_shape


def _verify_flags(p):
    _output_flags(p, ("text", "json"))
    p.add_argument("--level", choices=["fast", "full"], default="fast")
    p.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help="seed for randomized verification checks",
    )
    return cmd_verify


# name: (help, builder), in the order that --help lists them
COMMANDS = {
    "count": ("count subpartitions or k-chains", _count_flags),
    "pn": ("partition numbers p(n)", _pn_flags),
    "bound": ("envelope bound on the subpartition count", _bound_flags),
    "maximize": ("find all count-maximizing partitions of n", _maximize_flags),
    "table": ("maximizer reports over a range of n", _table_flags),
    "shape": ("SVG of the maximizer shape against the limit curve", _shape_flags),
    "verify": ("run the self-verification suites", _verify_flags),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser for ``command`` alone when it names one of COMMANDS, else
    the full tree, which every help, unknown or missing command parses with."""
    parser = argparse.ArgumentParser(
        prog="subpart",
        description="count subpartitions and nested chains, bound them, "
        "and study the partitions maximizing them",
    )
    if command in COMMANDS:
        # a lone command still names all of them wherever usage is printed
        names, metavar = [command], "{" + ",".join(COMMANDS) + "}"
    else:
        names, metavar = COMMANDS, None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help_text, add_flags = COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=add_flags(p))
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
    text = format_partition(lam)
    if args.k == 1 and not args.strict:
        result = count_subpartitions(lam)
        params = {"partition": text}
    else:
        result = count_kchains(lam, args.k, strict=args.strict)
        params = {"partition": text, "k": args.k, "strict": args.strict}
    # a count inside the caps can pass the limit (the 7200 x 7200 square
    # has 4,333 digits); the other commands' values stay far below it
    with _all_digits():
        value = str(result.value)
        rows = [
            ["partition", "k", "strict", "value", "method"],
            [text, str(args.k), str(args.strict).lower(), value, result.method],
        ]
        payload = render.count_payload(result, params)
        _emit(render.document(args.format, payload, rows, f"{value}\n"), args)
    return 0


def cmd_pn(args) -> int:
    result = partition_count(args.n)
    rows = [["n", "value"], [str(args.n), str(result.value)]]
    payload = render.count_payload(result, {"n": args.n})
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
