"""Serialization of results to text, JSON, and CSV.

``document`` is the one place that picks an output format: every command
hands it the JSON payload, the CSV rows and the text of its result.
Counts are arbitrary-precision integers and are rendered as decimal
strings in JSON.  CSV rendering is byte-stable: identical inputs give
identical bytes whatever produced them, floats written with round-trip
repr and rows terminated by a bare newline.  ``json`` and ``csv`` are
imported by the function that writes each format, so a command pays for
loading only the format it prints.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .partitions import format_partition

if TYPE_CHECKING:
    from .counting import CountResult, EnvelopeBound
    from .maximizer import MaximizerReport, ShapeReport

MAXIMIZE_COLUMNS = [
    "n",
    "k",
    "maximizer",
    "max_count",
    "exponent",
    "hr_reference",
    "distance_to_vershik",
]


def document(fmt: str, payload, rows: list[list[str]] | None, text: str) -> str:
    """The output of one command in format ``fmt``: its payload as JSON,
    its rows as CSV, or its text for ``text``."""
    if fmt == "json":
        return to_json(payload)
    if fmt == "csv":
        return csv_lines(rows)
    return text


def to_json(payload) -> str:
    import json

    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def count_payload(result: CountResult) -> dict:
    return {
        "value": str(result.value),
        "method": result.method,
        "params": result.params,
    }


def bound_payload(lam_text: str, bound: EnvelopeBound) -> dict:
    return {
        "partition": lam_text,
        "log_bound": bound.log_value,
        "bound": bound.value,
    }


def report_payload(report: MaximizerReport) -> dict:
    return {
        "n": report.n,
        "k": report.k,
        "maximizers": [format_partition(m) for m in report.maximizers],
        "max_count": str(report.max_count),
        "exponent": report.exponent,
        "hr_reference": report.hr_reference,
        "distance_to_vershik": report.distance_to_vershik,
    }


def report_row(report: MaximizerReport) -> list[str]:
    return [
        str(report.n),
        str(report.k),
        ";".join(format_partition(m) for m in report.maximizers),
        str(report.max_count),
        repr(report.exponent),
        repr(report.hr_reference),
        repr(report.distance_to_vershik),
    ]


def csv_lines(rows: list[list[str]]) -> str:
    import csv
    import io

    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def report_text(report: MaximizerReport) -> str:
    lines = [
        f"n {report.n}",
        f"k {report.k}",
        "maximizers " + "; ".join(format_partition(m) for m in report.maximizers),
        f"max_count {report.max_count}",
        f"exponent {report.exponent:.9f}",
        f"hr_reference {report.hr_reference:.9f}",
        f"distance_to_vershik {report.distance_to_vershik:.9f}",
    ]
    return "\n".join(lines) + "\n"


def shape_payload(report: ShapeReport, svg_path: str) -> dict:
    return {
        "n": report.n,
        "k": report.k,
        "partition": format_partition(report.partition),
        "profile_distance": report.profile_distance,
        "envelope_distance": report.envelope_distance,
        "envelope_functional": report.envelope_functional,
        "svg": svg_path,
    }
