"""The benchmark's workloads: the argv each operation passes to
``subpart.cli.main`` and the check each invocation's output must pass.

One operation is one pass over a workload's invocations.  Inputs drawn
from the seed are made here; the program only ever sees the argv.  The
expected outputs are either bytes recorded from the program under
``expected/`` (for fixed argv) or values computed by an independent
route outside the timed spans (for seed-drawn argv).
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

EXPECTED = Path(__file__).resolve().parent / "expected"

NAMES = ("scan", "query", "scan-k2", "verify")

STAIRCASE_14 = ",".join(str(p) for p in range(14, 0, -1))
BOX_6 = "6,6,6,6,6,6"
# `count L` runs the row DP on about two million cells of big integers.
BIG_PARTS = 2000
BIG_MAX_PART = 2000
VERIFY_CHECKS = 32


@dataclass(frozen=True)
class Invocation:
    """One CLI call: its argv, and a predicate on its stdout that is
    consulted only when the call returned the documented exit code."""

    label: str
    argv: list[str]
    check: Callable[[str], bool]


def build(name: str, seed: int, scratch: Path) -> list[Invocation]:
    """The invocations of one operation of workload ``name``.

    ``scratch`` is a directory, relative to the checkout root, for files
    the program writes; it appears verbatim in argv and in the expected
    output.
    """
    if name == "scan":
        return [
            Invocation(
                "maximize-n45",
                ["maximize", "--n", "45", "--format", "csv", "--jobs", "1"],
                _equals_file("maximize-n45.csv"),
            )
        ]
    if name == "scan-k2":
        return [
            Invocation(
                "maximize-n28-k2",
                ["maximize", "--n", "28", "--k", "2", "--jobs", "2", "--format", "csv"],
                _equals_file("maximize-n28-k2.csv"),
            )
        ]
    if name == "verify":
        return [
            Invocation(
                "verify-fast",
                ["verify", "--level", "fast", "--seed", str(seed)],
                _all_checks_passed,
            )
        ]
    if name == "query":
        return _query(seed, scratch)
    raise ValueError(f"unknown workload {name!r}")


def big_partition(seed: int) -> tuple[int, ...]:
    rng = random.Random(seed)
    return tuple(
        sorted((rng.randint(1, BIG_MAX_PART) for _ in range(BIG_PARTS)), reverse=True)
    )


def _query(seed: int, scratch: Path) -> list[Invocation]:
    from subpart.counting import count_bridges_below
    from subpart.partitions import Partition, profile

    big = big_partition(seed)
    big_text = ",".join(map(str, big))
    # Computed at the first check, so a process that only runs operations
    # (the memory probe) never pays for it.
    big_count = functools.cache(lambda: count_bridges_below(profile(Partition(big))).value)
    svg = scratch / "shape-n30.svg"
    return [
        Invocation(
            "count-staircase14-k6",
            ["count", STAIRCASE_14, "--k", "6"],
            _equals_file("count-staircase14-k6.txt"),
        ),
        Invocation(
            "count-box6-k4-strict",
            ["count", BOX_6, "--k", "4", "--strict"],
            _equals_text(f"{strict_box_chains(6, 6, 4)}\n"),
        ),
        Invocation("count-L", ["count", big_text], lambda out: out == f"{big_count()}\n"),
        Invocation(
            "bound-staircase14",
            ["bound", STAIRCASE_14],
            _equals_file("bound-staircase14.txt"),
        ),
        Invocation(
            "bound-L",
            ["bound", big_text],
            lambda out: _bound_consistent(out, big, big_count()),
        ),
        Invocation(
            "shape-n30",
            ["shape", "--n", "30", "--format", "json", "--out", svg.as_posix()],
            _shape_matches(svg),
        ),
    ]


def macmahon(a: int, b: int, c: int) -> int:
    """Plane partitions in an a x b x c box, by MacMahon's product; these
    are the weak c-chains below the a x b rectangle."""
    num = den = 1
    for i in range(1, a + 1):
        for j in range(1, b + 1):
            num *= i + j + c - 1
            den *= i + j - 1
    return num // den


def strict_box_chains(a: int, b: int, k: int) -> int:
    """Strict k-chains below the a x b rectangle: a weak k-chain collapses
    its runs of equal elements to a strict m-chain in C(k-1, m-1) ways, and
    inverting that sum gives the alternating transform."""
    return sum(
        (-1) ** (k - m) * math.comb(k - 1, m - 1) * macmahon(a, b, m)
        for m in range(1, k + 1)
    )


def _equals_file(name: str) -> Callable[[str], bool]:
    return _equals_text((EXPECTED / name).read_text(encoding="utf-8"))


def _equals_text(expected: str) -> Callable[[str], bool]:
    return lambda out: out == expected


def _all_checks_passed(out: str) -> bool:
    lines = out.splitlines()
    passed = [line for line in lines if line.startswith("PASS ")]
    return (
        len(lines) == VERIFY_CHECKS + 1
        and len(passed) == VERIFY_CHECKS
        and lines[-1] == f"{VERIFY_CHECKS}/{VERIFY_CHECKS} checks passed at level fast"
    )


def _bound_consistent(out: str, parts: tuple[int, ...], exact: int) -> bool:
    """The envelope bound must dominate the exact count, cannot exceed
    log 2 per unit step of the profile window, and its value must be the
    exponential of its logarithm (infinite once that overflows a float)."""
    lines = out.splitlines()
    if len(lines) != 2 or not lines[0].startswith("log_bound ") or not lines[1].startswith("bound "):
        return False
    try:
        log_value = float(lines[0].split()[1])
        value = float(lines[1].split()[1])
    except ValueError:
        return False
    window = parts[0] + len(parts)
    if not math.log(exact) - 1e-9 <= log_value <= window * math.log(2.0) + 1e-9:
        return False
    try:
        return math.isclose(value, math.exp(log_value), rel_tol=1e-12)
    except OverflowError:
        return math.isinf(value)


def _shape_matches(svg: Path) -> Callable[[str], bool]:
    """Stdout and the SVG file must both match; the file is removed after
    each check so that a stale one cannot pass the next."""
    expected_out = (EXPECTED / "shape-n30.json").read_text(encoding="utf-8")
    expected_svg = (EXPECTED / "shape-n30.svg").read_bytes()

    def check(out: str) -> bool:
        try:
            written = svg.read_bytes()
        except FileNotFoundError:
            return False
        svg.unlink()
        return out == expected_out and written == expected_svg

    return check
