import argparse
import json
import math
import re
import shlex
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from subpart import cli, counting, partitions
from subpart.render import MAXIMIZE_COLUMNS
from subpart.verify import CHECKS

SVG = "{http://www.w3.org/2000/svg}"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


# golden_cli.txt holds the exact stdout of each command in each format:
# a "$ <argv>" line, then that invocation's output up to the next "$ " line.
# verify's per-check seconds vary from run to run and are written as 0.
GOLDEN = (Path(__file__).parent / "golden_cli.txt").read_text()
GOLDEN_CASES = [tuple(chunk.split("\n", 1)) for chunk in re.split(r"^\$ ", GOLDEN, flags=re.M)[1:]]


@pytest.mark.parametrize("command, expected", GOLDEN_CASES, ids=[c for c, _ in GOLDEN_CASES])
def test_output_matches_golden_bytes(command, expected, capsys, monkeypatch, tmp_path):
    # shape writes its SVG beside the default path that its output names
    monkeypatch.chdir(tmp_path)
    code, out = run_cli(capsys, *shlex.split(command))
    assert code == 0
    assert re.sub(r'"seconds": [0-9.e+-]+', '"seconds": 0', out) == expected


def test_count_text(capsys):
    assert run_cli(capsys, "count", "3,1") == (0, "7\n")
    assert run_cli(capsys, "count", "") == (0, "1\n")


def test_count_chain_flags(capsys):
    assert run_cli(capsys, "count", "2,2", "--k", "2") == (0, "20\n")
    assert run_cli(capsys, "count", "2,2", "--k", "2", "--strict") == (0, "14\n")


def test_bound(capsys):
    code, out = run_cli(capsys, "bound", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["partition"] == "1"
    assert payload["log_bound"] == pytest.approx(math.log(4.0), abs=1e-12)
    assert payload["bound"] == pytest.approx(4.0, abs=1e-9)
    code, out = run_cli(capsys, "bound", "1")
    assert "log_bound" in out and "bound" in out


def test_bound_past_float_range(capsys):
    staircase = ",".join(str(p) for p in range(600, 0, -1))
    code, out = run_cli(capsys, "bound", staircase)
    assert code == 0
    assert out.splitlines()[1] == "bound inf"
    code, out = run_cli(capsys, "bound", staircase, "--format", "csv")
    assert out.splitlines()[1].endswith(",inf")
    code, out = run_cli(capsys, "bound", staircase, "--format", "json")
    assert '"bound": Infinity' in out
    assert json.loads(out)["bound"] == math.inf


def test_maximize_csv_header_and_determinism(tmp_path):
    for k in ("1", "2"):
        paths = []
        for jobs in ("1", "2"):
            p = tmp_path / f"out-k{k}-{jobs}.csv"
            code = cli.main(
                ["maximize", "--n", "12", "--k", k, "--format", "csv", "--jobs", jobs, "--out", str(p)]
            )
            assert code == 0
            paths.append(p)
        a, b = (p.read_bytes() for p in paths)
        assert a == b
        assert a.decode().splitlines()[0] == ",".join(MAXIMIZE_COLUMNS)


def test_table(capsys):
    code, out = run_cli(capsys, "table", "--n", "2-5", "--format", "csv")
    lines = out.splitlines()
    assert code == 0
    assert len(lines) == 5
    assert [row.split(",")[0] for row in lines[1:]] == ["2", "3", "4", "5"]
    code, out = run_cli(capsys, "table", "--n", "4,9")
    assert code == 0
    assert out.splitlines()[0].startswith("n ")
    assert run_cli(capsys, "table", "--n", "9-4")[0] == 2


@pytest.mark.parametrize("spec", ["5-", "abc", "1-3,x"])
def test_table_bad_range_names_the_chunk(capsys, spec):
    assert cli.main(["table", "--n", spec]) == 2
    out, err = capsys.readouterr()
    bad = spec.split(",")[-1]
    assert (out, err) == ("", f"error: bad n range {bad!r}\n")


def test_shape_svg(tmp_path, capsys):
    svg = tmp_path / "probe.svg"
    code, out = run_cli(capsys, "shape", "--n", "6", "--out", str(svg))
    assert code == 0
    assert out.splitlines()[0] == str(svg)
    assert "functional(envelope) = " in out
    root = ET.parse(svg).getroot()
    assert root.tag == f"{SVG}svg"
    ids = {el.get("id") for el in root.findall(f"{SVG}polyline")}
    assert ids == {"asymptote", "profile", "envelope", "vershik"}
    assert root.find(f"{SVG}g[@id='legend']") is not None
    caption = root.find(f"{SVG}text[@id='caption']")
    assert caption is not None and "d(profile, limit curve)" in caption.text
    assert svg.read_text().startswith("<?xml")


def test_shape_default_filename(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out = run_cli(capsys, "shape", "--n", "4")
    assert code == 0
    assert (tmp_path / "shape-n4-k1.svg").exists()


def test_shape_json(tmp_path, capsys):
    svg = tmp_path / "j.svg"
    code, out = run_cli(capsys, "shape", "--n", "4", "--format", "json", "--out", str(svg))
    payload = json.loads(out)
    assert payload["svg"] == str(svg)
    assert payload["envelope_distance"] <= payload["profile_distance"]


def test_exit_code_parse_errors(capsys):
    assert run_cli(capsys, "count", "2,x")[0] == 2
    assert run_cli(capsys, "count", "1,2")[0] == 2
    assert run_cli(capsys, "count", "2,1", "--k", "0")[0] == 2
    assert run_cli(capsys, "pn", "-5")[0] == 2


def test_count_reads_decimal_digits_only(capsys):
    # a superscript two is a digit to str.isdigit but not to int()
    for text, part in (("\u00b2", "\u00b2"), ("3,-\u00b2", "-\u00b2")):
        assert cli.main(["count", text]) == 2
        assert capsys.readouterr().err == f"error: bad part {part!r} in partition text {text!r}\n"
    # Arabic-Indic 3,1
    assert run_cli(capsys, "count", "\u0663,\u0661") == (0, "7\n")


def test_exit_code_resource(capsys):
    assert run_cli(capsys, "maximize", "--n", "40", "--cap", "10")[0] == 3


def test_scan_cap_refused_before_tabulating(capsys):
    start = time.perf_counter()
    assert run_cli(capsys, "maximize", "--n", "100000") == (3, "")
    assert time.perf_counter() - start < 1.0


def test_table_refused_before_any_scan(capsys, monkeypatch):
    def scan(*args, **kwargs):
        raise AssertionError("table scanned before checking its largest n")

    monkeypatch.setattr(cli, "find_maximizers", scan)
    assert run_cli(capsys, "table", "--n", "1-100") == (3, "")
    assert run_cli(capsys, "table", "--n", "1-6", "--cap", "10") == (3, "")
    assert run_cli(capsys, "table", "--n", "3,0") == (2, "")


def test_pn_cap_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(counting, "DEFAULT_STATE_CAP", 10)
    assert run_cli(capsys, "pn", "11") == (3, "")
    assert run_cli(capsys, "pn", "10") == (0, "42\n")


def test_chain_count_cap_exits_3_upfront(capsys):
    for argv in (
        ["count", "1", "--k", "1000"],
        ["count", "1", "--k", "1000", "--strict"],
        ["maximize", "--n", "6", "--k", "1000"],
        ["table", "--n", "1-6", "--k", "1000"],
        ["shape", "--n", "6", "--k", "1000"],
        # the boundaries: 708^2 times the window 2 of (1) is the first
        # count past the cap, and 578^2 * (1 + 2) the first scan
        ["count", "1", "--k", "708"],
        ["maximize", "--n", "1", "--k", "578"],
    ):
        start = time.perf_counter()
        assert run_cli(capsys, *argv) == (3, "")
        assert time.perf_counter() - start < 1.0, argv


def test_one_chain_count_at_the_window_cap(capsys):
    # (999999) has window 1,000,000, the cap itself: it parses, and its
    # 1-chain count, weak or strict, is not refused
    for flags in ([], ["--k", "1"], ["--k", "1", "--strict"]):
        assert run_cli(capsys, "count", "999999", *flags) == (0, "1000000\n")
    # (1), window 2, and the empty partition, counted as one column
    for parts, k in (((1,), 1000), ((), 1001)):
        with pytest.raises(partitions.ResourceLimitError):
            counting.count_kchains(partitions.Partition(parts), k)


@pytest.mark.parametrize("command", ["count", "bound"])
def test_partition_window_cap_exits_3(capsys, monkeypatch, command):
    monkeypatch.setattr(partitions, "DEFAULT_STATE_CAP", 10)
    assert run_cli(capsys, command, "20") == (3, "")
    assert run_cli(capsys, command, "9,1") == (3, "")
    assert run_cli(capsys, command, "8,1")[0] == 0


@pytest.mark.parametrize(
    "command",
    # verify takes no --jobs at all, so it refuses these values too.
    [["maximize", "--n", "4"], ["table", "--n", "4"], ["shape", "--n", "4"], ["verify"]],
)
@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_jobs_below_one_rejected(command, jobs):
    with pytest.raises(SystemExit) as err:
        cli.main(command + ["--jobs", jobs])
    assert err.value.code == 2


@pytest.mark.parametrize(
    "command", [["maximize", "--n", "3"], ["table", "--n", "3"], ["shape", "--n", "3"]]
)
@pytest.mark.parametrize("cap", ["0", "-5"])
def test_cap_below_one_rejected(command, cap):
    # a bad --cap is bad input (2), not a cap refusal (3)
    with pytest.raises(SystemExit) as err:
        cli.main(command + ["--cap", cap])
    assert err.value.code == 2


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-text digit limit"
)
def test_count_past_int_text_limit(capsys):
    # C(2200, 1100) has 661 digits: past a lowered limit, as 4,333-digit
    # counts are past the default one
    square = ",".join(["1100"] * 1100)
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        digits = str(math.comb(2200, 1100))
        sys.set_int_max_str_digits(640)
        assert run_cli(capsys, "count", square) == (0, digits + "\n")
        code, out = run_cli(capsys, "count", square, "--format", "json")
        assert code == 0 and json.loads(out)["value"] == digits
        code, out = run_cli(capsys, "count", square, "--format", "csv")
        assert code == 0 and out.splitlines()[1].rsplit(",", 2)[1] == digits
        assert sys.get_int_max_str_digits() == 640
        # argv keeps the guard: the part is refused as text (2), not as a
        # window past the cap (3)
        code = cli.main(["count", "9" * 700])
        assert code == 2 and "limit" in capsys.readouterr().err
    finally:
        sys.set_int_max_str_digits(limit)


def test_exit_code_io(capsys):
    assert run_cli(capsys, "pn", "5", "--out", "/nonexistent-dir/x.txt")[0] == 4


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as err:
        cli.main(["frobnicate"])
    assert err.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "3,1", "--seed", "1"],
        ["pn", "5", "--jobs", "2"],
        ["chains", "2,2", "--k", "2"],
        ["verify", "--format", "csv"],
        ["verify", "--jobs", "2"],
    ],
)
def test_unread_flags_and_commands_rejected(argv):
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    assert err.value.code == 2


# main builds the parser of the command that argv names, or the full tree;
# each must parse every argv alike.  Kept before any test patches it.
FULL_PARSER = cli.build_parser


def _commands(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return list(action.choices)


def _parse_outcome(parser, argv, capsys):
    """The Namespace, or the exit code, that parsing argv gives, with what it printed."""
    try:
        result = parser.parse_args(argv)
    except SystemExit as exc:
        result = exc.code
    printed = capsys.readouterr()
    return result, printed.out, printed.err


def _spy_on_build_parser(monkeypatch):
    built = []

    def spy(*args):
        built.append(FULL_PARSER(*args))
        return built[-1]

    monkeypatch.setattr(cli, "build_parser", spy)
    return built


PARSER_ORACLE_ARGV = [
    [],
    ["-h"],
    ["--help"],
    ["frobnicate"],
    ["--", "count", "1"],
    ["maximize", "--n"],
    ["verify", "--lev", "fast"],
    # its usage line names every command
    ["count", "1", "extra"],
    ["count", "2,2", "--k", "2", "--strict"],
    ["pn", "5", "--format", "json"],
    ["bound", "4,2,1", "--out", "b.txt"],
    ["maximize", "--n", "6", "--jobs", "2"],
    ["table", "--n", "1-4", "--cap", "9", "--format", "csv"],
    ["shape", "--n", "5", "--k", "2"],
    ["verify", "--seed", "3", "--format", "json"],
] + [[command, "--help"] for command in cli.COMMANDS]


@pytest.mark.parametrize("argv", PARSER_ORACLE_ARGV, ids=lambda argv: shlex.join(argv) or "(none)")
def test_parser_main_builds_matches_the_full_tree(argv, capsys, monkeypatch, tmp_path):
    # bound and shape write their files into the working directory
    monkeypatch.chdir(tmp_path)
    built = _spy_on_build_parser(monkeypatch)
    try:
        cli.main(argv)
    except SystemExit:
        pass
    (own,) = built
    capsys.readouterr()
    named = argv[:1] if argv and argv[0] in cli.COMMANDS else list(cli.COMMANDS)
    assert _commands(own) == named
    # COLUMNS fixes where argparse wraps help and usage
    for columns in ("40", "80", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        assert _parse_outcome(own, argv, capsys) == _parse_outcome(FULL_PARSER(), argv, capsys)


# each command in the order --help lists it, with its help string and the usage of its flags
COMMAND_HELP = [
    ("count", "count subpartitions or k-chains",
     "[-h] [--format {text,json,csv}] [--out OUT] [--k K] [--strict] partition"),
    ("pn", "partition numbers p(n)", "[-h] [--format {text,json,csv}] [--out OUT] n"),
    ("bound", "envelope bound on the subpartition count",
     "[-h] [--format {text,json,csv}] [--out OUT] partition"),
    ("maximize", "find all count-maximizing partitions of n",
     "[-h] [--format {text,json,csv}] [--out OUT] [--jobs JOBS] [--cap CAP] --n N [--k K]"),
    ("table", "maximizer reports over a range of n",
     "[-h] [--format {text,json,csv}] [--out OUT] [--jobs JOBS] [--cap CAP] --n N [--k K]"),
    ("shape", "SVG of the maximizer shape against the limit curve",
     "[-h] [--format {text,json}] [--out OUT] [--jobs JOBS] [--cap CAP] --n N [--k K]"),
    ("verify", "run the self-verification suites",
     "[-h] [--format {text,json}] [--out OUT] [--level {fast,full}] [--seed SEED]"),
]


def _help_text(capsys, *argv):
    with pytest.raises(SystemExit) as err:
        cli.main(list(argv))
    assert err.value.code == 0
    return capsys.readouterr().out


def test_build_parser_without_a_command_builds_all_seven(capsys, monkeypatch):
    # the benchmark's set-up code times this call
    assert _commands(cli.build_parser()) == [name for name, _, _ in COMMAND_HELP]
    monkeypatch.setenv("COLUMNS", "200")
    listed = re.findall(r"^ {4}(\S+) +(\S.*)$", _help_text(capsys, "--help"), flags=re.M)
    assert listed == [(name, help_text) for name, help_text, _ in COMMAND_HELP]
    for name, _, usage in COMMAND_HELP:
        assert _help_text(capsys, name, "--help").startswith(f"usage: subpart {name} {usage}\n")


def test_out_file_matches_stdout(tmp_path, capsys):
    code, out = run_cli(capsys, "pn", "30")
    target = tmp_path / "pn.txt"
    assert cli.main(["pn", "30", "--out", str(target)]) == 0
    assert target.read_text() == out


# the modules under subpart that each statement loads in a fresh process
CLI_MODULES = ("cli", "counting", "envelope", "partitions", "render")
SCAN_MODULES = CLI_MODULES + ("maximizer", "ratefn", "shapes")
# stdlib modules that none of these statements needs in this process
WATCHED_STDLIB = (
    "dataclasses", "inspect", "json", "multiprocessing", "threading", "xml.etree.ElementTree"
)


def _main(*argv):
    return f"from subpart import cli; assert cli.main({list(argv)!r}) == 0"


@pytest.mark.parametrize(
    "statement, loaded",
    [
        pytest.param("import subpart", (), id="import subpart"),
        pytest.param("from subpart import cli; cli.build_parser()", CLI_MODULES, id="build_parser"),
        pytest.param(_main("count", "4,2,1"), CLI_MODULES, id="count"),
        pytest.param(_main("pn", "30"), CLI_MODULES, id="pn"),
        pytest.param(_main("bound", "4,2,1"), CLI_MODULES + ("ratefn",), id="bound"),
        # the branch of _scan_maxima that runs a kernel imports its module:
        # the branch and bound at k = 1, the chain walk at k >= 2
        pytest.param(
            _main("maximize", "--n", "12"), SCAN_MODULES + ("scan_bounded",), id="maximize"
        ),
        pytest.param(
            _main("maximize", "--n", "12", "--k", "2"),
            SCAN_MODULES + ("scan_chains",),
            id="maximize --k 2",
        ),
        # verify, whose scans run in its forked half, loads both kernels here
        # before it forks
        pytest.param(
            _main("verify"),
            SCAN_MODULES + ("scan_bounded", "scan_chains", "oracles", "verify"),
            id="verify",
        ),
    ],
)
def test_statement_loads_exactly_its_modules(statement, loaded):
    # diffed against a snapshot, so a site hook that loads json is no failure
    code = (
        f"import sys; before = set(sys.modules); {statement}; "
        "new = set(sys.modules) - before; "
        f"print(sorted(m for m in new if m.split('.')[0] == 'subpart' or m in {WATCHED_STDLIB!r}))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    want = sorted(["subpart", *(f"subpart.{m}" for m in loaded)])
    assert proc.stdout.splitlines()[-1] == repr(want)


def test_count_loads_neither_verify_nor_svgplot():
    # a cold count's stdout, and no snapshot: neither module is loaded at all
    code = (
        "import sys; from subpart import cli; code = cli.main(['count', '4,2,1']); "
        "print(code, [m for m in ('subpart.verify', 'subpart.svgplot') if m in sys.modules])"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "19\n0 []\n"


# a scan and a bound import maximizer and ratefn on first use, and a scan
# its kernel; in process another test has usually imported them already, so
# run each cold once
@pytest.mark.parametrize(
    "argv",
    [
        ["maximize", "--n", "12", "--format", "csv"],
        ["bound", "4,2,1"],
        ["maximize", "--n", "12", "--k", "2", "--format", "csv"],
    ],
)
def test_cold_lazy_commands_match_in_process(argv, capsys):
    proc = subprocess.run(
        [sys.executable, "-m", "subpart.cli", *argv], capture_output=True, text=True
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert run_cli(capsys, *argv) == (0, proc.stdout)


def test_cold_shape_matches_in_process(tmp_path, capsys):
    svg = tmp_path / "s.svg"
    proc = subprocess.run(
        [sys.executable, "-m", "subpart.cli", "shape", "--n", "6", "--out", str(svg)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    cold = svg.read_bytes()
    svg.unlink()
    assert run_cli(capsys, "shape", "--n", "6", "--out", str(svg)) == (0, proc.stdout)
    assert svg.read_bytes() == cold


def test_forked_count_prints_buffered_stdout_once(tmp_path):
    # stdout to a file is block-buffered: text written before the count is
    # still in the buffer when the child forks, and only the parent flushes
    # it.  -W always puts any warning, such as Python 3.12+'s
    # DeprecationWarning for a fork in a process with threads, in the
    # compared stderr (-W error would not: 3.12 and 3.13 drop that warning
    # silently under it)
    n = 700
    code = (
        "import os, sys; from subpart import cli; forks, fork = [], os.fork; "
        "os.fork = lambda: forks.append(1) or fork(); sys.stdout.write('before\\n'); "
        f"code = cli.main(['count', ','.join(map(str, range({n}, 0, -1)))]); "
        "print(code, len(forks), file=sys.stderr)"
    )
    out = tmp_path / "out.txt"
    with out.open("w") as stdout:
        proc = subprocess.run(
            [sys.executable, "-W", "always", "-c", code],
            stdout=stdout,
            stderr=subprocess.PIPE,
            text=True,
        )
    assert (proc.returncode, proc.stderr) == (0, "0 1\n")
    catalan = math.comb(2 * n + 2, n + 1) // (n + 2)
    assert out.read_text() == f"before\n{catalan}\n"


def test_forked_verify_prints_buffered_stdout_once(tmp_path):
    # as above: the child runs the second half of the checks and must not
    # flush the text written before them, nor print a report of its own
    code = (
        "import os, sys; from subpart import cli; forks, fork = [], os.fork; "
        "os.fork = lambda: forks.append(1) or fork(); sys.stdout.write('before\\n'); "
        "code = cli.main(['verify', '--level', 'fast']); "
        "print(code, len(forks), file=sys.stderr)"
    )
    out = tmp_path / "out.txt"
    with out.open("w") as stdout:
        proc = subprocess.run(
            [sys.executable, "-W", "always", "-c", code],
            stdout=stdout,
            stderr=subprocess.PIPE,
            text=True,
        )
    assert (proc.returncode, proc.stderr) == (0, "0 1\n")
    lines = out.read_text().splitlines()
    assert lines[0] == "before" and len(lines) == 1 + len(CHECKS) + 1
    assert [line.split(":")[0] for line in lines[1:-1]] == [f"PASS {name}" for name, _ in CHECKS]
    assert lines[-1] == f"{len(CHECKS)}/{len(CHECKS)} checks passed at level fast"


# library names that only verify and the tests used; they moved beside the
# oracles, or were deleted, and are off the package's public surface
MOVED_NAMES = (
    "ConstantsReport",
    "DiscreteFunction",
    "decreasing_lower_convex_envelope",
    "enumerate_partitions",
    "hardy_ramanujan_exponent",
    "is_subpartition",
    "log_cosh",
    "path_energy",
    "rate_function_numeric",
    "verify_constants",
)


def test_public_names_resolve_to_their_home_modules():
    import importlib

    import subpart

    for name in subpart.__all__:
        if name == "__version__":
            continue
        value = getattr(subpart, name)
        # the table names the defining module, so a name loads no more than that
        assert value.__module__ == f"subpart.{subpart._HOMES[name]}", name
        assert getattr(importlib.import_module(value.__module__), name) is value, name
    assert set(subpart.__all__) <= set(dir(subpart))
    assert [name for name in MOVED_NAMES if name in subpart.__all__ or hasattr(subpart, name)] == []
    with pytest.raises(AttributeError):
        subpart.no_such_name


def test_star_import_binds_all_public_names():
    code = "from subpart import *; import subpart; print(sorted(set(subpart.__all__) - set(globals())))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "[]\n")


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "subpart.cli", "pn", "10"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "42\n"


# Every command plus one unknown, every flag, and a small value vocabulary.
# "full" is left out, so verify runs only at --level fast: a full run takes
# about 2 s, too long to repeat across examples.
_OUTPUT = ["--format", "--out"]
_SCAN = _OUTPUT + ["--jobs", "--cap", "--n", "--k"]
FUZZ_COMMANDS = {
    "count": _OUTPUT + ["--k", "--strict"],
    "pn": _OUTPUT,
    "bound": _OUTPUT,
    "maximize": _SCAN,
    "table": _SCAN,
    "shape": _SCAN,
    "verify": _OUTPUT + ["--level", "--seed"],
    "frobnicate": [],
}
FUZZ_FLAGS = sorted({flag for flags in FUZZ_COMMANDS.values() for flag in flags} | {"--help"})
FUZZ_INTS = [str(i) for i in range(-3, 13)]
FUZZ_TYPED = {
    "--format": ["text", "json", "csv"],
    "--out": ["out.txt", "missing/out.txt"],
    "--level": ["fast"],
}
FUZZ_VALUES = FUZZ_INTS + ["", "x", "3,1", "1-3", "9-4"] + sorted(
    {value for values in FUZZ_TYPED.values() for value in values}
)


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(FUZZ_COMMANDS)))
    argv = [command]
    # half the time the command gets what it requires and each flag it reads
    # a value of its type, so the handlers run, not only the parser
    typed = draw(st.booleans())
    if typed and command in ("maximize", "table", "shape"):
        argv += ["--n", draw(st.sampled_from(FUZZ_INTS))]
    elif draw(st.booleans()) or (typed and command in ("count", "pn", "bound")):
        argv.append(draw(st.sampled_from(FUZZ_VALUES)))
    flags = (typed and FUZZ_COMMANDS[command]) or FUZZ_FLAGS
    for flag in draw(st.lists(st.sampled_from(flags), max_size=4)):
        argv.append(flag)
        if flag not in ("--strict", "--help"):
            vocabulary = FUZZ_TYPED.get(flag, FUZZ_INTS) if typed else FUZZ_VALUES
            argv.append(draw(st.sampled_from(vocabulary)))
    return argv


@settings(
    derandomize=True,
    database=None,
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(_argv())
def test_any_argv_ends_in_a_documented_exit_code(tmp_path, monkeypatch, capsys, argv):
    # shape writes its SVG into the working directory when --out is absent
    monkeypatch.chdir(tmp_path)
    built = _spy_on_build_parser(monkeypatch)
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        assert exc.code in (0, 2), argv
    else:
        assert code in (0, 2, 3, 4) or (code == 1 and argv[0] == "verify"), (argv, code)
    capsys.readouterr()
    assert _parse_outcome(built[-1], argv, capsys) == _parse_outcome(FULL_PARSER(), argv, capsys)
