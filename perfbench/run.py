"""Benchmark of the subpart command line, run from the root of a checkout.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 25 --trace 0

Each operation calls ``subpart.cli.main`` in this process with argv built
by ``workloads.py`` and checks every invocation's output outside the timed
span.  Operations run back to back (a closed loop with one client) until
``--seconds`` have passed, and at least ``MIN_OPS`` times.

With ``--trace 0`` the last line of stdout reports the end-to-end metrics
named in BENCHMARK.json: the median wall seconds of one operation and the
set-up time of a fresh interpreter (median of ``SETUP_LAUNCHES``), both
rescaled to nominal host speed by ``HostClock``; the peak resident memory
of a fresh process running one operation; and the share of invocations
that succeeded.  With ``--trace 1`` untraced and
traced operations alternate; the traced ones give the per-layer metrics
(medians over operations) and the difference of the two medians gives the
tracing overhead.  The spans are written to ``.bench_build/perfbench/``.

Exits with status 2, printing no result, when the checkout has no program.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Relative to ROOT, which is the working directory once main() starts.
SCRATCH = Path(".bench_build") / "perfbench"

MIN_OPS = 3
REF_N = 28
# The reference kernel's typical time on the reference machine.
REF_NOMINAL_S = 0.085
SETUP_LAUNCHES = 9
# A child that runs longer is killed, so a run still ends within its limit.
CHILD_TIMEOUT_S = 60
SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, 'src')\n"
    "import subpart.cli\n"
    "subpart.cli.build_parser()\n"
    # CLOCK_MONOTONIC is system-wide, so the parent can subtract its own reading.
    "print(time.monotonic())\n"
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--rss-probe", action="store_true",
        help="internal: run one operation and print this process's peak RSS",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "subpart" / "cli.py").is_file():
        print(f"error: no program at {SRC / 'subpart'}; run from a full checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; choose from {workloads.NAMES}", file=sys.stderr)
        return 2
    SCRATCH.mkdir(parents=True, exist_ok=True)
    from subpart import cli

    op = workloads.build(args.workload, args.seed, SCRATCH)
    if args.rss_probe:
        for inv in op:
            _invoke(cli.main, inv.argv)
        self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        child_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        print(json.dumps({"peak_rss_kib": max(self_kib, child_kib)}))
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    runner = Runner(cli.main, op)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    if args.trace:
        values = _traced(runner, args)
        declared = spec["per_layer"]
    else:
        values = _untraced(runner, args)
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in declared}
    for label, problem in runner.problems.items():
        print(f"failed {label}: {problem}")
    print(
        f"invocations {runner.attempted}  failed {runner.failed}  "
        f"fail_frac {runner.failed / runner.attempted:.6f}  wrong outputs {runner.wrong}"
    )
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps({
        "correct": runner.wrong == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


def _invoke(main, argv):
    """Call the CLI with captured output; returns (exit status or the
    exception raised, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = main(argv)
    except SystemExit as exc:
        status = exc.code
    except Exception as exc:  # an escaped exception is a failed invocation
        status = exc
    return status, out.getvalue()


class Runner:
    """Runs operations and checks each invocation's output."""

    def __init__(self, main, op) -> None:
        self.main = main
        self.op = op
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.problems: dict[str, str] = {}

    def run(self, call=None, clock=None) -> tuple[float, float]:
        """One operation; returns the wall seconds spent inside the CLI,
        and the same with each invocation rescaled by ``clock`` if given.
        ``call(main, argv)`` may wrap the CLI call (the tracer does)."""
        gc.collect()
        wall = scaled = 0.0
        for inv in self.op:
            start = time.perf_counter()
            if call is None:
                status, out = _invoke(self.main, inv.argv)
            else:
                status, out = call(lambda argv: _invoke(self.main, argv), inv.argv)
            seconds = time.perf_counter() - start
            wall += seconds
            scaled += seconds if clock is None else clock.scale(seconds)
            self.attempted += 1
            problem = None
            if isinstance(status, BaseException):
                problem = f"raised {type(status).__name__}: {status}"
            elif status != 0:
                problem = f"exit status {status}"
            elif not inv.check(out):
                problem = "output differs from the expected output"
                self.wrong += 1
            if problem is not None:
                self.failed += 1
                self.problems.setdefault(inv.label, problem)
        return wall, scaled


def _loop(seconds: float, step) -> None:
    deadline = time.perf_counter() + seconds
    done = 0
    while done < MIN_OPS or time.perf_counter() < deadline:
        step()
        done += 1


def _summary(name: str, samples: list[float]) -> str:
    q1, med, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 else samples * 3
    text = f"{name} samples {len(samples)}  median {med:.4f}  q1 {q1:.4f}  q3 {q3:.4f}"
    # The highest whole percentile with at least ten samples above it.
    if len(samples) > 10:
        pct = 100 * (len(samples) - 10) // len(samples)
        value = statistics.quantiles(samples, n=100)[pct - 1]
        text += f"  p{pct} {value:.4f}"
    return text


def _untraced(runner: Runner, args) -> dict[str, float]:
    clock = HostClock()
    setup_raw: list[float] = []
    setup: list[float] = []
    for _ in range(SETUP_LAUNCHES):
        setup_raw.append(_setup_seconds())
        setup.append(clock.scale(setup_raw[-1]))
    rss_mib = _peak_rss_kib(args) / 1024.0
    clock = HostClock()
    times_raw: list[float] = []
    times: list[float] = []

    def step():
        wall, scaled = runner.run(clock=clock)
        times_raw.append(wall)
        times.append(scaled)

    _loop(args.seconds, step)
    print(_summary("op_s", times))
    print(_summary("op_s wall", times_raw))
    print(_summary("setup_s", setup))
    print(_summary("setup_s wall", setup_raw))
    print(_summary("reference kernel s", clock.refs))
    return {
        "op_s": statistics.median(times),
        "setup_s": statistics.median(setup),
        "peak_rss_mib": rss_mib,
        "ok_frac": 1.0 - runner.failed / runner.attempted,
    }


class HostClock:
    """Rescales measured times to a host of nominal speed.

    The host's speed drifts by tens of percent over seconds to minutes,
    invisibly to this process (its CPU time tracks wall time).  A fixed
    reference kernel is timed before the first interval and after each
    one (an interval is one invocation or one interpreter launch); each
    interval is multiplied by REF_NOMINAL_S over the mean of the two
    kernel times around it.  perfbench/README.md gives the spreads of run
    medians measured with and without this.
    """

    def __init__(self) -> None:
        self.refs = [_reference_seconds()]

    def scale(self, seconds: float) -> float:
        # Only valid right after the interval: the kernel runs now.
        self.refs.append(_reference_seconds())
        return seconds * REF_NOMINAL_S / ((self.refs[-2] + self.refs[-1]) / 2)


def _reference_seconds() -> float:
    """Time one pass of a kernel shaped like the program's scan: enumerate
    the partitions of REF_N and run a row DP on each.  It belongs to the
    benchmark and must never change, or scaled times lose their unit."""
    start = time.perf_counter()
    for parts in _ref_partitions(REF_N, REF_N):
        counts = [1] * (parts[-1] + 1)
        for i in range(len(parts) - 2, -1, -1):
            prefix = [0] * (len(counts) + 1)
            for v, c in enumerate(counts):
                prefix[v + 1] = prefix[v] + c
            top = len(counts) - 1
            counts = [prefix[min(v, top) + 1] for v in range(parts[i] + 1)]
    return time.perf_counter() - start


def _ref_partitions(n: int, largest: int):
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest), 0, -1):
        for rest in _ref_partitions(n - part, part):
            yield (part,) + rest


def _setup_seconds() -> float:
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE],
        capture_output=True, text=True, check=True, timeout=CHILD_TIMEOUT_S,
    )
    return float(done.stdout) - start


def _peak_rss_kib(args) -> float:
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--rss-probe",
        ],
        capture_output=True, text=True, check=True, timeout=CHILD_TIMEOUT_S,
    )
    return float(json.loads(done.stdout.splitlines()[-1])["peak_rss_kib"])


def _traced(runner: Runner, args) -> dict[str, float]:
    import tracing

    tracer = tracing.Tracer()
    plain: list[float] = []
    traced: list[float] = []
    samples: list[dict[str, float]] = []
    starts: list[int] = []

    def call(invoke, argv):
        return tracer.call("cli.main", invoke, (argv,), {})

    def step():
        plain.append(runner.run()[0])
        mark = tracer.mark()
        starts.append(mark[0])
        tracer.install()
        try:
            traced.append(runner.run(call)[0])
        finally:
            tracer.uninstall()
        samples.append(tracer.metrics(mark))

    _loop(args.seconds, step)
    tracer.dump(SCRATCH / f"spans-{args.workload}-seed{args.seed}.tsv", starts)
    print(_summary("op_s untraced", plain))
    print(_summary("op_s traced", traced))
    names = {name for sample in samples for name in sample}
    values = {name: statistics.median(s.get(name, 0.0) for s in samples) for name in names}
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return values


if __name__ == "__main__":
    sys.exit(main())
