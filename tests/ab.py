"""In-process A/B timing of two source trees; it measures and gates nothing.

    python tests/ab.py BASE HEAD [CASE ...] [--pairs 10] [--rounds 15]

BASE and HEAD are checkouts with a src/ directory, such as an unpacked
``git archive`` of a base revision and ``.``.  Per case, fresh subprocesses
run in pairs, one per tree, alternating which goes first; each warms the
case up once and prints the median of its rounds.  The script prints each
tree's median over the pairs (BASE's with its quartiles), HEAD/BASE, the
pairs HEAD won, and the lowest and highest ratio of three A/A pairs of
HEAD against itself: the noise a HEAD/BASE ratio is read against.  After
each case's line it prints the same figures as one JSON object, the
record a perf change keeps beside its numbers.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

# verify's halves and whole fast run, in process at seed 7; scans named
# scan-<n>-<k>; the k = 1 scan's bound table at n = 45
CASES = (
    "verify-first",
    "verify-second",
    "verify",
    "scan-45-1",
    "scan-100-1",
    "scan-28-2",
    "scan-45-2",
    "scan-60-2",
    "scan-30-3",
    "scan-45-3",
    "bound-table-45",
)


def child(name, rounds):
    from subpart import scan_bounded, verify
    from subpart.maximizer import _scan_maxima

    if name.startswith("scan-"):
        n, k = map(int, name.split("-")[1:])
        run = lambda: _scan_maxima(n, k)
    elif name == "bound-table-45":
        run = lambda: scan_bounded._bound_table(45)
    elif name == "verify":
        run = lambda: verify.run_verification("fast", seed=7)
    else:  # the two halves that run_verification hands the fork helper
        halves = []
        verify._in_two = lambda here, there: halves.extend((here, there)) or ([], [])
        verify.run_verification("fast", seed=7)
        run = halves[name == "verify-second"]
    times = []
    for _ in range(rounds + 1):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    print(statistics.median(times[1:]) * 1e3)


def median_ms(tree, name, rounds):
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, __file__, "--child", name, str(rounds)]
    return float(subprocess.run(argv, env=env, check=True, capture_output=True, text=True).stdout)


def main(argv):
    parser = argparse.ArgumentParser(description="in-process A/B timing of two source trees")
    parser.add_argument("base")
    parser.add_argument("head")
    parser.add_argument("cases", nargs="*", metavar="CASE", help=f"of {', '.join(CASES)}")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--rounds", type=int, default=15)
    args = parser.parse_args(argv)
    for name in args.cases or CASES:
        if name not in CASES:
            parser.error(f"unknown case {name!r}")
        a, b = [], []
        for i in range(args.pairs):
            sides = [(a, args.base), (b, args.head)]
            for runs, tree in sides if i % 2 == 0 else sides[::-1]:
                runs.append(median_ms(tree, name, args.rounds))
        q1, _, q3 = statistics.quantiles(a, n=4) if len(a) > 1 else a * 3
        aa = [
            median_ms(args.head, name, args.rounds) / median_ms(args.head, name, args.rounds)
            for _ in range(3)
        ]
        base, head = statistics.median(a), statistics.median(b)
        won = sum(map(float.__lt__, b, a))
        print(
            f"{name}: base {base:.2f} ms (q1 {q1:.2f}, q3 {q3:.2f}), "
            f"head {head:.2f} ms, head/base {head / base:.3f}, "
            f"head won {won}/{args.pairs}; A/A {min(aa):.3f} to {max(aa):.3f}"
        )
        record = {
            "case": name,
            "base_ms": base,
            "base_q1_ms": q1,
            "base_q3_ms": q3,
            "head_ms": head,
            "head_over_base": head / base,
            "head_won": won,
            "pairs": args.pairs,
            "aa_min": min(aa),
            "aa_max": max(aa),
        }
        print(json.dumps(record), flush=True)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        child(sys.argv[2], int(sys.argv[3]))
    else:
        main(sys.argv[1:])
