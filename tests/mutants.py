"""Mutation checks: small edits to the source that some test must catch.

    python tests/mutants.py

Each mutant names a file under src/, an exact old text that occurs there
once, the new text, why the change is wrong, and the test files (pytest
targets) that must catch it.  For each mutant the script copies src/ and
tests/ into a temporary directory, makes the edit in the copy, and runs the
mutant's tests there with ``pytest -x``, one pytest process at a time and
each under a timeout.  Plugin autoload is off in those processes, which
halves each one's start-up: no test uses a plugin's fixture, and
hypothesis's ``@given`` runs without its plugin.  A mutant is killed when pytest reports a failure or
a collection error, or runs past the timeout.  Before the mutants, the
unedited copy must pass every listed target.

The run exits 1 when a mutant survives, when a mutant's old text is gone
or occurs more than once (a change that moves the code must update this
list), or when pytest ends in any other way.  Tier-1 does not collect this
file: its name does not start with ``test_``.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT = 60.0
VERDICTS = {"failed": "killed", "timeout": "killed (timeout)", "passed": "SURVIVED"}

VERIFY = "src/subpart/verify.py"
MAXIMIZER = "src/subpart/maximizer.py"
SCAN_BOUNDED = "src/subpart/scan_bounded.py"
SCAN_CHAINS = "src/subpart/scan_chains.py"
CLI = "src/subpart/cli.py"
RENDER = "src/subpart/render.py"
COUNTING = "src/subpart/counting.py"
ORACLES = "src/subpart/oracles.py"
PARTITIONS = "src/subpart/partitions.py"
ENVELOPE = "src/subpart/envelope.py"
RATEFN = "src/subpart/ratefn.py"
INIT = "src/subpart/__init__.py"
GOLDEN_FAST = ["tests/test_cli.py::test_output_matches_golden_bytes"]
GOLDEN_FULL = ["tests/test_verify.py::test_full_level_matches_golden"]
MAXIMIZER_TESTS = "tests/test_maximizer.py"
SCAN = [MAXIMIZER_TESTS]
BOUND_RECURRENCE = [f"{MAXIMIZER_TESTS}::test_bound_table_matches_its_recurrence"]
BOUNDED_N45 = [f"{MAXIMIZER_TESTS}::test_bounded_scan_counts_at_n45"]
PUSHES_2 = [f"{MAXIMIZER_TESTS}::test_scan_pushes_only_nodes_with_grandchildren[2]"]
CHAIN_SCAN_2 = [f"{MAXIMIZER_TESTS}::test_chain_scan_matches_per_partition_counts[2]"]
EVERY_LEAF_2 = [f"{MAXIMIZER_TESTS}::test_scan_scores_every_leaf_exactly[2-16]"]
PAIR_WALK = ["tests/test_properties.py::test_pair_walk_matches_generic_walk"]
PROPERTIES = ["tests/test_properties.py"]
RECORDS = ["tests/test_records.py"]
CLI_TESTS = ["tests/test_cli.py"]
KERNEL_LOADS = ["tests/test_cli.py::test_statement_loads_exactly_its_modules"]
PUBLIC_NAMES = ["tests/test_cli.py::test_public_names_resolve_to_their_home_modules"]
ENVELOPE_TESTS = ["tests/test_envelope.py"]
FORKED_REGISTRY = ["tests/test_verify.py::test_forked_registry_matches_the_in_process_run"]
OTHER_SEEDS = ["tests/test_verify.py::test_suite_passes_under_other_seeds"]
PER_RUN = ["tests/test_verify.py::test_no_count_outlives_its_run"]
DETERMINANT_NAMED = ["tests/test_verify.py::test_chain_count_mismatch_names_the_determinant"]
POSET = [
    "tests/test_counting.py::"
    "test_poset_chain_counts_match_the_determinant_and_the_run_length_transform"
]
BOUND_CELLS = ["tests/test_counting.py::test_envelope_bound_matches_the_cell_by_cell_route"]
PARTITIONS_TESTS = ["tests/test_partitions.py"]
# the direct tests of counting._in_two; the escape test runs first, so that
# a child that leaves the call stops there and runs no other test
IN_TWO = [
    f"tests/test_counting.py::{name}"
    for name in (
        "test_no_child_leaves_in_two",
        "test_in_two_runs_there_in_a_child_or_else_here",
        "test_in_two_kills_the_child_when_here_raises",
    )
]
# a chain-count DP mutant runs under the property tests and verify's full-level golden
CHAINS = PROPERTIES + GOLDEN_FULL

# (file, old text, new text, why, pytest targets)
MUTANTS = [
    (VERIFY, "formula_n=8,", "formula_n=7,", "FAST formula sweep one smaller", GOLDEN_FAST),
    (VERIFY, "paired_n=7,", "paired_n=6,", "FAST paired sweep one smaller", GOLDEN_FAST),
    (VERIFY, "sequence_n=12,", "sequence_n=11,", "FAST sequence sweep one smaller", GOLDEN_FAST),
    (VERIFY, "argmax_n=10,", "argmax_n=9,", "FAST argmax sweep one smaller", GOLDEN_FAST),
    (VERIFY, "formula_n=12,", "formula_n=11,", "FULL formula sweep one smaller", GOLDEN_FULL),
    (VERIFY, "paired_n=10,", "paired_n=9,", "FULL paired sweep one smaller", GOLDEN_FULL),
    (VERIFY, "sequence_n=30,", "sequence_n=29,", "FULL sequence sweep one smaller", GOLDEN_FULL),
    (VERIFY, "argmax_n=20,", "argmax_n=19,", "FULL argmax sweep one smaller", GOLDEN_FULL),
    (VERIFY, "range(15, 20),", "range(15, 21),", "FAST trend one larger", GOLDEN_FAST),
    (VERIFY, "range(25, 36),", "range(25, 35),", "FULL trend one smaller", GOLDEN_FULL),
    (VERIFY, "envelope_trials=200,", "envelope_trials=50,", "FULL trials as FAST's", GOLDEN_FULL),
    (
        VERIFY,
        "for result in first + second]",
        "for result in second + first]",
        "run_verification returns the forked half first",
        GOLDEN_FAST,
    ),
    (
        VERIFY,
        "results.append((name, passed, detail, time.perf_counter() - start))",
        "results.append((name, passed, detail, start - time.perf_counter()))",
        "a check's seconds negated",
        FORKED_REGISTRY,
    ),
    (
        VERIFY,
        "passed, detail = fn(caps, rng)\n",
        'passed, detail = fn(caps, rng)\n            detail += f" at {start}"\n',
        "a check's detail carries the clock, so no two runs agree",
        FORKED_REGISTRY,
    ),
    (
        VERIFY,
        "count_kchains(lam, k, strict=strict).value",
        "count_kchains(lam, 1, strict=strict).value",
        "verify's chain count ignores k, so a 2-chain count is the 1-chain one",
        OTHER_SEEDS,
    ),
    (
        VERIFY,
        "count_kchains(lam, k, strict=strict).value",
        "count_kchains(lam, k).value",
        "verify's chain count drops strict, so a strict count is the weak one",
        OTHER_SEEDS,
    ),
    (
        VERIFY,
        "return count_subpartitions(lam).value",
        "return _chains(lam, 1, False)",
        "verify serves count_subpartitions from count_kchains at k = 1",
        DETERMINANT_NAMED,
    ),
    (
        VERIFY,
        "return find_maximizers(n, k)",
        "return find_maximizers(n, 1)",
        "verify's scan ignores k, so a k = 2 scan is served the k = 1 report",
        PER_RUN,
    ),
    (
        VERIFY,
        "_PER_RUN = (_all_partitions_upto, _profile, _subpartitions, _chains, _scan)",
        "_PER_RUN = (_all_partitions_upto, _profile, _subpartitions, _chains)",
        "verify's scan cache is never emptied, so a run is served another's reports",
        PER_RUN,
    ),
    (
        VERIFY,
        "_PER_RUN = (_all_partitions_upto, _profile, _subpartitions, _chains, _scan)",
        "_PER_RUN = (_all_partitions_upto, _profile, _subpartitions, _scan)",
        "verify's chain cache is never emptied, so a run is served another's counts",
        PER_RUN,
    ),
    (
        VERIFY,
        "all(map(le, row_mu, row_lam))",
        "all(map(int.__lt__, row_mu, row_lam))",
        "profile-order-compatibility compares profiles with lt, so no profile is below itself",
        OTHER_SEEDS,
    ),
    (
        VERIFY,
        "for helper in _PER_RUN:\n        helper.cache_clear()\n    results = []",
        "results = []",
        "verify's caches not emptied when a half starts",
        PER_RUN,
    ),
    (
        VERIFY,
        "for helper in _PER_RUN:\n        helper.cache_clear()\n    return results",
        "return results",
        "verify's caches not emptied when a half returns",
        PER_RUN,
    ),
    (
        SCAN_BOUNDED,
        "stack = [(None, [1, 0], 1, 0, n)]",
        "stack = [(None, [1, 1], 1, 0, n)]",
        "k = 1 root's counts [1, 0] become [1, 1]",
        SCAN,
    ),
    (
        SCAN_BOUNDED,
        "stack = [(None, [1, 0], 1, 0, n)]",
        "stack = [(None, [1, 0], 0, 0, n)]",
        "k = 1 root's part 1 becomes 0",
        SCAN,
    ),
    (
        SCAN_CHAINS,
        "[[0, 1], [1, -1]] if k == 2 else",
        "[[0, 1], [2, -1]] if k == 2 else",
        "k = 2 root's second path [1, -1] becomes [2, -1]",
        SCAN,
    ),
    (
        SCAN_CHAINS,
        "[[0, 1], [1, -1]] if k == 2 else",
        "[[0, 1], [0, 1]] if k == 2 else",
        "k = 2 root's second path [1, -1] becomes [0, 1]",
        SCAN,
    ),
    (
        SCAN_CHAINS,
        "_pair_family(*ws[0], *ws[1], 1, last,",
        "_pair_family(*ws[1], *ws[0], 1, last,",
        "k = 2 root family's two paths swapped",
        SCAN,
    ),
    (
        SCAN_CHAINS,
        "ws = _binomial_paths(pascal[n - last + 2], 0, k)",
        "ws = _binomial_paths(pascal[n - last + 1], 0, k)",
        "k >= 2 root family read one Pascal row low",
        SCAN,
    ),
    (
        SCAN_CHAINS,
        "if last > 0:",
        "if last > 1:",
        "k >= 2 root family skipped at n = 3, where it holds (2, 1) alone",
        SCAN,
    ),
    (
        SCAN_BOUNDED,
        "bounds[r - q][q])) >= best:",
        "bounds[r - q][q])) > best:",
        "k = 1 bound test prunes subtrees that can tie the best",
        SCAN,
    ),
    (
        SCAN_BOUNDED,
        "elif sum(map(mul, counts, bounds[r][q])) < best:",
        "else:",
        "k = 1 child loop breaks at the first child that fails its bound",
        SCAN,
    ),
    (
        SCAN_BOUNDED,
        "elif sum(map(mul, counts, bounds[r][q])) < best:",
        "elif sum(map(mul, counts, bounds[r - q][q])) < best:",
        "k = 1 suffix bound U read from the child's row of the table",
        SCAN,
    ),
    (
        SCAN_BOUNDED,
        "_SEED_FROM = 20",
        "_SEED_FROM = 10**9",
        "k = 1 scan never seeded",
        SCAN,
    ),
    (
        SCAN_BOUNDED,
        "if seed > best:\n        winners.clear()\n",
        "if seed > best:\n",
        "k = 1 seed keeps the winners below it",
        SCAN,
    ),
    (
        SCAN_BOUNDED,
        "spare = n - sum(rows)",
        "spare = n + 1 - sum(rows)",
        "k = 1 seed counts a partition of n + 1",
        SCAN,
    ),
    (
        SCAN_BOUNDED,
        "s if s > b else b",
        "s if s < b else b",
        "k = 1 bound table keeps the running min, not the max",
        BOUND_RECURRENCE,
    ),
    (
        SCAN_BOUNDED,
        "rows.reverse()\n        table.append(rows)",
        "table.append(rows)",
        "k = 1 bound table's rows filed from p = r // 2 down",
        BOUND_RECURRENCE,
    ),
    (
        SCAN_BOUNDED,
        "split, cap = r // 3, (r - d - 3) // 2",
        "split, cap = r // 3, (r - d - 4) // 2",
        "k = 1 node's last child one part too small, losing its family",
        BOUNDED_N45,
    ),
    (
        SCAN_BOUNDED,
        "deep, cap = r // 4, (r - d - 4) // 3",
        "deep, cap = r // 4, (r - d - 5) // 3",
        "k = 1 node pushes one child too few, losing its subtree",
        BOUNDED_N45,
    ),
    (
        SCAN_BOUNDED,
        "end, cap = (r - q) // 2, r - q - d - 3",
        "end, cap = (r - q) // 2, r - q - d - 2",
        "k = 1 family scores one leaf past its last, one part too many",
        BOUNDED_N45,
    ),
    (
        SCAN_BOUNDED,
        "stack.pop()\n        pops += 1\n",
        "stack.pop()\n",
        "k = 1 kernel never counts a pop",
        BOUNDED_N45,
    ),
    (
        SCAN_BOUNDED,
        "fall = 3 * T",
        "fall = 2 * T",
        "k = 1 family's second difference 3T becomes 2T",
        SCAN,
    ),
    (
        SCAN_CHAINS,
        "* (b3 - b0 * c3) - (a3 - a0 * c3) *",
        "* (b3 - b0 * c3) + (a3 - a0 * c3) *",
        "k = 2 leaf scores ad + bc for ad - bc",
        SCAN,
    ),
    (
        SCAN_CHAINS,
        "a3 += a2\n        a2 += a1\n        a1 += a0",
        "a1 += a0\n        a2 += a1\n        a3 += a2",
        "k = 2 family's Pascal step run bottom-up, adding new sums for old",
        SCAN,
    ),
    (
        SCAN_CHAINS,
        "d1, d2, d3, d4 = x[1] - y[1], x[2] - y[2], x[3] - y[3], x[4] - y[4]",
        "d1, d2, d3, d4 = x[2] - y[2], x[2] - y[2], x[3] - y[3], x[4] - y[4]",
        "k = 2 family's first difference read from column 2, not 1",
        CHAIN_SCAN_2,
    ),
    (
        SCAN_CHAINS,
        "d1, d2, d3, d4 = x[1] - y[1], x[2] - y[2], x[3] - y[3], x[4] - y[4]",
        "d1, d2, d3, d4 = x[1] - y[1], x[3] - y[3], x[3] - y[3], x[4] - y[4]",
        "k = 2 family's second difference read from column 3, not 2",
        CHAIN_SCAN_2,
    ),
    (
        SCAN_CHAINS,
        "d1, d2, d3, d4 = x[1] - y[1], x[2] - y[2], x[3] - y[3], x[4] - y[4]",
        "d1, d2, d3, d4 = x[1] - y[1], x[2] - y[2], x[4] - y[4], x[4] - y[4]",
        "k = 2 family's third difference read from column 4, not 3",
        CHAIN_SCAN_2,
    ),
    (
        SCAN_CHAINS,
        "d1, d2, d3, d4 = x[1] - y[1], x[2] - y[2], x[3] - y[3], x[4] - y[4]",
        "d1, d2, d3, d4 = x[1] - y[1], x[2] - y[2], x[3] - y[3], x[5] - y[5]",
        "k = 2 family's fourth difference read from column 5, not 4",
        CHAIN_SCAN_2,
    ),
    (
        SCAN_CHAINS,
        "g1, g2, g3 = g1 + g0, g2 + g1, g3 + g2",
        "g1, g2, g3 = g1 + g0, g2 + g1, g3 + g1",
        "k = 2 families' Pascal step up R adds the wrong sum to G_3",
        CHAIN_SCAN_2,
    ),
    (
        SCAN_CHAINS,
        "h1, h2, h3 = h1 + h0, h2 + h1, h3 + h2\n            at = R",
        "at = R",
        "k = 2 families move only the first path's sums up R",
        EVERY_LEAF_2,
    ),
    (
        SCAN_CHAINS,
        "cut = pascal[rest + 1 - 2 * q]",
        "cut = pascal[rest - 2 * q]",
        "k = 2 leaf's sink row one low",
        PAIR_WALK,
    ),
    (
        SCAN_CHAINS,
        "cut = pascal[rest + 1 - 2 * q]",
        "cut = pascal[rest + 2 - 2 * q]",
        "k = 2 leaf's sink row one high",
        PAIR_WALK,
    ),
    (
        SCAN_CHAINS,
        "if value >= best:\n            best = _keep(value, best, winners, rest - q, (q, path))",
        "if value > best:\n            best = _keep(value, best, winners, rest - q, (q, path))",
        "k = 2 leaf that ties the best is not kept",
        CHAIN_SCAN_2,
    ),
    (
        SCAN_CHAINS,
        "g1 + g0 + tg * e2 - ug * z1,",
        "g1 + tg * e2 - ug * z1,",
        "k = 2 child's derived sum G'_0 drops the node's G_0 term",
        SCAN,
    ),
    (
        SCAN_CHAINS,
        "ug, uh = g0 + (q - p) * tg,",
        "ug, uh = g0 + (q - p + 1) * tg,",
        "k = 2 child's derived total takes one extension too many",
        SCAN,
    ),
    (
        SCAN_CHAINS,
        "push, cap = r // 5, (r - d - 5) // 4",
        "push, cap = r // 4, (r - d - 5) // 4",
        "k = 2 pushes children that push nothing (pops rise, leaves stay)",
        PUSHES_2,
    ),
    (
        SCAN_CHAINS,
        "stack.pop()\n        pops += 1\n",
        "stack.pop()\n",
        "k >= 2 kernel never counts a pop",
        PUSHES_2,
    ),
    (
        SCAN_CHAINS,
        "push, cap = r // 5, (r - d - 5) // 4",
        "push, cap = r // 6, (r - d - 5) // 4",
        "k = 2 derives children that push, losing their subtrees' leaves",
        [f"{MAXIMIZER_TESTS}::test_scan_scores_every_leaf_once[2]"],
    ),
    (
        SCAN_CHAINS,
        "for q in range(max(first, push + 1), deep + 1):",
        "for q in range(push + 1, deep + 1):",
        "k = 2 derives children below the node's own part",
        SCAN,
    ),
    (
        SCAN_CHAINS,
        "g3 + m * g2 + c2 * g1 + c3 * g0",
        "g3 + m * g2 + c2 * g1",
        "k = 2 Vandermonde step drops its C(m, 3) term",
        SCAN,
    ),
    (
        SCAN_CHAINS,
        "w[1:] = map(add, w[1:], w)",
        "w[2:] = map(add, w[2:], w[1:])",
        "k >= 3 Pascal step leaves w[1] unmoved",
        SCAN,
    ),
    (
        SCAN_CHAINS,
        "[0] * (s - ell) + row[: k + ell + 2 - s]",
        "[0] * (s - ell + 1) + row[: k + ell + 1 - s]",
        "k >= 2 binomial paths shifted one place right",
        SCAN,
    ),
    (
        MAXIMIZER,
        "if value > best:",
        "if value >= best:",
        "_keep drops the winners on a tie",
        SCAN,
    ),
    (
        MAXIMIZER,
        "if k * k * (n + 2) > DEFAULT_STATE_CAP:",
        "if k * k * n > DEFAULT_STATE_CAP:",
        "check_scan's cap taken on a window two columns narrow",
        SCAN + CLI_TESTS,
    ),
    (
        MAXIMIZER,
        "_find_maximizers = find_maximizers\n",
        "_find_maximizers = find_maximizers\n\nfrom .scan_chains import _scan_chains\n",
        "maximizer imports the k >= 2 kernel at load, so a k = 1 scan loads both",
        KERNEL_LOADS,
    ),
    (
        VERIFY,
        "from . import scan_bounded, scan_chains",
        "from . import oracles",
        "verify leaves the scan kernels to its forked half, which compiles them every run",
        KERNEL_LOADS,
    ),
    (
        CLI,
        'names, metavar = [command], "{" + ",".join(COMMANDS) + "}"',
        "names, metavar = [command], None",
        "a lone command's parser leaves the subparsers' metavar unset",
        CLI_TESTS,
    ),
    (
        CLI,
        "args = build_parser(argv[0] if argv else None).parse_args(argv)",
        "args = build_parser().parse_args(argv)",
        "main always builds the full tree",
        CLI_TESTS,
    ),
    (
        CLI,
        '    "shape": ("SVG of the maximizer shape against the limit curve", _shape_flags),\n'
        '    "verify": ("run the self-verification suites", _verify_flags),\n',
        '    "verify": ("run the self-verification suites", _verify_flags),\n'
        '    "shape": ("SVG of the maximizer shape against the limit curve", _shape_flags),\n',
        "verify moved before shape in the command order",
        CLI_TESTS,
    ),
    (
        CLI,
        '_scan_flags(p, ("text", "json"))\n    p.add_argument("--n", type=int, required=True)',
        'p.add_argument("--n", type=int, required=True)\n    _scan_flags(p, ("text", "json"))',
        "shape adds --n before the shared flags",
        CLI_TESTS,
    ),
    (
        RENDER,
        '        "method": result.method,\n',
        "",
        "count's JSON payload leaves out its method",
        GOLDEN_FAST,
    ),
    (
        CLI,
        "str(args.strict).lower()",
        "str(args.strict)",
        "count's CSV writes strict as False, not false",
        GOLDEN_FAST,
    ),
    (
        CLI,
        'params = {"partition": text, "k": args.k, "strict": args.strict}',
        'params = {"partition": text, "k": args.k}',
        "count's chain params leave out strict",
        GOLDEN_FAST,
    ),
    (
        CLI,
        "if args.k == 1 and not args.strict:",
        "if args.k == 1:",
        "count --k 1 --strict goes to the row DP and prints its params",
        GOLDEN_FAST,
    ),
    (
        CLI,
        'render.count_payload(result, {"n": args.n})',
        "render.count_payload(result, {})",
        "pn's JSON params leave out n",
        GOLDEN_FAST,
    ),
    (
        RENDER,
        '"max_count": str(report.max_count),',
        '"max_count": report.max_count,',
        "a report's JSON max_count written as a number, not a decimal string",
        GOLDEN_FAST,
    ),
    (
        MAXIMIZER,
        "hr_reference=k * HR_RATE,",
        "hr_reference=HR_RATE,",
        "a report's hr_reference stays the k = 1 rate at every k",
        GOLDEN_FAST,
    ),
    (
        MAXIMIZER,
        "exponent=math.log(best) / math.sqrt(n),",
        "exponent=math.log(best) / n,",
        "a report's exponent divides log M by n, not sqrt(n)",
        GOLDEN_FAST,
    ),
    (
        MAXIMIZER,
        "for parts in winners if parts[0] > len(parts)]",
        "for parts in winners if False]",
        "_scan_maxima adds no conjugates, so maximizer sets are not conjugation-closed",
        SCAN,
    ),
    (
        COUNTING,
        "return max(1, min(c, len(parts) - k + 1))",
        "return max(1, c)",
        "_cut unclamped, so sources can lie above the cut",
        CHAINS,
    ),
    (
        COUNTING,
        "reversed(parts[1:])",
        "reversed(parts[2:])",
        "_walk skips the row below the cut",
        CHAINS,
    ),
    (
        COUNTING,
        "[hi - q :]",
        "[hi - q + 1 :]",
        "_sinks truncates each suffix sum one entry short",
        CHAINS,
    ),
    (
        COUNTING,
        "sum(h[:cut])",
        "sum(h[: cut - 1])",
        "_sinks' tail sums miss their last entry",
        CHAINS,
    ),
    (
        COUNTING,
        "math.comb(r - p, t + 1)",
        "math.comb(r - p, t)",
        "c = 1 tail sums C(r - p, t) for C(r - p, t + 1)",
        CHAINS,
    ),
    (
        COUNTING,
        "initial=math.comb(r - hi, t)",
        "initial=math.comb(r - hi + 1, t)",
        "_sinks' Pascal columns start one row high",
        CHAINS,
    ),
    (
        COUNTING,
        "math.comb(r + ell, ell - s + t)",
        "math.comb(r + ell, ell - s + t + 1)",
        "_chain_matrix's rows of sources below lam one column off",
        CHAINS,
    ),
    (
        COUNTING,
        "[1] * (p + s + 1)",
        "[1] * (p + s)",
        "_lift starts a source path one column short",
        CHAINS,
    ),
    (
        COUNTING,
        "v[-1] * tail",
        "v[0] * tail",
        "_chain_matrix weighs the tail by a vector's first entry, not its total",
        CHAINS,
    ),
    (
        COUNTING,
        "ways.get(abs(prof.hi), 0), BRIDGE_DP)",
        "ways.get(abs(prof.hi), 0), ROW_DP)",
        "count_bridges_below names the row DP as its method",
        ["tests/test_counting.py::test_meet_in_the_middle_on_a_seeded_400_part_partition"],
    ),
    (
        COUNTING,
        "if threading is not None and threading.active_count() > 1:",
        "if False:",
        "_in_two forks while another thread runs",
        IN_TWO,
    ),
    (
        COUNTING,
        "status = os.waitpid(pid, 0)[1]",
        "status = 0",
        "_in_two never reaps its child",
        IN_TWO,
    ),
    (
        COUNTING,
        "        os.kill(pid, 9)  # SIGKILL, whose number POSIX fixes\n",
        "",
        "_in_two waits out the child when here() raises",
        IN_TWO,
    ),
    (
        COUNTING,
        "return mine, marshal.loads(data)",
        "return marshal.loads(data), mine",
        "_in_two returns its halves swapped",
        IN_TWO,
    ),
    (
        COUNTING,
        "if status:",
        "if False:",
        "_in_two reads a failed child's pipe instead of running there() here",
        IN_TWO,
    ),
    (
        COUNTING,
        "        for fd in fds:\n            os.close(fd)\n",
        "",
        "_in_two leaks the pipe's descriptors when the fork fails",
        IN_TWO,
    ),
    (
        COUNTING,
        "os._exit(status)",
        "sys.exit(status)",
        "_in_two's child leaves by SystemExit and runs on in the caller",
        IN_TWO,
    ),
    (
        COUNTING,
        "map(and_, map(gt, h, h[1:]), map(lt, h[1:], h[2:]))",
        "map(and_, map(lt, h, h[1:]), map(gt, h[1:], h[2:]))",
        "the envelope bound's hull takes the profile's peaks for its valleys",
        BOUND_CELLS,
    ),
    (
        COUNTING,
        "[0, *valleys, len(h) - 1]",
        "[0, *valleys]",
        "the envelope bound's hull drops the profile's right end",
        BOUND_CELLS,
    ),
    (
        COUNTING,
        "    env = _interpolate(hull, prof.lo, prof.hi)\n"
        "    steps = list(map(sub, env[1:], env))\n"
        "    rate = {d: growth_rate(max(-1.0, min(1.0, d))) for d in set(steps)}\n"
        "    # not sum(): from Python 3.12 it compensates float sums, changing bits\n"
        "    log_value = reduce(add, map(rate.__getitem__, steps), 0.0)\n",
        "    log_value = 0.0\n"
        "    for (x0, y0), (x1, y1) in zip(hull, hull[1:]):\n"
        "        d = max(-1.0, min(1.0, (y1 - y0) / (x1 - x0)))\n"
        "        log_value += (x1 - x0) * growth_rate(d)\n",
        "the envelope bound prices each hull segment once, times its length",
        BOUND_CELLS,
    ),
    (
        ORACLES,
        "for _ in range(k - 1):",
        "for _ in range(k):",
        "poset_chain_counts walks one level too many",
        POSET,
    ),
    (
        ORACLES,
        "for strict in (False, True):",
        "for strict in (False, False):",
        "poset_chain_counts ignores strictness: both walks are weak",
        POSET,
    ),
    (
        ORACLES,
        "            level = {\n"
        "                mu: sum(level[nu] for nu in below[mu] if not (strict and nu == mu))\n"
        "                for mu in subs\n"
        "            }\n"
        "            counts.append(sum(level.values()))\n",
        "            counts.append(sum(level.values()))\n"
        "            level = {\n"
        "                mu: sum(level[nu] for nu in below[mu] if not (strict and nu == mu))\n"
        "                for mu in subs\n"
        "            }\n",
        "poset_chain_counts records each count one level late",
        POSET,
    ),
    (
        ORACLES,
        "Fraction(comb(parts[i] + k, k + i - j)",
        "Fraction(comb(parts[i] + k - 1, k + i - j)",
        "binomial_chain_count's entries for chains one shorter",
        PROPERTIES,
    ),
    (
        ORACLES,
        "for part in range(min(remaining, max_part), 0, -1):",
        "for part in range(1, min(remaining, max_part) + 1):",
        "enumerate_partitions yields in increasing lexicographic order",
        PARTITIONS_TESTS,
    ),
    (
        PARTITIONS,
        "if len(args) > len(fields):",
        "if False:",
        "Record.__init__ drops its surplus-positional check",
        RECORDS,
    ),
    (
        PARTITIONS,
        "if f in values or f not in fields:",
        "if f not in fields:",
        "Record.__init__ drops its repeated-name check",
        RECORDS,
    ),
    (
        PARTITIONS,
        "if f in values or f not in fields:",
        "if f in values:",
        "Record.__init__ drops its unknown-name check",
        RECORDS,
    ),
    (
        PARTITIONS,
        "if len(values) < len(fields):",
        "if False:",
        "Record.__init__ drops its missing-field check",
        RECORDS,
    ),
    (
        PARTITIONS,
        'cls._fields += tuple(cls.__dict__.get("__annotations__", ()))',
        'cls._fields = tuple(cls.__dict__.get("__annotations__", ())) + cls._fields',
        "a Record subclass puts its own fields first",
        RECORDS,
    ),
    (
        PARTITIONS,
        "fields, name = self._fields, self.__class__.__qualname__",
        'fields, name = self._fields, "__init__"',
        "Record.__init__'s errors leave out the class name",
        RECORDS,
    ),
    (
        PARTITIONS,
        "<= {1, -1}:",
        "<= {1, 0, -1}:",
        "LatticeProfile admits flat steps that stay above |j|",
        RECORDS,
    ),
    (
        PARTITIONS,
        'token.isdecimal() or (token[0] == "-" and token[1:].isdecimal())',
        'token.isdigit() or (token[0] == "-" and token[1:].isdigit())',
        "parse screens with isdigit, which admits digits int() rejects",
        PARTITIONS_TESTS,
    ),
    (
        PARTITIONS,
        "if other.__class__ is self.__class__:",
        "if isinstance(other, self.__class__):",
        "a record equals a record of a subclass",
        RECORDS,
    ),
    (
        PARTITIONS,
        "return (self.parts,)",
        "return self.parts",
        "a Partition hashes as its parts, not as its field tuple",
        RECORDS,
    ),
    (
        PARTITIONS,
        'raise AttributeError(f"cannot assign to field {name!r}")',
        "self.__dict__[name] = value",
        "a record's fields can be assigned",
        RECORDS,
    ),
    (
        PARTITIONS,
        'f"{f}={getattr(self, f)!r}"',
        'f"{f}={getattr(self, f)}"',
        "a record's repr formats its values with str",
        RECORDS,
    ),
    (
        PARTITIONS,
        "return hash(self._key())",
        "return hash(self._key()[:1])",
        "a record hashes its first field only",
        RECORDS,
    ),
    (
        ENVELOPE,
        "<= 0.0:",
        ">= 0.0:",
        "the hull keeps the points above the chord, an upper hull",
        ENVELOPE_TESTS,
    ),
    (
        ENVELOPE,
        "len(values) - 1",
        "len(values) - 2",
        "lower_convex_envelope drops the grid's last point",
        ENVELOPE_TESTS,
    ),
    (
        VERIFY,
        "floor = min(f)",
        "floor = max(f)",
        "the decreasing envelope's floor taken at max(f)",
        ENVELOPE_TESTS,
    ),
    (
        VERIFY,
        "(floor,) * (len(f) - c)",
        "env[c:]",
        "the decreasing envelope's tail taken from the plain envelope",
        ENVELOPE_TESTS,
    ),
    (
        ORACLES,
        "rng.uniform(-1.0, 1.0)",
        "rng.uniform(-1.5, 1.5)",
        "random_grid's steps exceed one, where the rate is infinite",
        GOLDEN_FAST,
    ),
    (
        INIT,
        '"lower_convex_envelope": "envelope",',
        '"lower_convex_envelope": "verify",',
        "_HOMES names verify, which re-exports it, as lower_convex_envelope's home",
        PUBLIC_NAMES,
    ),
    (
        RATEFN,
        "if TYPE_CHECKING:",
        "if True:",
        "ratefn imports shapes eagerly, so bound loads it",
        KERNEL_LOADS,
    ),
]


def old_text_problems() -> list[str]:
    """One line per mutant whose old text is not in its file exactly once."""
    problems = []
    for path, old, _new, why, _targets in MUTANTS:
        found = (ROOT / path).read_text().count(old)
        if found != 1:
            problems.append(f"{path}: old text {old!r} occurs {found} times ({why})")
    return problems


def copy_tree(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=skip)


def run_pytest(where: Path, targets: list[str]) -> tuple[str, float]:
    """('passed' | 'failed' | 'timeout' | 'exit <code>', seconds) of one
    pytest process in ``where``, killed with its whole process group on
    timeout."""
    env = dict(
        os.environ,
        PYTHONPATH=str(where / "src"),
        PYTHONDONTWRITEBYTECODE="1",
        PYTEST_DISABLE_PLUGIN_AUTOLOAD="1",
    )
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *targets]
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=where, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    try:
        code = proc.wait(timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return "timeout", time.perf_counter() - start
    # pytest exits 1 on a failed test and 2 on a collection error; 3, 4
    # and 5 (internal error, bad usage, nothing collected) say nothing
    # about the mutant
    outcome = {0: "passed", 1: "failed", 2: "failed"}.get(code, f"exit {code}")
    return outcome, time.perf_counter() - start


def main() -> int:
    problems = old_text_problems()
    for line in problems:
        print(f"STALE     {line}")
    if problems:
        return 1
    targets = sorted({t for *_, ts in MUTANTS for t in ts})
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "base"
        copy_tree(base)
        outcome, seconds = run_pytest(base, targets)
        print(f"baseline  {outcome} in {seconds:.1f}s: {' '.join(targets)}")
        if outcome != "passed":
            return 1
        bad = 0
        for i, (path, old, new, why, targets) in enumerate(MUTANTS):
            where = Path(tmp) / f"mutant{i}"
            copy_tree(where)
            target = where / path
            target.write_text(target.read_text().replace(old, new))
            outcome, seconds = run_pytest(where, targets)
            shutil.rmtree(where)
            word = VERDICTS.get(outcome, f"ERROR (pytest {outcome})")
            print(f"{word:<9} {seconds:5.1f}s  {path}: {why}")
            bad += not word.startswith("killed")
    print(f"{len(MUTANTS) - bad}/{len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
