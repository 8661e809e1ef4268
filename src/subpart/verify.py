"""Self-verification suites: every structural invariant of the package,
runnable at two effort levels.

``fast`` shrinks the exhaustive caps, the trial counts and the range of
the limit-shape trend so the whole battery finishes in seconds; ``full``
runs everything at the documented sizes.  Each check returns a CheckResult;
a check failure never raises, it reports.  Each check draws from its own
seeded RNG and shares no state with another but the caches of the
library's counts, scans, partition lists and profiles, one per helper,
emptied when each half of a run starts and when it returns; so
``run_verification`` runs the last 17 checks of the registry
(``functional-optimality`` and every counting, maximizer and output
check) in one forked child while this process runs the first 15 (the
partition, envelope and rate-function checks and the first two of the
shape functional), and the results do not depend on where a check ran.
Spans a tracer records inside the child stay there: per-check seconds
and pass counts come back with the results, layer timings do not.

The independent routes the counting checks compare against (enumeration,
the poset chain counts, MacMahon's box product, the memoized pentagonal
recurrence), the numeric Legendre transform, the quadrature behind the
limit-curve constants, and the random grids of the envelope checks come
from ``subpart.oracles``, which the test suite shares.  They count without
the caches, so ``oracles.scan_maximizers`` stays a recount of its own, and
the checks of reproducible output (``json-roundtrip``, ``csv-determinism``)
take nothing from them either.  The objects of the convex-analysis lemma
(the decreasing envelope and path energies, each on the plain tuple of a
function's values on 0..len - 1) and the constants residuals live here,
beside the checks that use them.
"""

from __future__ import annotations

import math
import random
import time
from functools import cache
from itertools import islice
from operator import le
from typing import Callable, Sequence

from . import oracles, render
# the maximizer checks run in the half that ``run_verification`` forks, and
# a module that a child imports is gone with it: load both scan kernels
# here, once per process, not once per run in every child
from . import scan_bounded, scan_chains
from .counting import (
    _in_two,
    _partition_numbers,
    count_bridges_below,
    count_kchains,
    count_subpartitions,
    envelope_count_bound,
    partition_count,
)
from .envelope import lower_convex_envelope
from .maximizer import HR_RATE, MaximizerReport, find_maximizers, maximizer_report
from .oracles import enumerate_partitions
from .partitions import DEFAULT_SEED, LatticeProfile, Partition, Record, conjugate, profile
from .ratefn import (
    FUNCTIONAL_MAX,
    VershikCurve,
    growth_rate,
    rate_function,
    shape_functional,
)
from .shapes import PiecewiseLinearShape, rescale

# excess area of log(2 cosh x) over |x|; the square of VERSHIK_BETA
AREA_CONSTANT = math.pi**2 / 12.0

# quadrature window: integrands decay like x * exp(-2x), so the tail past
# 40 is below 1e-30
TAIL_CUTOFF = 40.0


class CheckResult(Record):
    name: str
    passed: bool
    detail: str
    seconds: float


class VerifyCaps(Record):
    order_pairs_n: int
    # every partition of n <= formula_n against a formula: its profile's
    # area and steps, the envelope bound (k = 1) and the crude bound
    formula_n: int
    # every partition of n <= paired_n against a second object: its
    # conjugate's profile and count, its bridges, its one-box extensions
    paired_n: int
    enumeration_n: int
    envelope_trials: int
    rate_points: int
    brute_n: int
    chain_bound_n: int
    # every n up to sequence_n: p(n) against enumeration, and the growth
    # of the k = 1 maximum
    sequence_n: int
    # the k = 1 argmax recounted partition by partition for n <= argmax_n,
    # and the k = 2 one at n = argmax_n
    argmax_n: int
    closure_chain_n: int
    trend_ns: range


FAST = VerifyCaps(
    order_pairs_n=6,
    formula_n=8,
    paired_n=7,
    enumeration_n=15,
    envelope_trials=50,
    rate_points=200,
    brute_n=5,
    chain_bound_n=6,
    sequence_n=12,
    argmax_n=10,
    closure_chain_n=8,
    trend_ns=range(15, 20),
)

FULL = VerifyCaps(
    order_pairs_n=8,
    formula_n=12,
    paired_n=10,
    enumeration_n=30,
    envelope_trials=200,
    rate_points=1000,
    brute_n=8,
    chain_bound_n=10,
    sequence_n=30,
    argmax_n=20,
    closure_chain_n=20,
    trend_ns=range(25, 36),
)


# The library's values the checks share: one cache per helper, emptied by
# ``_run_checks`` when each half starts and when it returns, so a run
# computes each value once and no run reuses another's.


@cache
def _all_partitions_upto(n_max: int) -> tuple[Partition, ...]:
    """Every partition of size at most n_max, by size."""
    return tuple(Partition(parts) for n in range(n_max + 1) for parts in enumerate_partitions(n))


@cache
def _profile(lam: Partition) -> LatticeProfile:
    return profile(lam)


@cache
def _subpartitions(lam: Partition) -> int:
    return count_subpartitions(lam).value


@cache
def _chains(lam: Partition, k: int, strict: bool) -> int:
    return count_kchains(lam, k, strict=strict).value


@cache
def _scan(n: int, k: int) -> MaximizerReport:
    return find_maximizers(n, k)


_PER_RUN = (_all_partitions_upto, _profile, _subpartitions, _chains, _scan)


# ---------------------------------------------------------------- partitions


def check_profile_order(caps: VerifyCaps, rng) -> tuple[bool, str]:
    """Containment of diagrams must match pointwise order of profiles."""
    n = caps.order_pairs_n
    lams = _all_partitions_upto(n)
    # the window of a partition of size <= n lies inside -n..n, and outside
    # its window a profile is |j|: so one row on -n..n holds each profile
    rows = [tuple(map(_profile(lam).value, range(-n, n + 1))) for lam in lams]
    checked = 0
    for mu, row_mu in zip(lams, rows):
        for lam, row_lam in zip(lams, rows):
            dominated = all(map(le, row_mu, row_lam))
            if dominated != oracles.is_subpartition(mu, lam):
                return False, f"mismatch at mu={mu} lam={lam}"
            checked += 1
    return True, f"{checked} ordered pairs, sizes <= {n}"


def check_profile_area(caps: VerifyCaps, rng) -> tuple[bool, str]:
    count = 0
    for lam in _all_partitions_upto(caps.formula_n):
        if _profile(lam).excess_area() != 2 * lam.n:
            return False, f"area identity fails at {lam}"
        count += 1
    return True, f"{count} profiles, n <= {caps.formula_n}"


def check_profile_steps(caps: VerifyCaps, rng) -> tuple[bool, str]:
    count = 0
    for lam in _all_partitions_upto(caps.formula_n):
        prof = _profile(lam)
        if any(abs(d) != 1 for d in prof.increments()):
            return False, f"non-unit step at {lam}"
        if prof.heights[0] != abs(prof.lo) or prof.heights[-1] != abs(prof.hi):
            return False, f"endpoint mismatch at {lam}"
        count += 1
    return True, f"{count} profiles, n <= {caps.formula_n}"


def check_conjugation_reflection(caps: VerifyCaps, rng) -> tuple[bool, str]:
    count = 0
    for lam in _all_partitions_upto(caps.paired_n):
        pl = _profile(lam)
        pc = _profile(conjugate(lam))
        span = max(abs(pl.lo), pl.hi, abs(pc.lo), pc.hi)
        for j in range(-span, span + 1):
            if pl.value(j) != pc.value(-j):
                return False, f"reflection fails at {lam}, j={j}"
        count += 1
    return True, f"{count} partitions, n <= {caps.paired_n}"


def check_enumeration_count(caps: VerifyCaps, rng) -> tuple[bool, str]:
    for n in range(caps.enumeration_n + 1):
        seen = list(enumerate_partitions(n))
        if len(seen) != partition_count(n).value:
            return False, f"enumeration size wrong at n={n}"
        if any(a <= b for a, b in zip(seen, seen[1:])):
            return False, f"order not decreasing lexicographic at n={n}"
    return True, f"n <= {caps.enumeration_n}, order and count"


# ------------------------------------------------------------------ envelope


def decreasing_lower_convex_envelope(f: Sequence[float]) -> tuple[float, ...]:
    """Greatest decreasing convex minorant.

    Coincides with the plain envelope up to the leftmost minimizer of f
    (where the envelope touches f) and is constant min(f) afterwards; ties
    in the argmin resolve leftmost, which does not change the result.
    """
    env = lower_convex_envelope(f)
    floor = min(f)
    c = f.index(floor)
    return env[:c] + (floor,) * (len(f) - c)


def path_energy(f: Sequence[float], psi: Callable[[float], float]) -> float:
    """Sum of the convex cost psi over the increments of f; +infinity
    propagates."""
    total = 0.0
    for a, b in zip(f, f[1:]):
        v = psi(b - a)
        if math.isinf(v):
            return math.inf
        total += v
    return total


def _random_minorant(
    rng: random.Random, f: tuple[float, ...], pin_right: bool
) -> tuple[float, ...]:
    """Interpolate f downward through randomly dipped anchors, then clamp
    back under f."""
    n = len(f)
    anchors = {0: f[0]}
    if pin_right:
        anchors[n - 1] = f[-1]
    else:
        anchors[n - 1] = f[-1] - rng.uniform(0.0, 1.0)
    for i in range(1, n - 1):
        if rng.random() < 0.5:
            anchors[i] = f[i] - rng.uniform(0.0, 1.0)
    keys = sorted(anchors)
    values = list(f)
    for a, b in zip(keys, keys[1:]):
        for i in range(a, b + 1):
            t = (i - a) / (b - a) if b > a else 0.0
            interp = (1 - t) * anchors[a] + t * anchors[b]
            values[i] = min(f[i], interp)
    return tuple(values)


def _dip_minorant(
    rng: random.Random, f: tuple[float, ...], pin_right: bool
) -> tuple[float, ...]:
    """Dip every point but the left end (and the right end when pinned)
    independently: with probability 0.7, by up to 1.5."""
    values = list(f)
    last = len(values) - 1
    for i in range(1, last + 1):
        if (pin_right and i == last) or rng.random() >= 0.7:
            continue
        values[i] -= rng.uniform(0.0, 1.5)
    return tuple(values)


def _sampled_path_beats(
    rng: random.Random, f: tuple[float, ...], pin_right: bool, jh: float
) -> bool:
    """Whether any of five rounds, each drawing one minorant of f from
    each sampler, finds a path with energy below jh."""
    for _ in range(5):
        for sampler in (_random_minorant, _dip_minorant):
            if path_energy(sampler(rng, f, pin_right), rate_function) < jh - 1e-9:
                return True
    return False


def check_envelope_energy(caps: VerifyCaps, rng) -> tuple[bool, str]:
    """Pinned-both-ends optimality: no sampled path below f beats the
    envelope's energy, and the envelope itself is a valid competitor."""
    for trial in range(caps.envelope_trials):
        f = oracles.random_grid(rng)
        h = lower_convex_envelope(f)
        jh = path_energy(h, rate_function)
        if math.isinf(jh):
            return False, f"trial {trial}: envelope energy infinite"
        if h[0] != f[0] or h[-1] != f[-1]:
            return False, f"trial {trial}: envelope not pinned"
        if any(hv > fv + 1e-12 for hv, fv in zip(h, f)):
            return False, f"trial {trial}: envelope above f"
        if path_energy(h, rate_function) != jh:
            return False, f"trial {trial}: energy not reproducible"
        if _sampled_path_beats(rng, f, True, jh):
            return False, f"trial {trial}: sampled path beats envelope"
    return True, f"{caps.envelope_trials} trials, 5 interpolated and 5 dipped minorants each"


def check_decreasing_envelope_energy(caps: VerifyCaps, rng) -> tuple[bool, str]:
    """Pinned-left optimality against the decreasing envelope."""
    for trial in range(caps.envelope_trials):
        f = oracles.random_grid(rng)
        h = decreasing_lower_convex_envelope(f)
        jh = path_energy(h, rate_function)
        if math.isinf(jh):
            return False, f"trial {trial}: envelope energy infinite"
        if h[0] != f[0]:
            return False, f"trial {trial}: left pin broken"
        if any(b > a + 1e-12 for a, b in zip(h, h[1:])):
            return False, f"trial {trial}: not decreasing"
        if any(hv > fv + 1e-12 for hv, fv in zip(h, f)):
            return False, f"trial {trial}: envelope above f"
        if _sampled_path_beats(rng, f, False, jh):
            return False, f"trial {trial}: sampled path beats envelope"
    return True, f"{caps.envelope_trials} trials, 5 interpolated and 5 dipped minorants each"


def check_envelope_idempotent(caps: VerifyCaps, rng) -> tuple[bool, str]:
    for trial in range(caps.envelope_trials):
        f = oracles.random_grid(rng)
        h = lower_convex_envelope(f)
        hh = lower_convex_envelope(h)
        if any(abs(a - b) > 1e-12 for a, b in zip(h, hh)):
            return False, f"trial {trial}: envelope not idempotent"
    return True, f"{caps.envelope_trials} trials"


def check_envelope_monotone(caps: VerifyCaps, rng) -> tuple[bool, str]:
    for trial in range(caps.envelope_trials):
        f = oracles.random_grid(rng)
        g = tuple(v + rng.uniform(0.0, 1.0) for v in f)
        hf = lower_convex_envelope(f)
        hg = lower_convex_envelope(g)
        if any(a > b + 1e-12 for a, b in zip(hf, hg)):
            return False, f"trial {trial}: envelope not monotone"
    return True, f"{caps.envelope_trials} trials"


def check_jensen_step(caps: VerifyCaps, rng) -> tuple[bool, str]:
    """On each linear run of the envelope, the straightened increments can
    only lower the summed rate."""
    for trial in range(caps.envelope_trials):
        f = oracles.random_grid(rng)
        h = lower_convex_envelope(f)
        contacts = [i for i, (hv, fv) in enumerate(zip(h, f)) if abs(hv - fv) <= 1e-12]
        for a, b in zip(contacts, contacts[1:]):
            if b - a < 2:
                continue
            raw = sum(rate_function(f[i + 1] - f[i]) for i in range(a, b))
            straight = (b - a) * rate_function((f[b] - f[a]) / (b - a))
            if raw < straight - 1e-9:
                return False, f"trial {trial}: Jensen step fails on [{a},{b}]"
    return True, f"{caps.envelope_trials} trials"


# ------------------------------------------------------------- rate function


def check_rate_oracle(caps: VerifyCaps, rng) -> tuple[bool, str]:
    """Closed form against the bisection Legendre transform."""
    pts = caps.rate_points
    worst = 0.0
    for i in range(pts):
        x = -0.999 + 1.998 * i / (pts - 1)
        worst = max(worst, abs(rate_function(x) - oracles.rate_function_numeric(x)))
    if worst >= 1e-9:
        return False, f"max deviation {worst:.3e} >= 1e-9"
    return True, f"{pts} points on [-0.999, 0.999], max deviation {worst:.3e}"


def check_rate_derivative(caps: VerifyCaps, rng) -> tuple[bool, str]:
    worst = 0.0
    pts = 500
    for i in range(pts):
        x = -0.95 + 1.9 * i / (pts - 1)
        d = oracles.derivative(growth_rate, x, h=1e-4)
        worst = max(worst, abs(d + math.atanh(x)))
    if worst >= 1e-9:
        return False, f"max residual {worst:.3e} >= 1e-9"
    return True, f"{pts} points, max residual {worst:.3e}"


def verify_constants() -> dict[str, float]:
    """Recompute the curve's defining identities by quadrature and finite
    differences and return the residuals by name.

    Checks, in order: the tail integral of log(1 + e^{-2x}) against
    pi^2/24; the growth-rate integral of tanh against twice that tail
    integral (both against pi^2/12); unit excess area of the curve; the
    functional value, the growth rate of the curve's slope integrated over
    [-TAIL_CUTOFF, TAIL_CUTOFF], against pi/sqrt(3); and the stationarity
    condition slope = tanh(beta*x), differentiating the curve with a
    five-point stencil on a grid over |x| <= 5.
    """
    curve = VershikCurve()
    tail = oracles.adaptive_simpson(
        lambda x: math.log1p(math.exp(-2.0 * x)), 0.0, TAIL_CUTOFF
    )
    growth_lhs = oracles.adaptive_simpson(
        lambda u: growth_rate(math.tanh(u)), 0.0, TAIL_CUTOFF
    )
    area = oracles.adaptive_simpson(
        lambda x: curve.value(x) - abs(x), -TAIL_CUTOFF, TAIL_CUTOFF
    )
    functional = oracles.adaptive_simpson(
        lambda x: growth_rate(curve.slope(x)), -TAIL_CUTOFF, TAIL_CUTOFF
    )
    el = 0.0
    for i in range(501):
        x = -5.0 + 10.0 * i / 500.0
        el = max(el, abs(oracles.derivative(curve.value, x) - curve.slope(x)))
    return {
        "tail_integral_residual": abs(tail - math.pi**2 / 24.0),
        "growth_identity_lhs_residual": abs(growth_lhs - AREA_CONSTANT),
        "growth_identity_rhs_residual": abs(2.0 * tail - AREA_CONSTANT),
        "normalization_residual": abs(area - 1.0),
        "functional_residual": abs(functional - FUNCTIONAL_MAX),
        "euler_lagrange_residual": el,
    }


def check_limit_constants(caps: VerifyCaps, rng) -> tuple[bool, str]:
    residuals = verify_constants()
    bounds = {
        "tail_integral_residual": 1e-8,
        "growth_identity_lhs_residual": 1e-8,
        "growth_identity_rhs_residual": 1e-8,
        "normalization_residual": 1e-8,
        "functional_residual": 1e-6,
        "euler_lagrange_residual": 1e-10,
    }
    for key, value in residuals.items():
        if value >= bounds[key]:
            return False, f"{key} = {value:.3e} >= {bounds[key]:.0e}"
    return True, f"all residuals within bounds, worst {max(residuals.values()):.3e}"


def random_shape(rng: random.Random, half_width: int = 4) -> PiecewiseLinearShape:
    """Random even member of the shape space: a 1-Lipschitz walk above |x|
    built inward from the boundary, mirrored, and area-normalized."""
    heights = [float(half_width)]
    for j in range(half_width - 1, -1, -1):
        heights.append(max(float(j), heights[-1] + rng.uniform(-1.0, 1.0)))
    right = list(reversed(heights))  # index j = 0..half_width
    kinks = [(float(j), right[abs(j)]) for j in range(-half_width, half_width + 1)]
    shape = PiecewiseLinearShape(tuple(kinks))
    area = shape.excess_area()
    if area > 1.0:
        shape = shape.rescaled(1.0 / math.sqrt(area))
    return shape


def check_functional_scaling(caps: VerifyCaps, rng) -> tuple[bool, str]:
    """shape_functional(rescaled) must scale exactly like the length unit."""
    for alpha in (0.25, 0.5, 2.0, 4.0):
        for _ in range(10):
            shape = random_shape(rng)
            scaled = shape.rescaled(alpha**-0.5)
            lhs = shape_functional(scaled)
            rhs = alpha**-0.5 * shape_functional(shape)
            if abs(lhs - rhs) > 1e-12:
                return False, f"scaling fails at alpha={alpha}: {lhs} vs {rhs}"
    return True, "alpha in {0.25, 0.5, 2, 4}, 10 shapes each"


def check_envelope_improves_functional(caps: VerifyCaps, rng) -> tuple[bool, str]:
    for trial in range(caps.envelope_trials):
        shape = random_shape(rng)
        env = shape.envelope()
        if shape_functional(env) < shape_functional(shape) - 1e-12:
            return False, f"trial {trial}: envelope lowered the functional"
    return True, f"{caps.envelope_trials} random shapes"


def check_functional_optimality(caps: VerifyCaps, rng) -> tuple[bool, str]:
    """No tested member of the shape space beats the limit curve's value."""
    limit = FUNCTIONAL_MAX + 1e-9
    shapes = [PiecewiseLinearShape(((-1.0, 1.0), (1.0, 1.0)))]
    for _ in range(20):
        shapes.append(random_shape(rng))
    for n in (4, 9, 16, 25):
        report = _scan(n, 1)
        shapes.append(rescale(_profile(report.maximizers[0]), n).envelope())
    curve = VershikCurve()
    for m in (8, 16, 32):
        # wide window so the boundary kinks land on |x| to within 1e-9
        xs = [-20.0 + 40.0 * i / m for i in range(m + 1)]
        kinks = [(x, curve.value(x)) for x in xs]
        chord = PiecewiseLinearShape(tuple(kinks))
        # chords overshoot the curve's area; normalize back into the space
        chord = chord.rescaled(1.0 / math.sqrt(chord.excess_area()))
        shapes.append(chord)
    worst = max(shape_functional(s) for s in shapes)
    if worst > limit:
        return False, f"functional {worst} exceeds {limit}"
    return True, f"{len(shapes)} shapes, max functional {worst:.9f}"


# ------------------------------------------------------------------ counting

def check_bridge_bijection(caps: VerifyCaps, rng) -> tuple[bool, str]:
    count = 0
    for lam in _all_partitions_upto(caps.paired_n):
        a = _subpartitions(lam)
        b = count_bridges_below(_profile(lam)).value
        if a != b:
            return False, f"bridges {b} != subpartitions {a} at {lam}"
        count += 1
    return True, f"{count} partitions, n <= {caps.paired_n}"


def check_counting_brute_force(caps: VerifyCaps, rng) -> tuple[bool, str]:
    """Row DP and chain determinant against explicit enumeration over the
    subpartition poset, weak and strict, k <= 3."""
    count = 0
    for lam in _all_partitions_upto(caps.brute_n):
        weak, strict_counts = oracles.poset_chain_counts(lam.parts, 3)
        if _subpartitions(lam) != weak[0]:
            return False, f"subpartition count wrong at {lam}"
        for k in (1, 2, 3):
            for strict, poset in ((False, weak), (True, strict_counts)):
                expected = poset[k - 1]
                got = _chains(lam, k, strict)
                if got != expected:
                    return False, (
                        f"chain count mismatch at {lam}, k={k}, strict={strict}: "
                        f"determinant {got}, poset {expected}"
                    )
        count += 1
    return True, f"{count} partitions, n <= {caps.brute_n}, k <= 3"


def check_macmahon_box(caps: VerifyCaps, rng) -> tuple[bool, str]:
    """Weak chains in a rectangle against the box product formula."""
    for a in range(1, 4):
        for b in range(1, 4):
            for k in range(1, 4):
                want = oracles.macmahon_box(a, b, k)
                got = _chains(Partition((b,) * a), k, False)
                if got != want:
                    return False, f"box {a}x{b}x{k}: {got} != {want}"
    return True, "all boxes a, b, k <= 3"


def check_count_conjugation(caps: VerifyCaps, rng) -> tuple[bool, str]:
    for lam in _all_partitions_upto(caps.paired_n):
        if _subpartitions(lam) != _subpartitions(conjugate(lam)):
            return False, f"conjugation changes count at {lam}"
    return True, f"n <= {caps.paired_n}"


def check_envelope_bound(caps: VerifyCaps, rng) -> tuple[bool, str]:
    """Log of every count stays under the envelope bound; k-chains under k
    times it."""
    for lam in _all_partitions_upto(caps.formula_n):
        bound = envelope_count_bound(_profile(lam))
        if math.log(_subpartitions(lam)) > bound.log_value + 1e-9:
            return False, f"bound violated at {lam}"
    for lam in _all_partitions_upto(caps.chain_bound_n):
        bound = envelope_count_bound(_profile(lam))
        if math.log(_chains(lam, 2, False)) > 2 * bound.log_value + 1e-9:
            return False, f"2-chain bound violated at {lam}"
    return True, f"n <= {caps.formula_n} (k=1), n <= {caps.chain_bound_n} (k=2)"


def check_crude_bound(caps: VerifyCaps, rng) -> tuple[bool, str]:
    for lam in _all_partitions_upto(caps.formula_n):
        if lam.n == 0:
            continue
        if _subpartitions(lam) > (lam.n + 1) * partition_count(lam.n).value:
            return False, f"crude bound violated at {lam}"
    return True, f"n <= {caps.formula_n}"


def check_count_monotonicity(caps: VerifyCaps, rng) -> tuple[bool, str]:
    """Adding any single box strictly increases the subpartition count."""
    for lam in _all_partitions_upto(caps.paired_n):
        base = _subpartitions(lam)
        parts = list(lam.parts)
        for i in range(len(parts) + 1):
            grown = list(parts)
            if i < len(parts):
                grown[i] += 1
            else:
                grown.append(1)
            if any(a < b for a, b in zip(grown, grown[1:])):
                continue
            if _subpartitions(Partition(tuple(grown))) <= base:
                return False, f"no strict growth from {lam} at row {i}"
    return True, f"n <= {caps.paired_n}"


def check_pentagonal(caps: VerifyCaps, rng) -> tuple[bool, str]:
    for n in range(caps.sequence_n + 1):
        by_enum = sum(1 for _ in enumerate_partitions(n))
        if partition_count(n).value != by_enum:
            return False, f"iterative p({n}) wrong"
        if oracles.pentagonal_memoized(n) != by_enum:
            return False, f"memoized p({n}) wrong"
    a = partition_count(100).value
    b = oracles.pentagonal_memoized(100)
    if a != b or a != 190569292:
        return False, f"p(100): iterative {a}, memoized {b}"
    return True, f"n <= {caps.sequence_n} vs enumeration; p(100) = {a} twice"


def check_hr_exponent(caps: VerifyCaps, rng) -> tuple[bool, str]:
    """p(n) against the Hardy-Ramanujan asymptote exp(HR_RATE * sqrt(n)) /
    (4 sqrt(3) n): the ratio rises strictly toward 1 from below, with a
    deficit under 0.5 / sqrt(n)."""
    p = list(islice(_partition_numbers(), 301))
    ratios = []
    for n in (10, 30, 100, 300):
        ratio = p[n] * 4.0 * math.sqrt(3.0) * n / math.exp(HR_RATE * math.sqrt(n))
        if not 1.0 - 0.5 / math.sqrt(n) < ratio < 1.0:
            return False, f"p({n}) / asymptote = {ratio:.6f} outside (1 - 0.5/sqrt(n), 1)"
        if ratios and ratio <= ratios[-1]:
            return False, f"p(n) / asymptote does not rise at n={n}"
        ratios.append(ratio)
    shown = ", ".join(f"{r:.3f}" for r in ratios)
    return True, f"p(n) / asymptote at n = 10, 30, 100, 300: {shown}"


# ----------------------------------------------------------------- maximizer


def check_maximizer_ground_truth(caps: VerifyCaps, rng) -> tuple[bool, str]:
    report = _scan(4, 1)
    got = {m.parts for m in report.maximizers}
    if got != {(3, 1), (2, 1, 1)} or report.max_count != 7:
        return False, f"n=4 maximizers {got}, count {report.max_count}"
    # cross-check k=2 against the poset brute force
    brute = {
        parts: oracles.poset_chain_counts(parts, 2)[0][-1] for parts in enumerate_partitions(4)
    }
    best = max(brute.values())
    expect = {p for p, v in brute.items() if v == best}
    report2 = _scan(4, 2)
    got2 = {m.parts for m in report2.maximizers}
    if got2 != expect or report2.max_count != best:
        return False, f"n=4 k=2 maximizers {got2} vs brute {expect}"
    return True, f"n=4: k=1 -> {{(3,1),(2,1,1)}} at 7; k=2 -> {sorted(got2)} at {best}"


def check_maximizer_closure(caps: VerifyCaps, rng) -> tuple[bool, str]:
    """The argmax over every partition counted on its own is
    conjugation-closed, and it is the scan's set, which only visits
    lam_1 >= len(lam) and so is closed by construction."""
    for k, top in ((1, caps.argmax_n), (2, caps.closure_chain_n)):
        for n in range(1, top + 1):
            best, winners = oracles.scan_maximizers(n, k)
            have = set(winners)
            if any(conjugate(Partition(parts)).parts not in have for parts in winners):
                return False, f"k={k} per-partition argmax not closed at n={n}"
            report = _scan(n, k)
            if report.max_count != best or {m.parts for m in report.maximizers} != have:
                return False, f"k={k} scan argmax differs from per-partition argmax at n={n}"
    return True, (
        "per-partition argmax closed and equal to the scan's, "
        f"k=1 n <= {caps.argmax_n}, k=2 n <= {caps.closure_chain_n}"
    )


def check_maximizer_growth(caps: VerifyCaps, rng) -> tuple[bool, str]:
    prev = 0
    for n in range(1, caps.sequence_n + 1):
        report = _scan(n, 1)
        if report.max_count <= prev:
            return False, f"max count not strictly increasing at n={n}"
        prev = report.max_count
        if report.exponent >= report.hr_reference:
            return False, f"exponent gap closed at n={n}"
    return True, f"strictly increasing with positive exponent gap, n <= {caps.sequence_n}"


def check_limit_shape_trend(caps: VerifyCaps, rng) -> tuple[bool, str]:
    """Maximizer shapes drift toward the limit curve as n grows, from
    n = 1..5 to ``caps.trend_ns``, and their envelopes never beat the
    curve's functional value."""
    ns = caps.trend_ns
    span = f"d[{ns[0]}..{ns[-1]}]"
    small = [_scan(n, 1) for n in range(1, 6)]
    large = [_scan(n, 1) for n in ns]
    d_small = min(r.distance_to_vershik for r in small)
    d_large = min(r.distance_to_vershik for r in large)
    if d_large >= d_small:
        return False, f"no trend: min {span}={d_large:.4f} >= min d[1..5]={d_small:.4f}"
    for report in small + large:
        env = rescale(_profile(report.maximizers[0]), report.n).envelope()
        if shape_functional(env) > FUNCTIONAL_MAX + 1e-9:
            return False, f"envelope functional too large at n={report.n}"
        if report.hr_reference - report.exponent <= 0.0:
            return False, f"exponent gap closed at n={report.n}"
    return True, f"min {span}={d_large:.4f} < min d[1..5]={d_small:.4f}"


def check_chain_maximizer_comparison(caps: VerifyCaps, rng) -> tuple[bool, str]:
    """The k=1 and k=2 maxima satisfy M1 < M2 < M1^2, and no winner of one
    scan, rescored for the other k, beats the other scan's maximum; the
    detail records where the two argmax sets agree."""
    same = []
    differ = []
    for n in range(1, caps.closure_chain_n + 1):
        one, two = _scan(n, 1), _scan(n, 2)
        m1, m2 = one.max_count, two.max_count
        if not m1 < m2 < m1 * m1:
            return False, f"M1={m1}, M2={m2} break M1 < M2 < M1^2 at n={n}"
        if any(_chains(lam, 2, False) > m2 for lam in one.maximizers):
            return False, f"a k=1 winner beats the k=2 maximum at n={n}"
        if any(_subpartitions(lam) > m1 for lam in two.maximizers):
            return False, f"a k=2 winner beats the k=1 maximum at n={n}"
        a = {m.parts for m in one.maximizers}
        b = {m.parts for m in two.maximizers}
        (same if a == b else differ).append(n)
    return True, f"k=1 vs k=2 argmax equal at n={same}, differ at n={differ}"


# -------------------------------------------------------------------- cli-io


def check_csv_determinism(caps: VerifyCaps, rng) -> tuple[bool, str]:
    # the k = 2 CSV of the streamed scan against one from per-partition counts
    n = caps.argmax_n
    reports = (find_maximizers(n, 2), maximizer_report(n, 2, *oracles.scan_maximizers(n, 2)))
    streamed, counted = (
        render.csv_lines([render.MAXIMIZE_COLUMNS, render.report_row(r)]) for r in reports
    )
    if streamed.encode() != counted.encode():
        return False, f"k=2 csv differs between streamed and per-partition counts at n={n}"
    return True, f"n={n}, k=2: byte-identical from streamed and per-partition counts"


def check_json_roundtrip(caps: VerifyCaps, rng) -> tuple[bool, str]:
    import json

    payloads = [
        render.count_payload(count_subpartitions(Partition((3, 1)))),
        render.report_payload(find_maximizers(6, 2)),
        render.bound_payload("2,1", envelope_count_bound(profile(Partition((2, 1))))),
    ]
    for payload in payloads:
        text = render.to_json(payload)
        again = render.to_json(json.loads(text))
        if text != again:
            return False, "round trip changed the document"
    return True, f"{len(payloads)} documents stable under parse/serialize"


CHECKS: list[tuple[str, Callable]] = [
    ("profile-order-compatibility", check_profile_order),
    ("profile-area-identity", check_profile_area),
    ("profile-unit-steps", check_profile_steps),
    ("profile-conjugation-reflection", check_conjugation_reflection),
    ("enumeration-order-and-count", check_enumeration_count),
    ("envelope-energy-optimality", check_envelope_energy),
    ("decreasing-envelope-energy-optimality", check_decreasing_envelope_energy),
    ("envelope-idempotence", check_envelope_idempotent),
    ("envelope-monotonicity", check_envelope_monotone),
    ("envelope-jensen-step", check_jensen_step),
    ("rate-function-oracle", check_rate_oracle),
    ("rate-derivative-identity", check_rate_derivative),
    ("limit-curve-constants", check_limit_constants),
    ("functional-scaling-law", check_functional_scaling),
    ("envelope-improves-functional", check_envelope_improves_functional),
    ("functional-optimality", check_functional_optimality),
    ("bridge-subpartition-bijection", check_bridge_bijection),
    ("counting-brute-force", check_counting_brute_force),
    ("macmahon-box-product", check_macmahon_box),
    ("count-conjugation-invariance", check_count_conjugation),
    ("envelope-count-bound", check_envelope_bound),
    ("crude-count-bound", check_crude_bound),
    ("count-monotonicity", check_count_monotonicity),
    ("pentagonal-recurrence", check_pentagonal),
    ("hardy-ramanujan-exponent", check_hr_exponent),
    ("maximizer-ground-truth", check_maximizer_ground_truth),
    ("maximizer-conjugation-closure", check_maximizer_closure),
    ("maximizer-growth", check_maximizer_growth),
    ("limit-shape-trend", check_limit_shape_trend),
    ("chain-maximizer-comparison", check_chain_maximizer_comparison),
    ("csv-determinism", check_csv_determinism),
    ("json-roundtrip", check_json_roundtrip),
]


def run_verification(level: str = "fast", seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Every check of the registry, in its order: the first 15 here, the
    other 17 in one forked child (``counting._in_two``).  The first half
    holds ``enumeration-order-and-count`` and ``limit-curve-constants``,
    so a tracer still sees enumeration and the constants' quadrature; the
    child holds every check that scans.  Each half computes each library
    count and scan once, in caches that live only as long as the half
    (``_PER_RUN``); the oracles count without them.

    The split makes the larger half of a fast run the smallest.  Measured
    in process at seed 7 (minimum of 30, shared 2-core host, Python
    3.11), the halves take 22.2 and 21.3 ms, against 24.8 and 19.2 ms
    split after ``functional-optimality``; at ``full`` (seed 2718,
    minimum of 6 fresh runs) 142 and 282 ms."""
    if level not in ("fast", "full"):
        raise ValueError(f"unknown verification level {level!r}")
    caps = FULL if level == "full" else FAST
    half = 15
    first, second = _in_two(
        lambda: _run_checks(CHECKS[:half], caps, seed),
        lambda: _run_checks(CHECKS[half:], caps, seed),
    )
    return [CheckResult(*result) for result in first + second]


def _run_checks(
    checks: list[tuple[str, Callable]], caps: VerifyCaps, seed: int
) -> list[tuple[str, bool, str, float]]:
    """(name, passed, detail, seconds) of each check, plain values that
    marshal can carry out of a forked child."""
    for helper in _PER_RUN:
        helper.cache_clear()
    results = []
    for name, fn in checks:
        # string seeds hash stably (sha512), unlike hash() under PYTHONHASHSEED
        rng = random.Random(f"{seed}:{name}")
        start = time.perf_counter()
        try:
            passed, detail = fn(caps, rng)
        except Exception as exc:  # a crashing check is a failing check
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append((name, passed, detail, time.perf_counter() - start))
    for helper in _PER_RUN:
        helper.cache_clear()
    return results
