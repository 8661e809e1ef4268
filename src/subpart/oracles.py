"""Independent reference implementations used to cross-check the package.

Everything here deliberately takes a different algorithmic route from the
code under test: enumeration instead of dynamic programming, chord minima
instead of hull scans, product formulas instead of transfer matrices,
bisection on tanh instead of the closed-form rate function.  The numerical
routines those checks need (adaptive Simpson quadrature, a derivative
stencil, bisection) live here too.  Slow is fine; these only run at test
and ``verify`` sizes.  The module is not part of the package's public
surface: ``verify`` and the test suite import it directly.
"""

import math
from itertools import product
from typing import Callable

from .counting import EnvelopeBound, count_kchains
from .envelope import DiscreteFunction, lower_convex_envelope
from .partitions import LatticeProfile, Partition
from .ratefn import growth_rate


def enumerate_partitions(n):
    """All partitions of n as weakly decreasing tuples, in decreasing
    lexicographic order: each largest part first, then the partitions of
    the rest into parts no larger."""

    def descending(remaining, max_part):
        if remaining == 0:
            yield ()
            return
        for part in range(min(remaining, max_part), 0, -1):
            for rest in descending(remaining - part, part):
                yield (part,) + rest

    return descending(n, n)


def diagonal_profile(parts):
    """Profile of the partition with these parts, cell by cell: G(j) = |j|
    plus twice the number of cells on diagonal j, O(lam_1 * len(lam))."""
    if not parts:
        return LatticeProfile(0, 0, (0,))
    lo, hi = -len(parts), parts[0]
    diag = [0] * (hi - lo + 1)
    for i, p in enumerate(parts, start=1):
        # cells in row i occupy diagonals 1-i .. p-i
        for j in range(1 - i, p - i + 1):
            diag[j - lo] += 1
    return LatticeProfile(lo, hi, tuple(abs(j) + 2 * diag[j - lo] for j in range(lo, hi + 1)))


def brute_subpartitions(parts):
    """Every subpartition of the given part tuple, found by filtering the
    full box of per-row values.  Zero-padded vectors map one-to-one onto
    subpartitions, so no deduplication is needed."""
    if not parts:
        return [()]
    found = []
    for vec in product(*(range(p + 1) for p in parts)):
        if all(a >= b for a, b in zip(vec, vec[1:])):
            found.append(tuple(v for v in vec if v))
    return found


def is_subpartition(mu, lam):
    """True iff the diagram of mu fits inside the diagram of lam; either may
    be a Partition or a tuple of parts.

    The relation is reflexive, and the empty partition is contained in
    everything.
    """
    if len(mu) > len(lam):
        return False
    return all(m <= l for m, l in zip(mu, lam))


def poset_chain_count(parts, k, strict=False):
    """Count nested k-tuples mu_k <= ... <= mu_1 <= lam (consecutive ones
    distinct when strict) by enumeration: over the subpartition list,
    level by level up the containment poset, so no k-tuple is listed."""
    subs = brute_subpartitions(parts)
    below = {mu: [nu for nu in subs if is_subpartition(nu, mu)] for mu in subs}
    level = {mu: 1 for mu in subs}
    for _ in range(k - 1):
        level = {
            mu: sum(level[nu] for nu in below[mu] if not (strict and nu == mu))
            for mu in subs
        }
    return sum(level.values())


def binomial_chain_count(parts, k):
    """Weak k-chains below lam, which are the plane partitions of shape
    lam with entries at most k, as the len(lam) x len(lam) binomial
    determinant det[C(lam_i + k, k + i - j)] of Gessel and Viennot (1985),
    by Gaussian elimination over the rationals."""
    # imported here, not with the module: verify loads this module, and
    # fractions with decimal would add about 2.5 ms to its start
    from fractions import Fraction
    from math import comb

    size = len(parts)
    m = [
        [Fraction(comb(parts[i] + k, k + i - j) if k + i - j >= 0 else 0) for j in range(size)]
        for i in range(size)
    ]
    det = Fraction(1)
    for i in range(size):
        pivot = next((r for r in range(i, size) if m[r][i] != 0), None)
        if pivot is None:
            return 0
        if pivot != i:
            m[i], m[pivot] = m[pivot], m[i]
            det = -det
        det *= m[i][i]
        for r in range(i + 1, size):
            factor = m[r][i] / m[i][i]
            if factor:
                m[r] = [a - factor * b for a, b in zip(m[r], m[i])]
    if det.denominator != 1:
        raise ValueError(f"binomial determinant for {parts}, k={k} is not an integer: {det}")
    return det.numerator


def scan_maximizers(n, k):
    """The largest weak k-chain count over the partitions of n, and the
    parts of every partition reaching it, in no particular order: each
    partition is listed and counted on its own by ``count_kchains``.  The
    package's scan builds the same Gessel-Viennot matrices while it streams
    row-DP vectors down a tree of partitions, so this checks the traversal
    (the tree, its pruning and the conjugates added); the count itself is
    pinned by the binomial-determinant property tests."""
    counts = {parts: count_kchains(Partition(parts), k).value for parts in enumerate_partitions(n)}
    best = max(counts.values())
    return best, [parts for parts, c in counts.items() if c == best]


def macmahon_box(a, b, c):
    """Plane partitions in an a x b x c box, as an exact product."""
    # imported here, not with the module: verify runs the one check that
    # calls this in its forked child, so its own process loads neither
    # fractions nor decimal (about 2.5 ms of import and their memory)
    from fractions import Fraction

    value = Fraction(1)
    for i in range(1, a + 1):
        for j in range(1, b + 1):
            for k in range(1, c + 1):
                value *= Fraction(i + j + k - 1, i + j + k - 2)
    if value.denominator != 1:
        raise ValueError(f"box product {a}x{b}x{c} is not an integer: {value}")
    return value.numerator


def pentagonal_memoized(n):
    """p(n) by Euler's pentagonal-number recurrence, recursing downward
    with a memo local to this call (the package iterates upward)."""
    memo = {0: 1}

    def p(m):
        if m not in memo:
            total = 0
            k = 1
            while k * (3 * k - 1) // 2 <= m:
                sign = 1 if k % 2 else -1
                total += sign * p(m - k * (3 * k - 1) // 2)
                rest = m - k * (3 * k + 1) // 2
                if rest >= 0:
                    total += sign * p(rest)
                k += 1
            memo[m] = total
        return memo[m]

    return p(n)


def random_grid(rng, max_len=12):
    """Random walk on 2..max_len grid points with unit-bounded increments,
    started at a random offset."""
    length = rng.randint(2, max_len)
    values = [rng.uniform(-2.0, 2.0)]
    for _ in range(length - 1):
        values.append(values[-1] + rng.uniform(-1.0, 1.0))
    return DiscreteFunction(rng.randint(-3, 3), tuple(values))


def chord_min_envelope(values):
    """Lower convex envelope on a grid by brute force: the value at i is
    the smallest chord through two sample points straddling i."""
    n = len(values)
    out = []
    for i in range(n):
        best = values[i]
        for l in range(i + 1):
            for r in range(i, n):
                if l == r:
                    continue
                t = (i - l) / (r - l)
                best = min(best, (1 - t) * values[l] + t * values[r])
        out.append(best)
    return out


def running_min(values):
    out = []
    low = values[0]
    for v in values:
        low = min(low, v)
        out.append(low)
    return out


def decreasing_envelope_oracle(values):
    """Greatest decreasing convex minorant: any decreasing minorant of f is
    a minorant of the running minimum, so take the envelope of that."""
    return chord_min_envelope(running_min(values))


def envelope_count_bound_cells(prof):
    """``counting.envelope_count_bound`` cell by cell: the hull scan over
    every point of the window, then one ``growth_rate`` per unit step of
    the envelope, summed from 0.0 in window order.  The package's bound
    must equal it bit for bit."""
    heights = DiscreteFunction(prof.lo, tuple(float(h) for h in prof.heights))
    log_value = 0.0
    for d in lower_convex_envelope(heights).increments():
        log_value += growth_rate(max(-1.0, min(1.0, d)))
    try:
        value = math.exp(log_value)
    except OverflowError:
        value = math.inf
    return EnvelopeBound(log_value=log_value, value=value)


PANEL_TOL = 1e-10


def adaptive_simpson(
    f: Callable[[float], float], a: float, b: float, tol: float = PANEL_TOL
) -> float:
    """Integrate f over [a, b], refining panels until the Richardson error
    estimate drops below the (halved per split) absolute tolerance."""
    m = 0.5 * (a + b)
    fa, fm, fb = f(a), f(m), f(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _simpson_step(f, a, fa, b, fb, m, fm, whole, tol)


def _simpson_step(f, a, fa, b, fb, m, fm, whole, tol, depth=0):
    left_m = 0.5 * (a + m)
    right_m = 0.5 * (m + b)
    fl, fr = f(left_m), f(right_m)
    left = (m - a) / 6.0 * (fa + 4.0 * fl + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * fr + fb)
    err = left + right - whole
    if abs(err) <= 15.0 * tol or depth >= 50:
        return left + right + err / 15.0
    return _simpson_step(
        f, a, fa, m, fm, left_m, fl, left, 0.5 * tol, depth + 1
    ) + _simpson_step(f, m, fm, b, fb, right_m, fr, right, 0.5 * tol, depth + 1)


def derivative(f: Callable[[float], float], x: float, h: float = 1e-3) -> float:
    """Fourth-order central five-point stencil."""
    return (-f(x + 2 * h) + 8.0 * f(x + h) - 8.0 * f(x - h) + f(x - 2 * h)) / (12.0 * h)


def bisect_increasing(
    f: Callable[[float], float], target: float, lo: float, hi: float, tol: float = 1e-14
) -> float:
    """Solve f(x) = target for increasing f, to absolute tolerance tol on x.

    The bracket is widened geometrically if it does not already straddle the
    target.
    """
    while f(hi) < target:
        hi *= 2.0
    while f(lo) > target:
        lo *= 2.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def log_cosh(t: float) -> float:
    """log(cosh(t)), stable for large |t|."""
    a = abs(t)
    return a + math.log1p(math.exp(-2.0 * a)) - math.log(2.0)


def rate_function_numeric(x: float) -> float:
    """Rate function evaluated straight from the Legendre definition:
    bisect tanh t = x to 1e-14, then return t*x - log cosh t.

    Independent of the closed form ``ratefn.rate_function`` on purpose, so
    the two can be checked against each other.
    """
    if abs(x) >= 1.0:
        raise ValueError(f"numeric Legendre transform needs |x| < 1, got {x}")
    t = bisect_increasing(math.tanh, x, -1.0, 1.0)
    return t * x - log_cosh(t)
