import math
import random

import pytest

from subpart.envelope import DiscreteFunction, lower_convex_envelope
from subpart.ratefn import rate_function
from subpart.verify import decreasing_lower_convex_envelope, path_energy

from subpart import oracles


def random_walk(rng, max_len=14):
    length = rng.randint(2, max_len)
    vals = [rng.uniform(-3.0, 3.0)]
    for _ in range(length - 1):
        vals.append(vals[-1] + rng.uniform(-1.5, 1.5))
    return DiscreteFunction(rng.randint(-4, 4), tuple(vals))


def test_discrete_function_basics():
    f = DiscreteFunction(-2, (3.0, 1.0, 2.0))
    assert f.hi == 0
    assert f.value(-2) == 3.0
    assert f.value(0) == 2.0
    assert f.increments() == (-2.0, 1.0)
    with pytest.raises(IndexError):
        f.value(1)
    with pytest.raises(ValueError):
        DiscreteFunction(0, ())


def test_envelope_frozen_case():
    f = DiscreteFunction(0, (0.0, 2.0, 1.0, 3.0))
    assert lower_convex_envelope(f).values == (0.0, 0.5, 1.0, 3.0)


def test_envelope_matches_chord_oracle():
    rng = random.Random(41)
    for _ in range(300):
        f = random_walk(rng)
        env = lower_convex_envelope(f)
        expect = oracles.chord_min_envelope(list(f.values))
        assert env.lo == f.lo and len(env.values) == len(f.values)
        for got, want in zip(env.values, expect):
            assert abs(got - want) <= 1e-12
        # endpoints are hull vertices and must be hit exactly
        assert env.values[0] == f.values[0]
        assert env.values[-1] == f.values[-1]


def test_envelope_touches_f_exactly_at_contacts():
    # values the hull passes through are reproduced bit for bit, not
    # recomputed through interpolation
    f = DiscreteFunction(0, (1.0, 0.1 + 0.2, 1.0 / 3.0, 5.0))
    env = lower_convex_envelope(f)
    assert env.values[1] == 0.1 + 0.2
    assert env.values[2] == 1.0 / 3.0


def test_envelope_idempotent_and_monotone():
    rng = random.Random(42)
    for _ in range(100):
        f = random_walk(rng)
        env = lower_convex_envelope(f)
        again = lower_convex_envelope(env)
        assert all(abs(a - b) <= 1e-12 for a, b in zip(env.values, again.values))
        g = DiscreteFunction(f.lo, tuple(v + rng.uniform(0, 2) for v in f.values))
        envg = lower_convex_envelope(g)
        assert all(a <= b + 1e-12 for a, b in zip(env.values, envg.values))


def test_decreasing_envelope_frozen_cases():
    f = DiscreteFunction(0, (3.0, 1.0, 2.0))
    assert decreasing_lower_convex_envelope(f).values == (3.0, 1.0, 1.0)
    g = DiscreteFunction(0, (0.0, 5.0))
    assert decreasing_lower_convex_envelope(g).values == (0.0, 0.0)


def test_decreasing_envelope_matches_oracle():
    rng = random.Random(43)
    for _ in range(300):
        f = random_walk(rng)
        env = decreasing_lower_convex_envelope(f)
        expect = oracles.decreasing_envelope_oracle(list(f.values))
        for got, want in zip(env.values, expect):
            assert abs(got - want) <= 1e-12
        assert env.values[0] == f.values[0]
        assert all(b <= a + 1e-12 for a, b in zip(env.values, env.values[1:]))


def test_path_energy():
    flat = DiscreteFunction(0, (1.0, 1.0, 1.0))
    assert path_energy(flat, rate_function) == 0.0
    step = DiscreteFunction(0, (0.0, 1.0))
    assert path_energy(step, rate_function) == pytest.approx(math.log(2.0))
    wild = DiscreteFunction(0, (0.0, 1.5))
    assert math.isinf(path_energy(wild, rate_function))
    assert path_energy(DiscreteFunction(0, (0.0, 2.0, 2.0)), lambda d: d * d) == 4.0


def test_envelope_minimizes_energy_spot_check():
    rng = random.Random(44)
    for _ in range(40):
        f = random_walk(rng, max_len=10)
        h = lower_convex_envelope(f)
        jh = path_energy(h, rate_function)
        # competitor: straight chord between the endpoints, clipped under f
        n = len(f.values)
        chord = [
            f.values[0] + (f.values[-1] - f.values[0]) * i / (n - 1)
            for i in range(n)
        ]
        g = DiscreteFunction(f.lo, tuple(min(c, v) for c, v in zip(chord, f.values)))
        assert path_energy(g, rate_function) >= jh - 1e-9
