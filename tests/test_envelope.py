import math
import random

import pytest

from subpart.envelope import lower_convex_envelope
from subpart.ratefn import rate_function
from subpart.verify import decreasing_lower_convex_envelope, path_energy

from subpart import oracles


def random_walk(rng, max_len=14):
    length = rng.randint(2, max_len)
    vals = [rng.uniform(-3.0, 3.0)]
    for _ in range(length - 1):
        vals.append(vals[-1] + rng.uniform(-1.5, 1.5))
    return tuple(vals)


def test_envelope_frozen_case():
    env = lower_convex_envelope([0, 2, 1, 3])
    assert env == (0.0, 0.5, 1.0, 3.0) and all(type(v) is float for v in env)
    with pytest.raises(ValueError, match="^domain must be nonempty$"):
        lower_convex_envelope(())


def test_envelope_matches_chord_oracle():
    rng = random.Random(41)
    for _ in range(300):
        f = random_walk(rng)
        env = lower_convex_envelope(f)
        expect = oracles.chord_min_envelope(f)
        assert len(env) == len(f)
        for got, want in zip(env, expect):
            assert abs(got - want) <= 1e-12
        # endpoints are hull vertices and must be hit exactly
        assert env[0] == f[0]
        assert env[-1] == f[-1]


def test_envelope_touches_f_exactly_at_contacts():
    # values the hull passes through are reproduced bit for bit, not
    # recomputed through interpolation
    env = lower_convex_envelope((1.0, 0.1 + 0.2, 1.0 / 3.0, 5.0))
    assert env[1] == 0.1 + 0.2
    assert env[2] == 1.0 / 3.0


def test_envelope_idempotent_and_monotone():
    rng = random.Random(42)
    for _ in range(100):
        f = random_walk(rng)
        env = lower_convex_envelope(f)
        again = lower_convex_envelope(env)
        assert all(abs(a - b) <= 1e-12 for a, b in zip(env, again))
        envg = lower_convex_envelope([v + rng.uniform(0, 2) for v in f])
        assert all(a <= b + 1e-12 for a, b in zip(env, envg))


def test_decreasing_envelope_frozen_cases():
    assert decreasing_lower_convex_envelope((3.0, 1.0, 2.0)) == (3.0, 1.0, 1.0)
    assert decreasing_lower_convex_envelope((0.0, 5.0)) == (0.0, 0.0)


def test_decreasing_envelope_matches_oracle():
    rng = random.Random(43)
    for _ in range(300):
        f = random_walk(rng)
        env = decreasing_lower_convex_envelope(f)
        expect = oracles.decreasing_envelope_oracle(f)
        for got, want in zip(env, expect):
            assert abs(got - want) <= 1e-12
        assert env[0] == f[0]
        assert all(b <= a + 1e-12 for a, b in zip(env, env[1:]))


def test_path_energy():
    assert path_energy((1.0, 1.0, 1.0), rate_function) == 0.0
    assert path_energy((0.0, 1.0), rate_function) == pytest.approx(math.log(2.0))
    assert math.isinf(path_energy((0.0, 1.5), rate_function))
    assert path_energy((0.0, 2.0, 2.0), lambda d: d * d) == 4.0


def test_envelope_minimizes_energy_spot_check():
    rng = random.Random(44)
    for _ in range(40):
        f = random_walk(rng, max_len=10)
        h = lower_convex_envelope(f)
        jh = path_energy(h, rate_function)
        # competitor: straight chord between the endpoints, clipped under f
        n = len(f)
        chord = [f[0] + (f[-1] - f[0]) * i / (n - 1) for i in range(n)]
        g = [min(c, v) for c, v in zip(chord, f)]
        assert path_energy(g, rate_function) >= jh - 1e-9
