import random
from fractions import Fraction

import pytest

from phstab.complexes import FiltrationFunction, validate_complex, validate_filtration
from phstab.errors import DomainMismatch, NonUniqueValues, TOutOfRange
from phstab.generate import GeneratorConfig, generate_complex, random_filtration
from phstab.interpolation import crossing_times, interpolate, sup_norm

from oracles import interval_midpoints, is_order_constant

PAIR = [(0,), (1,)]


def _two(values0, values1, raw=PAIR):
    K = validate_complex(raw)
    return K, FiltrationFunction(K, values0), FiltrationFunction(K, values1)


def test_interpolate_endpoints_and_midpoint():
    _, f0, f1 = _two((0, 1), (1, 0))
    assert interpolate(f0, f1, 0) is f0
    assert interpolate(f0, f1, 1) is f1
    mid = interpolate(f0, f1, Fraction(1, 2))
    assert mid.values == (Fraction(1, 2), Fraction(1, 2))
    third = interpolate(f0, f1, Fraction(1, 3))
    assert third.values == (Fraction(1, 3), Fraction(2, 3))


def test_interpolate_rejects_bad_t_and_domain():
    _, f0, f1 = _two((0, 1), (1, 0))
    with pytest.raises(TOutOfRange):
        interpolate(f0, f1, Fraction(3, 2))
    with pytest.raises(TOutOfRange):
        interpolate(f0, f1, -1)
    K2 = validate_complex([(0,), (2,)])
    with pytest.raises(DomainMismatch):
        interpolate(f0, FiltrationFunction(K2, (0, 1)), Fraction(1, 2))


def test_interpolation_stays_monotone():
    rng = random.Random(8)
    for seed in range(10):
        K = generate_complex(rng, GeneratorConfig(seed=seed, num_vertices=5))
        f0 = random_filtration(K, rng)
        f1 = random_filtration(K, rng)
        for _ in range(3):
            t = Fraction(rng.randint(0, 16), 16)
            assert validate_filtration(K, interpolate(f0, f1, t)) == ()


def test_sup_norm():
    _, f0, f1 = _two((0, 1), (1, 0))
    assert sup_norm(f0, f1) == 1
    assert sup_norm(f0, f0) == 0
    _, g0, g1 = _two(("0.25", 2), ("0.75", 1))
    assert sup_norm(g0, g1) == 1


def test_sup_norm_scales_linearly_along_the_path():
    _, f0, f1 = _two((0, 3), (2, 0))
    s, t = Fraction(1, 5), Fraction(4, 5)
    assert sup_norm(interpolate(f0, f1, s), interpolate(f0, f1, t)) == (
        t - s
    ) * sup_norm(f0, f1)


def test_crossing_single_swap():
    _, f0, f1 = _two((0, 1), (1, 0))
    sched = crossing_times(f0, f1)
    assert sched.times == (Fraction(1, 2),)
    assert sched.pairs_at == (((0, 1),),)
    assert sched.breakpoints() == (Fraction(0), Fraction(1, 2), Fraction(1))


def test_crossing_asymmetric_slopes():
    _, f0, f1 = _two((0, 3), (2, 0))
    sched = crossing_times(f0, f1)
    assert sched.times == (Fraction(3, 5),)


def test_crossing_on_edge_complex():
    K, f0, f1 = _two((0, 1, 2), (0, 2, 1), raw=[(0,), (1,), (0, 1)])
    sched = crossing_times(f0, f1)
    assert sched.times == (Fraction(1, 2),)
    assert sched.pairs_at == (((1, 2),),)


def test_no_crossings_for_parallel_shift():
    _, f0, f1 = _two((0, 1), (Fraction(1, 4), Fraction(5, 4)))
    assert crossing_times(f0, f1).times == ()
    assert crossing_times(f0, f0).times == ()


def test_crossings_require_unique_values():
    _, f0, f1 = _two((0, 0), (0, 1))
    with pytest.raises(NonUniqueValues) as ei:
        crossing_times(f0, f1)
    assert ei.value.function_id == "f0"
    _, g0, g1 = _two((0, 1), (2, 2))
    with pytest.raises(NonUniqueValues) as ei:
        crossing_times(g0, g1)
    assert ei.value.function_id == "f1"


def test_schedule_size_is_at_most_all_pairs():
    rng = random.Random(12)
    for seed in range(15):
        K = generate_complex(rng, GeneratorConfig(seed=seed, num_vertices=5))
        f0 = random_filtration(K, rng)
        f1 = random_filtration(K, rng)
        sched = crossing_times(f0, f1)
        n = len(K)
        total_pairs = sum(len(ps) for ps in sched.pairs_at)
        assert total_pairs <= n * (n - 1) // 2
        assert len(sched.times) <= total_pairs
        assert all(0 < t < 1 for t in sched.times)
        assert list(sched.times) == sorted(sched.times)


def test_order_constant_between_crossings():
    rng = random.Random(13)
    for seed in range(8):
        K = generate_complex(rng, GeneratorConfig(seed=seed, num_vertices=4))
        f0 = random_filtration(K, rng)
        f1 = random_filtration(K, rng)
        sched = crossing_times(f0, f1)
        bps = sched.breakpoints()
        for lo, hi in zip(bps, bps[1:]):
            assert is_order_constant(f0, f1, lo, hi)
        # an interval straddling a crossing is not order-constant
        for t in sched.times:
            eps = Fraction(1, 10 ** 6)
            assert not is_order_constant(f0, f1, max(0, t - eps), min(1, t + eps))


def test_interval_midpoints():
    _, f0, f1 = _two((0, 1), (1, 0))
    sched = crossing_times(f0, f1)
    assert interval_midpoints(sched) == (Fraction(1, 4), Fraction(3, 4))
