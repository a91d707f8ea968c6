import random
from fractions import Fraction

import pytest

from phstab.complexes import FiltrationFunction, validate_complex, validate_filtration
from phstab.errors import DomainMismatch, NonUniqueValues
from phstab.generate import GeneratorConfig, generate_complex, random_filtration
from phstab.interpolation import crossing_times, interpolate, sup_norm
from phstab.rational import common_denominator, common_numerators

from oracles import (
    TOutOfRange,
    fraction_interpolate,
    interval_midpoints,
    is_order_constant,
    scan_crossing_times,
)

PAIR = [(0,), (1,)]


def _two(values0, values1, raw=PAIR):
    K = validate_complex(raw)
    return K, FiltrationFunction(K, values0), FiltrationFunction(K, values1)


def test_interpolate_endpoints_and_midpoint():
    _, f0, f1 = _two((0, 1), (1, 0))
    assert fraction_interpolate(f0, f1, 0) is f0
    assert fraction_interpolate(f0, f1, 1) is f1
    mid = fraction_interpolate(f0, f1, Fraction(1, 2))
    assert mid.values == (Fraction(1, 2), Fraction(1, 2))
    third = fraction_interpolate(f0, f1, Fraction(1, 3))
    assert third.values == (Fraction(1, 3), Fraction(2, 3))


def test_interpolate_rejects_bad_t_and_domain():
    _, f0, f1 = _two((0, 1), (1, 0))
    with pytest.raises(TOutOfRange):
        fraction_interpolate(f0, f1, Fraction(3, 2))
    with pytest.raises(TOutOfRange):
        fraction_interpolate(f0, f1, -1)
    K2 = validate_complex([(0,), (2,)])
    with pytest.raises(DomainMismatch):
        fraction_interpolate(f0, FiltrationFunction(K2, (0, 1)), Fraction(1, 2))


def test_interpolate_is_ints_over_q_times_the_common_denominator():
    # f0 over L = 4 is (0, 3), f1 is (4, 2); at t = p/q the ints are
    # a * (q - p) + b * p over q * L, the endpoints a and b themselves
    _, f0, f1 = _two((0, Fraction(3, 4)), (1, Fraction(1, 2)))
    L = common_denominator(f0.values, f1.values)
    a, b = common_numerators(f0.values, f1.values, scale=L)
    assert (L, a, b) == (4, [0, 3], [4, 2])
    assert interpolate(a, b, Fraction(0)) == a
    assert interpolate(a, b, Fraction(1)) == b
    assert interpolate(a, b, Fraction(1, 3)) == [4, 8]  # over 12
    for t in (Fraction(0), Fraction(1, 3), Fraction(5, 7), Fraction(1)):
        got = [Fraction(v, t.denominator * L) for v in interpolate(a, b, t)]
        assert tuple(got) == fraction_interpolate(f0, f1, t).values


def test_interpolation_stays_monotone():
    rng = random.Random(8)
    for seed in range(10):
        K = generate_complex(rng, GeneratorConfig(seed=seed, num_vertices=5))
        f0 = random_filtration(K, rng)
        f1 = random_filtration(K, rng)
        for _ in range(3):
            t = Fraction(rng.randint(0, 16), 16)
            assert validate_filtration(K, fraction_interpolate(f0, f1, t)) == ()


def test_sup_norm():
    _, f0, f1 = _two((0, 1), (1, 0))
    assert sup_norm(f0, f1) == 1
    assert sup_norm(f0, f0) == 0
    _, g0, g1 = _two(("0.25", 2), ("0.75", 1))
    assert sup_norm(g0, g1) == 1
    # over the common denominator 42: |21 - 14| = 7 and |0 - 6| = 6
    _, h0, h1 = _two(("1/3", 0), ("1/2", "1/7"))
    assert sup_norm(h0, h1) == Fraction(1, 6)
    K2 = validate_complex([(0,), (2,)])
    with pytest.raises(DomainMismatch):
        sup_norm(f0, FiltrationFunction(K2, (0, 1)))


def test_sup_norm_scales_linearly_along_the_path():
    _, f0, f1 = _two((0, 3), (2, 0))
    s, t = Fraction(1, 5), Fraction(4, 5)
    f_s, f_t = fraction_interpolate(f0, f1, s), fraction_interpolate(f0, f1, t)
    assert sup_norm(f_s, f_t) == (t - s) * sup_norm(f0, f1)


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
    assert str(ei.value) == "f0: simplices 0 and 1 share value 0"
    _, g0, g1 = _two((0, 1), (2, 2))
    with pytest.raises(NonUniqueValues) as ei:
        crossing_times(g0, g1)
    assert str(ei.value) == "f1: simplices 0 and 1 share value 2"


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


def _distinct_values(rng, n):
    """n distinct values, negative and positive, over mixed denominators."""
    pool: set = set()
    while len(pool) < n:
        pool.add(Fraction(rng.randint(-60, 60), rng.choice((1, 2, 3, 5, 7, 12))))
    return rng.sample(sorted(pool), n)


def test_inversion_schedule_equals_the_all_pairs_scan_on_negative_mixed_values():
    """Only the pairs f0 and f1 order differently are visited; the schedule
    must be the one testing every pair gives, also when every pair crosses
    at one time (f1 = -f0) and when none does (f1 = f0)."""
    rng = random.Random(17)
    for n in (0, 1, 2, 3, 5, 8, 13, 21, 30) * 6:
        K = validate_complex([(v,) for v in range(n)])
        values = _distinct_values(rng, n)
        f0 = FiltrationFunction(K, values)
        negated = FiltrationFunction(K, [-v for v in values])
        for f1 in (FiltrationFunction(K, _distinct_values(rng, n)), negated, f0):
            assert crossing_times(f0, f1) == scan_crossing_times(f0, f1)
    schedule = crossing_times(f0, negated)
    assert schedule.times == (Fraction(1, 2),)
    assert len(schedule.pairs_at[0]) == 30 * 29 // 2


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
