import random
from fractions import Fraction
from math import gcd

import pytest

from phstab.complexes import (
    FiltrationFunction,
    common_scale,
    find_duplicate_value,
    validate_complex,
    validate_filtration,
)
from phstab.errors import DomainMismatch, NonUniqueValues
from phstab.generate import GeneratorConfig, generate_complex, random_filtration
from phstab.interpolation import (
    CrossingSchedule,
    crossing_times,
    interpolate,
    sup_norm,
    time_key,
    time_key_scale,
)
from oracles import (
    TOutOfRange,
    crossings_to_reidentify,
    fraction_interpolate,
    interval_midpoints,
    interval_references,
    is_order_constant,
    reference_differences,
    reidentify_calls,
    reidentify_differences,
    scan_crossing_times,
    verify_recording,
)

PAIR = [(0,), (1,)]


def _vertices(n):
    return validate_complex([(v,) for v in range(n)])


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
    a, b, L = common_scale(f0, f1)
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


def _verified_as_reference(K, f0, f1):
    report, events = verify_recording(K, f0, f1)
    refs = interval_references(K, f0, f1, report.schedule)
    assert reference_differences(K, report, events, refs) == []
    return report


def _keys(f0, f1, times):
    scale = time_key_scale(*common_scale(f0, f1)[:2])
    return [time_key(t.numerator, t.denominator, scale) for t in times]


def test_the_closest_crossing_times_get_adjacent_keys():
    """A crossing time d0/D has 0 < D <= span, the two ranges summed, so
    distinct times differ by at least 1/span^2; exactly that would need
    D = span for both, which puts them 1/span apart.  Here span = 17 and
    the times 9/17 and 8/15 are 1/255 apart, 17/15 of 1/span^2: their keys
    floor(t * span^2) are adjacent, and over span alone they would tie."""
    K = _vertices(3)
    f0 = FiltrationFunction(K, (0, 9, 1))
    f1 = FiltrationFunction(K, (8, 0, 7))
    schedule = crossing_times(f0, f1)
    assert schedule == scan_crossing_times(f0, f1)
    assert schedule.times == (Fraction(1, 2), Fraction(9, 17), Fraction(8, 15))
    assert schedule.pairs_at == (((0, 2),), ((0, 1),), ((1, 2),))
    assert _keys(f0, f1, schedule.times)[1:] == [153, 154]
    assert [t * 17 // 1 for t in schedule.times[1:]] == [9, 9]
    _verified_as_reference(K, f0, f1)


def _adjacent_keys_instance(rng, B, m):
    """Isolated vertices p, q and s, then a path of m vertices, B >= 2m + 1.
    f0 ranges over [0, A], A = B + 1, and f1 over [0, B], so span = 2B + 1.
    p = (A, 0) and q = (0, B) are the extremes of both, so they cross at
    A / span, with D = span.  p and s = (1, B - 1) cross at
    (A - 1) / (span - 2).  The path's values lie strictly inside both
    ranges, and each edge lies above every vertex."""
    def path(lo, hi):  # m vertex values below m - 1 edge values
        values = sorted(rng.sample(range(lo, hi), 2 * m - 1))
        vertices, edges = values[:m], values[m:]
        rng.shuffle(vertices)
        rng.shuffle(edges)
        return vertices + edges

    A = B + 1
    raw = [(v,) for v in range(m + 3)] + [(v, v + 1) for v in range(3, m + 2)]
    K = validate_complex(raw)
    f0 = FiltrationFunction(K, [A, 0, 1] + path(2, A))
    return K, f0, FiltrationFunction(K, [0, B, B - 1] + path(1, B - 1))


@pytest.mark.parametrize("B", [13, 14, 101, 10 ** 12])
def test_keys_one_apart_at_the_largest_span_are_two_times(B):
    """Two crossing times whose keys are one apart, the first with
    D = span.  Only the pair of f0's extremes has f0-gap A, and only the
    pair of f1's extremes has f1-gap B; here both are p and q.  So every
    other pair has D <= span - 2, and p and s attain it: the times
    A / span and (A - 1) / (span - 2) are 1 / (span (span - 2)) apart,
    just above 1/span^2.  Their keys floor(t * span^2) are A * span and
    A * span + 1, and over span alone both would be A."""
    K, f0, f1 = _adjacent_keys_instance(random.Random(B), B, 6)
    span, A = 2 * B + 1, B + 1
    schedule = crossing_times(f0, f1)
    assert schedule == scan_crossing_times(f0, f1)
    t1, t2 = Fraction(A, span), Fraction(A - 1, span - 2)
    k = schedule.times.index(t1)
    assert schedule.times[k + 1] == t2
    assert (0, 1) in schedule.pairs_at[k] and (0, 2) in schedule.pairs_at[k + 1]
    assert _keys(f0, f1, (t1, t2)) == [A * span, A * span + 1]
    assert t1 * span // 1 == t2 * span // 1 == A
    report = _verified_as_reference(K, f0, f1)
    assert report.schedule == schedule
    _, events = verify_recording(K, f0, f1)
    assert reidentify_differences(K, f0, f1, events)[2] == []
    calls, events = reidentify_calls(K, f0, f1)
    assert calls == crossings_to_reidentify(K, f0, f1, events)


def test_equal_times_from_unreduced_gaps_are_one_time():
    # gaps 2 and -2 cross at 2/4, gaps 3 and -3 at 3/6
    K = _vertices(4)
    f0 = FiltrationFunction(K, (2, 0, 13, 10))
    f1 = FiltrationFunction(K, (0, 2, 10, 13))
    schedule = crossing_times(f0, f1)
    assert schedule == scan_crossing_times(f0, f1)
    assert schedule == CrossingSchedule((Fraction(1, 2),), (((0, 1), (2, 3)),))
    report = _verified_as_reference(K, f0, f1)
    assert report.schedule == schedule


def _huge_instance(rng, n):
    """n >= 4 vertices and the edges of a path through them, with values
    that are ints near 10^30 over one denominator up to 10^12.  On the
    vertices f0 ranges over [0, H] and f1 over [0, G].  Vertices 0 and 1
    span both ranges, so they cross at t = H / span, span = H + G, and
    vertices 2 and 3 cross at A / D with A * span - H * D = 1, that is
    1 / (span * D) < 10^-20 later, too close for a key over the span
    alone to tell apart.  The edges lie above their vertices."""
    big = 10 ** 30
    while True:
        H, G = rng.randrange(big, 2 * big), rng.randrange(big, 2 * big)
        span = H + G
        if gcd(H, span) != 1:
            continue
        D = span - pow(H, -1, span)
        A = (1 + H * D) // span
        if not (0 < A < H - 1 and D - A < G - 2):
            continue
        a = [H, 0, A + 1, 1] + [rng.randrange(2, H) for _ in range(n - 4)]
        b = [0, G, 1, 1 + D - A] + [rng.randrange(2, G) for _ in range(n - 4)]
        for v in range(n - 1):
            a.append(max(a[v], a[v + 1]) + rng.randrange(1, big))
            b.append(max(b[v], b[v + 1]) + rng.randrange(1, big))
        q = rng.randrange(1, 10 ** 12)
        K = validate_complex([(v,) for v in range(n)] + [(v, v + 1) for v in range(n - 1)])
        f0 = FiltrationFunction(K, [Fraction(x, q) for x in a])
        f1 = FiltrationFunction(K, [Fraction(y, q) for y in b])
        if find_duplicate_value(f0) is None and find_duplicate_value(f1) is None:
            return K, f0, f1


def test_time_keys_are_exact_for_huge_values_over_large_denominators():
    for seed, n in enumerate((4, 5, 6, 8, 9, 12) * 2):
        K, f0, f1 = _huge_instance(random.Random(seed), n)
        schedule = crossing_times(f0, f1)
        assert schedule == scan_crossing_times(f0, f1)
        times = schedule.times
        assert min(t - s for s, t in zip(times, times[1:])) < Fraction(1, 10 ** 20)
        keys = _keys(f0, f1, times)
        assert keys == sorted(set(keys))
        _verified_as_reference(K, f0, f1)


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
