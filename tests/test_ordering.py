import random
from fractions import Fraction

import pytest

from phstab.complexes import FiltrationFunction, validate_complex
from phstab.errors import DomainMismatch
from phstab.generate import (
    GeneratorConfig,
    generate_complex,
    generate_instance,
    random_filtration,
)
from phstab.ordering import total_order

from oracles import (
    IncompatibleOrder,
    check_order_compatible,
    fraction_key_order,
    is_order_constant,
    random_compatible_order,
)

TRIANGLE_BOUNDARY = [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]


def test_canonical_order_breaks_ties_by_dim_then_vertices():
    K = validate_complex(TRIANGLE_BOUNDARY)
    f = FiltrationFunction(K, (0, 0, 0, 1, 1, 1))
    order = total_order(K, f)
    assert order == (0, 1, 2, 3, 4, 5)
    # all values equal: still vertices first, then edges lexicographically
    g = FiltrationFunction(K, (2, 2, 2, 2, 2, 2))
    assert total_order(K, g) == (0, 1, 2, 3, 4, 5)


def test_canonical_order_sorts_by_value_first():
    K = validate_complex([(0,), (1,), (0, 1)])
    f = FiltrationFunction(K, (1, 0, 2))
    assert total_order(K, f) == (1, 0, 2)


def test_integer_sort_equals_the_fraction_key_sort_on_tied_instances():
    """Tied values, on generated complexes and on copies that list their
    simplices in a shuffled face-closed order, where the tie order is not
    the list order."""
    rng = random.Random(16)
    ties = reordered = 0
    for seed in range(150):
        inst = generate_instance(
            GeneratorConfig(seed=seed, num_vertices=4 + seed % 4, unique=False)
        )
        K = inst.complex
        moved = list(range(len(K)))
        rng.shuffle(moved)
        L = validate_complex([K.simplices[i] for i in moved])
        reordered += L.tie_order != tuple(range(len(L)))
        for f in inst.functions:
            ties += len(set(f.values)) < len(K)
            g = FiltrationFunction(L, [f.values[i] for i in moved])
            assert total_order(K, f) == fraction_key_order(K, f)
            assert total_order(L, g) == fraction_key_order(L, g)
    assert ties >= 200 and reordered >= 140


def _mixed_monotone(K, rng, starts, steps):
    """A monotone function: each vertex takes a value from ``starts``, and
    every other simplex the largest value of its facets plus one of
    ``steps`` (>= 0), so a step of 0 ties a simplex with a face."""
    values = [None] * len(K)
    for j in sorted(range(len(K)), key=lambda j: K.simplices[j].dim):
        faces = [values[i] for i in K.facet_positions[j]]
        values[j] = max(faces) + rng.choice(steps) if faces else rng.choice(starts)
    return FiltrationFunction(K, values)


def test_integer_sort_equals_the_fraction_key_sort_on_negative_mixed_values():
    rng = random.Random(15)
    starts = [Fraction(-7, 3), Fraction(-1, 6), -2, 0, Fraction(5, 7)]
    steps = [0, 0, Fraction(2, 5), Fraction(9, 14), Fraction(1, 3)]
    negative = 0
    for seed in range(120):
        K = generate_complex(rng, GeneratorConfig(seed=seed, num_vertices=5))
        f = _mixed_monotone(K, rng, starts, steps)
        negative += min(f.values) < 0
        assert total_order(K, f) == fraction_key_order(K, f)
    assert negative >= 100


def test_check_order_compatible_rejects_non_permutation():
    K = validate_complex([(0,), (1,)])
    f = FiltrationFunction(K, (0, 1))
    for order in ((0, 0), (0,)):
        with pytest.raises(IncompatibleOrder, match="not a permutation"):
            check_order_compatible(K, f, order)


def test_check_order_compatible_accepts_canonical():
    K = validate_complex(TRIANGLE_BOUNDARY)
    f = FiltrationFunction(K, (0, 0, 1, 1, 1, 2))
    check_order_compatible(K, f, total_order(K, f))


def test_check_order_compatible_rejects_decreasing_values():
    K = validate_complex([(0,), (1,), (0, 1)])
    f = FiltrationFunction(K, (0, 1, 2))
    with pytest.raises(IncompatibleOrder):
        check_order_compatible(K, f, (1, 0, 2))


def test_check_order_compatible_rejects_face_after_coface():
    K = validate_complex([(0,), (1,), (0, 1)])
    f = FiltrationFunction(K, (0, 0, 0))
    # values allow any arrangement, but the edge may not precede vertex 1
    with pytest.raises(IncompatibleOrder):
        check_order_compatible(K, f, (0, 2, 1))


def test_order_constant_detects_swap():
    K = validate_complex([(0,), (1,)])
    f0 = FiltrationFunction(K, (0, 1))
    f1 = FiltrationFunction(K, (1, 0))
    # the two vertex values cross at t = 1/2
    assert not is_order_constant(f0, f1, 0, 1)
    assert is_order_constant(f0, f1, 0, Fraction(1, 4))
    # a coincidence exactly at an endpoint does not count as a swap
    assert is_order_constant(f0, f1, 0, Fraction(1, 2))
    assert is_order_constant(f0, f1, Fraction(1, 2), 1)
    assert not is_order_constant(f0, f1, Fraction(1, 4), Fraction(3, 4))


def test_order_constant_rejects_bad_interval_and_domain():
    K = validate_complex([(0,), (1,)])
    K2 = validate_complex([(0,), (2,)])
    f0 = FiltrationFunction(K, (0, 1))
    f1 = FiltrationFunction(K2, (1, 0))
    with pytest.raises(ValueError):
        is_order_constant(f0, f0, Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(DomainMismatch):
        is_order_constant(f0, f1, 0, 1)


def test_random_compatible_orders_are_valid():
    """Shuffled tie-breaks must still pass the compatibility check."""
    rng = random.Random(9)
    for seed in range(20):
        K = generate_complex(rng, GeneratorConfig(seed=seed, num_vertices=5))
        f = random_filtration(K, rng, unique=False)
        for _ in range(4):
            order = random_compatible_order(K, f, rng)
            check_order_compatible(K, f, order)


def test_identical_functions_have_constant_order_everywhere():
    rng = random.Random(10)
    K = generate_complex(rng, GeneratorConfig(seed=3, num_vertices=5))
    f = random_filtration(K, rng)
    assert is_order_constant(f, f, 0, 1)
