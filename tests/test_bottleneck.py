import random
import time
from collections import Counter
from fractions import Fraction
from math import lcm
from pathlib import Path
from unittest import mock

import pytest

from phstab import bottleneck
from phstab.bottleneck import (
    Matching,
    _perfect_matching,
    bottleneck_bijection,
    bottleneck_diagonal,
    matching_cost,
)
from phstab.cli import run_command
from phstab.complexes import FiltrationFunction, validate_complex
from phstab.errors import CountMismatch, InternalProofViolation, InvalidMatching
from phstab.generate import GeneratorConfig, generate_complex, random_filtration
from phstab.instances import parse_instance
from phstab.persistence import Diagram, DiagramPoint, PivotPair, diagram
from phstab.rational import INF, fraction_string

from oracles import (
    DimensionMismatch,
    TooLarge,
    brute_force_bottleneck,
    brute_force_diagonal,
    counts_by_dim,
    diagonal_cost,
    fraction_matching_cost,
    fraction_matrix_matching,
    min_max_matching,
    pair_cost,
    scratch_min_max_matching,
)


def _point(dim, birth, death):
    return DiagramPoint(dim, Fraction(birth), death, PivotPair(0, None))


def _pair_of_diagrams(seed, vertices=4, max_dimension=2):
    rng = random.Random(seed)
    K = generate_complex(
        rng, GeneratorConfig(seed=seed, num_vertices=vertices, max_dimension=max_dimension)
    )
    f0 = random_filtration(K, rng)
    f1 = random_filtration(K, rng)
    return diagram(K, f0), diagram(K, f1)


def test_pair_cost_rules():
    a = _point(0, 1, Fraction(3))
    b = _point(0, 2, Fraction(7))
    assert pair_cost(a, b) == 4  # death gap dominates
    assert pair_cost(a, a) == 0
    e1 = _point(0, 1, INF)
    e2 = _point(0, 5, INF)
    assert pair_cost(e1, e2) == 4  # essentials compare by birth
    assert pair_cost(a, e1) == INF  # finite never matches essential
    with pytest.raises(DimensionMismatch):
        pair_cost(a, _point(1, 1, Fraction(3)))


def test_diagonal_cost():
    assert diagonal_cost(_point(0, 1, Fraction(4))) == Fraction(3, 2)
    assert diagonal_cost(_point(0, 2, Fraction(2))) == 0
    assert diagonal_cost(_point(0, 1, INF)) == INF


def _points_diagram(points):
    """A diagram from (dim, birth, death) triples, its ints over the lcm of
    their denominators."""
    scale = lcm(*(Fraction(x).denominator for p in points for x in p[1:] if x != INF))

    def over(x):
        return None if x == INF else int(Fraction(x) * scale)

    return Diagram(
        tuple(dim for dim, _, _ in points),
        tuple(over(birth) for _, birth, _ in points),
        tuple(over(death) for _, _, death in points),
        scale,
        (0,) * len(points),
        (None,) * len(points),
    )


def _two_point_diagrams():
    K = validate_complex([(0,), (1,), (2,), (0, 1), (0, 2)])
    D0 = diagram(K, FiltrationFunction(K, (0, 0, 0, 1, 4)))
    D1 = diagram(K, FiltrationFunction(K, (0, 0, 0, 2, 5)))
    return D0, D1


def test_bottleneck_bijection_prefers_order_preserving_match():
    # 0-dim points (0,1),(0,4) vs (0,2),(0,5): crossing them costs 4
    D0, D1 = _two_point_diagrams()
    dist, matching = bottleneck_bijection(D0, D1)
    assert dist == 1
    assert fraction_matching_cost(D0, D1, matching) == 1


def test_matching_cost_validates():
    D0, D1 = _two_point_diagrams()
    n = len(D0.points)
    with pytest.raises(InvalidMatching):
        matching_cost(D0, D1, Matching(tuple((i, 0) for i in range(n))))
    with pytest.raises(InvalidMatching):
        matching_cost(D0, D1, Matching(((0, 0),)))
    D = _points_diagram([(0, 0, INF), (1, 1, INF)])
    cross = r"^pair \(0, 1\) matches dim 0 with dim 1$"
    with pytest.raises(InvalidMatching, match=cross):
        matching_cost(D, D, Matching(((0, 1), (1, 0))))


def test_matching_cost_pins_its_messages_and_equals_the_fraction_twin():
    """``matching_cost`` raises InvalidMatching with its message on each
    invalid matching, and on ints gives the Fraction twin's value: on
    diagonal entries, on essential points and on diagrams over different
    scales."""
    D0, D1 = _two_point_diagrams()
    D = _points_diagram([(0, 0, INF), (1, 1, INF)])
    thirds = _points_diagram(
        [(0, 0, INF), (0, Fraction(1, 3), Fraction(7, 3)), (0, 0, 2)]
    )
    assert len(D0.points) == len(D1.points) == 3
    invalid = {
        "right index 0 reused or out of range": (D0, D1, ((0, 0), (1, 0), (2, 0))),
        "matching does not cover both diagrams": (D0, D1, ((0, 0),)),
        "left index 3 reused or out of range": (D0, D1, ((0, 0), (1, 1), (3, 2))),
        "left index -1 reused or out of range": (D0, D1, ((0, 0), (1, 1), (-1, 2))),
        "right index 3 reused or out of range": (D0, D1, ((0, 0), (1, 1), (2, 3))),
        "empty matching entry": (D0, D1, ((None, None), (0, 0))),
        "pair (0, 1) matches dim 0 with dim 1": (D, D, ((0, 1), (1, 0))),
    }
    for message, (D_left, D_right, pairs) in invalid.items():
        with pytest.raises(InvalidMatching) as ei:
            matching_cost(D_left, D_right, Matching(pairs))
        assert str(ei.value) == message
    valid = [
        (D0, D1, Matching(((0, 0), (1, 1), (2, 2)))),
        (D0, D1, Matching(((0, 0), (1, None), (None, 1), (2, 2)))),
        (D0, D1, Matching(((0, None), (None, 0), (1, 1), (2, 2)))),
        (D0, D1, Matching(((0, 1), (1, 0), (2, 2)))),
        (D0, thirds, Matching(((0, 0), (1, 1), (2, 2)))),
        (thirds, D1, Matching(((0, 0), (1, None), (2, 2), (None, 1)))),
    ]
    assert thirds.scale != D1.scale
    for D_left, D_right, m in valid:
        assert matching_cost(D_left, D_right, m) == fraction_matching_cost(
            D_left, D_right, m
        ), m
    assert matching_cost(*valid[-4]) == INF  # an essential to the diagonal


def test_bottleneck_of_identical_diagrams_is_zero():
    D0, _ = _two_point_diagrams()
    dist, matching = bottleneck_bijection(D0, D0)
    assert dist == 0
    assert fraction_matching_cost(D0, D0, matching) == 0


def test_bijection_requires_equal_counts():
    K0 = validate_complex([(0,)])
    K1 = validate_complex([(0,), (1,), (0, 1)])
    D0 = diagram(K0, FiltrationFunction(K0, (0,)))
    D1 = diagram(K1, FiltrationFunction(K1, (0, 1, 3)))
    with pytest.raises(CountMismatch):
        bottleneck_bijection(D0, D1)
    # the diagonal variant tolerates the extra finite point: (1, 3) folds
    # onto the diagonal at cost 1 while the essentials match for free
    dist, _ = bottleneck_diagonal(D0, D1)
    assert dist == 1


def _essential_count_mismatch():
    # same total count per dimension, different essential counts
    K0 = validate_complex([(0,), (1,)])
    K1 = validate_complex([(0,), (1,), (0, 1)])
    D0 = diagram(K0, FiltrationFunction(K0, (0, 1)))  # two essentials
    D1 = diagram(K1, FiltrationFunction(K1, (0, 1, 2)))  # one essential, one pair
    return D0, D1


def test_infinite_distance_when_essential_counts_differ():
    D0, D1 = _essential_count_mismatch()
    dist, _ = bottleneck_bijection(D0, D1)
    assert dist == INF
    dist, _ = bottleneck_diagonal(D0, D1)
    assert dist == INF
    # births tied across the sides; the witness still costs INF
    D0 = _points_diagram([(0, 1, INF), (0, 1, INF), (0, 1, 2)])
    D1 = _points_diagram([(0, 1, INF), (0, 1, 2), (0, 1, 3)])
    for variant in (bottleneck_bijection, bottleneck_diagonal):
        dist, matching = variant(D0, D1)
        assert dist == INF
        assert fraction_matching_cost(D0, D1, matching) == INF
    # the diagonal absorbs a finite surplus but never an essential point
    dist, _ = bottleneck_diagonal(D0, _points_diagram([(0, 1, INF)]))
    assert dist == INF


def test_diagonal_distance_frozen_example():
    # (0,2) vs (0.9,1.1): direct match costs 0.9, all-diagonal costs 1
    K = validate_complex([(0,), (1,), (0, 1)])
    D0 = diagram(K, FiltrationFunction(K, (0, 0, 2)))
    D1 = diagram(K, FiltrationFunction(K, (0, "0.9", "1.1")))
    dist, _ = bottleneck_diagonal(D0, D1)
    assert dist == Fraction(9, 10)
    # push the points apart and the diagonal wins
    D2 = diagram(K, FiltrationFunction(K, (0, 2, 4)))
    dist, _ = bottleneck_diagonal(D2, D1)
    assert dist == 1


def test_brute_force_limit():
    D0, D1 = _pair_of_diagrams(0)
    with pytest.raises(TooLarge):
        brute_force_bottleneck(D0, D1, limit=1)


def test_bijection_matches_brute_force():
    for seed in range(30):
        D0, D1 = _pair_of_diagrams(seed)
        fast, matching = bottleneck_bijection(D0, D1)
        slow = brute_force_bottleneck(D0, D1)
        assert fast == slow
        assert fraction_matching_cost(D0, D1, matching) == fast


def test_diagonal_never_exceeds_bijection():
    for seed in range(30):
        D0, D1 = _pair_of_diagrams(seed, vertices=5)
        dist, _ = bottleneck_bijection(D0, D1)
        diag, _ = bottleneck_diagonal(D0, D1)
        assert diag <= dist


def test_matching_is_reported_sorted_and_total():
    D0, D1 = _pair_of_diagrams(1, vertices=5)
    _, matching = bottleneck_bijection(D0, D1)
    lefts = [i for i, _ in matching.pairs]
    rights = sorted(j for _, j in matching.pairs)
    assert lefts == list(range(len(D0.points)))
    assert rights == list(range(len(D1.points)))


def _random_diagram(rng, vertices):
    K = generate_complex(
        rng, GeneratorConfig(seed=0, num_vertices=vertices, max_dimension=2)
    )
    return diagram(K, random_filtration(K, rng))


def _candidate_below(D0, D1, cost, diagonal):
    """The largest edge cost of either variant's problem below ``cost``,
    or half of ``cost`` when there is none."""
    costs = [pair_cost(p, q) for p in D0.points for q in D1.points if p.dim == q.dim]
    if diagonal:
        costs += map(diagonal_cost, D0.points + D1.points)
    return max((c for c in costs if c < cost), default=cost / 2)


def test_a_bound_below_the_distance_is_a_violation():
    checked = 0
    for seed in range(20):
        D0, D1 = _pair_of_diagrams(seed, vertices=5)
        for variant in (bottleneck_bijection, bottleneck_diagonal):
            exact, _ = variant(D0, D1)
            if exact == 0:
                continue
            bound = _candidate_below(D0, D1, exact, variant is bottleneck_diagonal)
            message = f"costs at most the bound {fraction_string(bound)}$"
            with pytest.raises(InternalProofViolation, match=message):
                variant(D0, D1, bound=bound)
            checked += 1
    assert checked >= 30


def test_diagonal_matches_brute_force_on_unequal_counts():
    unequal = finite = 0
    for seed in range(60):
        rng = random.Random(1000 + seed)
        D0 = _random_diagram(rng, rng.randint(1, 4))
        D1 = _random_diagram(rng, rng.randint(1, 4))
        unequal += counts_by_dim(D0) != counts_by_dim(D1)
        dist, matching = bottleneck_diagonal(D0, D1)
        finite += dist != INF
        assert dist == brute_force_diagonal(D0.points, D1.points)
        assert fraction_matching_cost(D0, D1, matching) == dist
    assert unequal >= 30 and finite >= 30


def test_witness_achieves_distance_for_both_variants():
    cases = [_pair_of_diagrams(seed) for seed in range(10)]
    cases.append(_essential_count_mismatch())  # both distances INF
    for D0, D1 in cases:
        for variant in (bottleneck_bijection, bottleneck_diagonal):
            dist, matching = variant(D0, D1)
            assert fraction_matching_cost(D0, D1, matching) == dist


def test_perfect_matching_follows_long_augmenting_paths():
    # Left vertex u takes right vertex u - 1 first, so each new vertex
    # shifts every earlier one along: the last augmenting path has length
    # n, far deeper than the interpreter's recursion limit.
    n = 2000
    adjacency = [[0]] + [[u - 1, u] for u in range(1, n)]
    assert _perfect_matching(adjacency) == list(range(n))
    assert _perfect_matching([[0], [0]]) is None


def _random_rows(rng, n, edge_prob, costs):
    """n rows of (column, cost) edges in column order, each edge present
    with probability ``edge_prob`` at a cost drawn from ``costs``."""
    return [
        [(v, rng.choice(costs)) for v in range(n) if rng.random() < edge_prob]
        for _ in range(n)
    ]


ROW_SHAPES = {
    "dense": (1, range(10_000)),
    "sparse": (0.35, range(10_000)),
    "equal costs": (0.8, range(3)),
    "mostly infeasible": (0.15, [Fraction(k, 3) for k in range(-2, 4)]),
}


def test_carried_search_equals_the_from_scratch_twin_on_random_rows():
    """The core gives the from-scratch search's (cost, witness) on every
    row set, feasible or not, small or up to 40 rows."""
    rng = random.Random(1501)
    outcomes = Counter()
    for trial in range(480):
        shape = list(ROW_SHAPES)[trial % len(ROW_SHAPES)]
        n = rng.randint(1, 12) if trial % 8 else rng.randint(20, 40)
        rows = _random_rows(rng, n, *ROW_SHAPES[shape])
        got = min_max_matching(rows)
        assert got == scratch_min_max_matching(rows), (shape, rows)
        outcomes[shape, got[0] == INF] += 1
    assert outcomes["mostly infeasible", True] >= 100
    assert all(outcomes[shape, False] >= 50 for shape in list(ROW_SHAPES)[:3])


def test_both_variants_hand_the_core_rows_it_matches_like_its_twin():
    """Every search the two variants run gets the from-scratch search's
    cost: on its rows for the bijection's one side, and on the augmented
    rows that the two real-point sides of --diagonal stand in for."""
    calls = []
    real = bottleneck._min_max_cost

    def recording(sides):
        result = real(sides)
        calls.append((sides, result))
        return result

    rng = random.Random(1502)
    with mock.patch.object(bottleneck, "_min_max_cost", recording):
        for seed in range(40):
            D0, D1 = _pair_of_diagrams(seed, vertices=6)
            bottleneck_bijection(D0, D1)
            bottleneck_diagonal(D0, D1)
            dims = {0: rng.randint(2, 12), 1: rng.randint(1, 6)}
            T0 = _points_diagram(_tied_points(rng, dims, 0.2))
            T1 = _points_diagram(_tied_points(rng, dims, 0.2))
            bottleneck_diagonal(T0, T1)
    assert len(calls) >= 120
    for sides, got in calls:
        if len(sides) == 1:
            rows = sides[0][0]
        else:
            rows = bottleneck._augmented_rows(*sides)
        assert got == scratch_min_max_matching(rows)[0], sides


def _tied_points(rng, dims, essential_share):
    """Points with births from a tiny set, so many births tie."""
    out = []
    for dim, count in dims.items():
        for _ in range(count):
            birth = Fraction(rng.randint(0, 3), 2)
            if rng.random() < essential_share:
                out.append((dim, birth, INF))
            else:
                out.append((dim, birth, birth + Fraction(rng.randint(0, 4), 2)))
    return out


def test_a_bound_keeps_the_witness_of_points_out_of_birth_order():
    """Each row's edges within a bound reach the core in column order, so
    the witness stays the unbounded run's also where the points are not
    listed by birth and many births tie."""
    rng = random.Random(56)
    for _ in range(150):
        dims = {0: rng.randint(1, 8), 1: rng.randint(0, 5)}
        points0, points1 = (_tied_points(rng, dims, 0) for _ in range(2))
        rng.shuffle(points0)
        rng.shuffle(points1)
        D0, D1 = _points_diagram(points0), _points_diagram(points1)
        for variant in (bottleneck_bijection, bottleneck_diagonal):
            reference = variant(D0, D1)
            for bound in (reference[0], reference[0] + Fraction(1, 2)):
                assert variant(D0, D1, bound=bound) == reference, (points0, points1)


def test_essential_and_mixed_diagrams_with_tied_births_match_brute_force():
    rng = random.Random(55)
    finite = 0
    for trial in range(80):
        dims = {d: rng.randint(1, 5) for d in range(rng.randint(1, 2))}
        share = 1 if trial % 4 == 0 else rng.choice((0.3, 0.5, 0.8))
        D0 = _points_diagram(_tied_points(rng, dims, share))
        D1 = _points_diagram(_tied_points(rng, dims, share))
        for variant, oracle in (
            (bottleneck_bijection, brute_force_bottleneck(D0, D1)),
            (bottleneck_diagonal, brute_force_diagonal(D0.points, D1.points)),
        ):
            dist, matching = variant(D0, D1)
            assert dist == oracle
            assert fraction_matching_cost(D0, D1, matching) == dist
        finite += dist != INF
    assert finite >= 30


def test_coprime_denominators():
    third, seventh, eleventh, thirteenth = (Fraction(1, k) for k in (3, 7, 11, 13))
    D0 = _points_diagram(
        [
            (0, third, INF),
            (0, seventh, seventh + eleventh),  # A = (1/7, 18/77)
            (0, 0, thirteenth),  # B = (0, 1/13)
        ]
    )
    D1 = _points_diagram(
        [
            (0, third + thirteenth, INF),  # essential gap 1/13
            (0, eleventh, third),  # C = (1/11, 1/3)
            (0, seventh, third + seventh),  # E = (1/7, 10/21)
        ]
    )
    # A-E costs 8/33 and B-C 10/39; A-C costs 23/231 but forces B-E, 109/273
    dist, matching = bottleneck_bijection(D0, D1)
    assert dist == Fraction(10, 39) == brute_force_bottleneck(D0, D1)
    assert fraction_matching_cost(D0, D1, matching) == dist
    # E pays at least 1/6: half its lifetime 1/3, and more to A or B;
    # everything else can go to the diagonal for less
    dist, matching = bottleneck_diagonal(D0, D1)
    assert dist == Fraction(1, 6) == brute_force_diagonal(D0.points, D1.points)
    assert fraction_matching_cost(D0, D1, matching) == dist


def test_thousand_point_shift_pair_is_fast():
    # 1000 isolated vertices at distinct quarter-integers, shifted by 1/2:
    # every point is essential, so both variants only sort
    rng = random.Random(1000)
    K = validate_complex([(v,) for v in range(1000)])
    values = [Fraction(v, 4) for v in rng.sample(range(4000), 1000)]
    D0 = diagram(K, FiltrationFunction(K, values))
    D1 = diagram(K, FiltrationFunction(K, [v + Fraction(1, 2) for v in values]))
    for variant in (bottleneck_bijection, bottleneck_diagonal):
        start = time.perf_counter()
        dist, matching = variant(D0, D1)
        assert time.perf_counter() - start < 10
        assert dist == Fraction(1, 2)
        assert fraction_matching_cost(D0, D1, matching) == dist


def _twin_shapes(rng, shape):
    """Two lists of finite (dim, birth, death) points of one twin-test
    shape; the counts of a dimension differ between the lists at random."""
    counts = [{d: rng.randint(0, 6) for d in (0, 1)} for _ in range(2)]
    if shape == "tied":  # births and deaths from a tiny set
        return [_tied_points(rng, dims, 0) for dims in counts]
    if shape == "one side empty":
        counts[rng.randint(0, 1)][rng.randint(0, 1)] = 0
        return [_tied_points(rng, dims, 0) for dims in counts]
    if shape == "all heavy":  # long lives, short moves, equal counts
        first = [
            (d, Fraction(rng.randint(0, 8), 2), Fraction(rng.randint(40, 60), 2))
            for d, count in counts[0].items()
            for _ in range(count)
        ]
        return first, [
            (d, b + Fraction(rng.randint(-2, 2), 4), e + Fraction(rng.randint(-2, 2), 4))
            for d, b, e in first
        ]
    # all light: short lives far apart, so every point takes the diagonal
    return [
        [
            (d, Fraction(20 * k + 10 * side), Fraction(20 * k + 10 * side + rng.randint(0, 3), 2))
            for d, count in dims.items()
            for k in range(count)
        ]
        for side, dims in enumerate(counts)
    ]


def test_diagonal_variant_equals_the_augmented_twin():
    """The real-point search gives the (cost, witness) of the augmented
    search it stands in for, with and without a bound that holds, on tied
    births, unequal counts, an empty side, and where every point is heavy
    or every point light at the distance; a bound below the distance
    still raises.  Every distance alone, which builds no witness, is
    checked first."""
    rng = random.Random(3201)
    shapes = ("tied", "one side empty", "all heavy", "all light")
    cases = []
    for trial in range(240):
        points0, points1 = _twin_shapes(rng, shapes[trial % 4])
        D0, D1 = _points_diagram(points0), _points_diagram(points1)
        cases.append((shapes[trial % 4], D0, D1, fraction_matrix_matching(D0, D1, True)))
    for _, D0, D1, (exact, _) in cases:
        for bound in (None, exact, exact + Fraction(1, 2)):
            got = bottleneck_diagonal(D0, D1, bound, witness=False)
            assert got == (exact, None), (D0, D1)
    seen = Counter()
    for shape, D0, D1, twin in cases:
        exact, witness = twin
        for bound in (None, exact, exact + Fraction(1, 2)):
            assert bottleneck_diagonal(D0, D1, bound) == twin, (D0, D1)
        if exact > 0:
            below = _candidate_below(D0, D1, exact, diagonal=True)
            for build in (False, True):
                with pytest.raises(InternalProofViolation, match="costs at most the bound"):
                    bottleneck_diagonal(D0, D1, below, witness=build)
        diagonal_entries = sum(None in pair for pair in witness.pairs)
        seen[shape, "none to the diagonal"] += diagonal_entries == 0
        seen[shape, "all to the diagonal"] += diagonal_entries == len(witness.pairs)
        seen["unequal counts"] += counts_by_dim(D0) != counts_by_dim(D1)
        seen["an empty side"] += not (D0.dims and D1.dims) or set(D0.dims) != set(D1.dims)
    assert seen["all heavy", "none to the diagonal"] >= 50, seen
    assert seen["all light", "all to the diagonal"] >= 50, seen
    assert seen["unequal counts"] >= 120 and seen["an empty side"] >= 50, seen


def test_a_witness_run_that_finds_none_is_a_violation():
    """A search that chose too low a cost leaves the witness run without a
    matching: that is a violation naming the dimension and the chosen
    cost, exit 2 from the CLI, where the distance alone goes unchecked."""
    real = bottleneck._min_max_cost
    chosen = []

    def too_low(sides):
        chosen.append(real(sides) - 1)
        return chosen[-1]

    path = str(Path(__file__).with_name("perturbed_seed8.txt"))
    inst = parse_instance(path)
    D0, D1 = (diagram(inst.complex, f) for f in inst.functions)
    q = bottleneck._scaled_points(D0, D1)[0]
    with mock.patch.object(bottleneck, "_min_max_cost", too_low):
        for variant in (bottleneck_bijection, bottleneck_diagonal):
            with pytest.raises(InternalProofViolation) as caught:
                variant(D0, D1)
            assert str(caught.value) == (
                "dimension 0: no matching of the finite points costs the chosen "
                + fraction_string(Fraction(chosen[-1], q))
            )
        for extra in ((), ("--diagonal",)):
            argv = ["bottleneck", path, *extra]
            assert run_command(argv)[0] == 0
            status, text = run_command(argv + ["--matching"])
            assert status == 2
            assert text.startswith(
                "internal consistency failure: dimension 0: no matching of the finite"
            )
