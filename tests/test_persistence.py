import random
from fractions import Fraction

from phstab.complexes import FiltrationFunction, validate_complex
from phstab.generate import GeneratorConfig, generate_complex, random_filtration
from phstab.ordering import total_order
from phstab.persistence import PivotPair, diagram, format_diagram, pivot_pairs
from phstab.rational import INF

from oracles import (
    diagram_rank_count,
    diagram_with_order,
    dims,
    inverse,
    persistent_betti,
    random_compatible_order,
    value_grid,
    value_multiset,
)

EDGE = [(0,), (1,), (0, 1)]
TRIANGLE_BOUNDARY = [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]
TRIANGLE = TRIANGLE_BOUNDARY + [(0, 1, 2)]


def _diag(raw, values):
    K = validate_complex(raw)
    f = FiltrationFunction(K, values)
    return K, f, diagram(K, f)


def test_edge_diagram():
    _, _, D = _diag(EDGE, (0, 1, 2))
    pts = sorted((p.dim, p.birth, p.death) for p in D.points)
    assert pts == [(0, Fraction(0), INF), (0, Fraction(1), Fraction(2))]


def test_edge_diagram_records_pivot_simplices():
    K, _, D = _diag(EDGE, (0, 1, 2))
    finite = [p for p in D.points if not p.is_essential][0]
    assert K.simplices[finite.pair.birth].vertices == (1,)
    assert K.simplices[finite.pair.death].vertices == (0, 1)
    essential = [p for p in D.points if p.is_essential][0]
    assert K.simplices[essential.pair.birth].vertices == (0,)
    assert essential.pair.death is None


def test_diagonal_points_are_kept():
    _, _, D = _diag(EDGE, (0, 1, 1))
    pts = sorted((p.dim, p.birth, p.death) for p in D.points)
    assert pts == [(0, Fraction(0), INF), (0, Fraction(1), Fraction(1))]


def test_triangle_boundary_pairs():
    K, _, D = _diag(TRIANGLE_BOUNDARY, (0, 0, 0, 1, 1, 1))
    by_dim = {d: [] for d in dims(D)}
    for p in D.points:
        by_dim[p.dim].append((p.birth, p.death))
    assert sorted(by_dim[0]) == [(0, 1), (0, 1), (0, INF)]
    assert by_dim[1] == [(1, INF)]
    # pivot pairing: edge 01 kills vertex 1, edge 02 kills vertex 2,
    # edge 12 closes the loop and stays essential
    pairs = {
        (K.simplices[p.pair.birth].vertices, p.pair.death and K.simplices[p.pair.death].vertices)
        for p in D.points
    }
    assert pairs == {
        ((0,), None),
        ((1,), (0, 1)),
        ((2,), (0, 2)),
        ((1, 2), None),
    }


def test_filled_triangle_kills_the_loop():
    _, _, D = _diag(TRIANGLE, (0, 0, 0, 1, 1, 1, 2))
    one = [(p.birth, p.death) for p in D.points if p.dim == 1]
    assert one == [(Fraction(1), Fraction(2))]


def test_pivot_pairs_of_an_edge():
    # the edge's boundary column {0, 1} has pivot row 1, so vertex 1 dies
    # at the edge and vertex 0 is the essential class
    K = validate_complex(EDGE)
    f = FiltrationFunction(K, (0, 1, 2))
    assert pivot_pairs(K, total_order(K, f)) == (PivotPair(0, None), PivotPair(1, 2))


def test_reduce_is_deterministic():
    rng = random.Random(2)
    K = generate_complex(rng, GeneratorConfig(seed=2, num_vertices=5))
    f = random_filtration(K, rng)
    order = total_order(K, f)
    assert pivot_pairs(K, order) == pivot_pairs(K, order)


def test_pair_count_matches_complex_size():
    """Every simplex is exactly one of: birth, death, essential birth."""
    rng = random.Random(3)
    for seed in range(15):
        K = generate_complex(rng, GeneratorConfig(seed=seed, num_vertices=5))
        f = random_filtration(K, rng)
        pairs = pivot_pairs(K, total_order(K, f))
        used = set()
        for pv in pairs:
            used.add(pv.birth)
            if pv.death is not None:
                used.add(pv.death)
        assert used == set(range(len(K)))


def test_points_listed_by_birth_position_align_across_functions():
    """Two functions sharing an order give pointwise-aligned diagrams."""
    rng = random.Random(5)
    K = generate_complex(rng, GeneratorConfig(seed=5, num_vertices=5))
    f = random_filtration(K, rng)
    order = total_order(K, f)
    # a second function compatible with the same order: squash values
    g = FiltrationFunction(
        K, [Fraction(i) for i in inverse(order)]
    )
    Df = diagram_with_order(K, f, order)
    Dg = diagram_with_order(K, g, order)
    assert len(Df.points) == len(Dg.points)
    for p, q in zip(Df.points, Dg.points):
        assert p.pair == q.pair


def test_order_choice_does_not_change_value_multiset():
    rng = random.Random(6)
    for seed in range(10):
        K = generate_complex(rng, GeneratorConfig(seed=seed, num_vertices=5))
        f = random_filtration(K, rng, unique=False)
        reference = value_multiset(diagram(K, f))
        for _ in range(3):
            order = random_compatible_order(K, f, rng)
            assert value_multiset(diagram_with_order(K, f, order)) == reference


def test_diagram_counts_match_rank_oracle():
    """Dual route: pairing counts equal sublevel rank differences."""
    rng = random.Random(7)
    for seed in range(12):
        K = generate_complex(
            rng, GeneratorConfig(seed=seed, num_vertices=4, max_dimension=2)
        )
        f = random_filtration(K, rng)
        D = diagram(K, f)
        raw = [s.vertices for s in K.simplices]
        vals = list(f.values)
        grid = value_grid(vals)
        for i, a in enumerate(grid):
            for b in grid[i:]:
                for k in range(K.dim + 1):
                    assert diagram_rank_count(D.points, k, a, b) == persistent_betti(
                        raw, vals, k, a, b
                    )


def test_format_diagram_layout():
    K, _, D = _diag(EDGE, (0, 1, 2))
    assert format_diagram(K, D) == "0 0 inf 0 -\n0 1 2 1 0,1"
    assert format_diagram(K, D, dim=1) == ""


def test_format_diagram_sorts_by_dim_then_birth():
    K, _, D = _diag(TRIANGLE, (0, 0, 0, 1, 1, 1, 2))
    lines = format_diagram(K, D).splitlines()
    keys = [tuple(line.split()[:2]) for line in lines]
    assert keys == sorted(keys, key=lambda t: (int(t[0]), Fraction(t[1])))
    assert lines[-1].startswith("1 1 2 ")
