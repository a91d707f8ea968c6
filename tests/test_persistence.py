import random
from collections import Counter
from fractions import Fraction

from phstab.complexes import FiltrationFunction, validate_complex
from phstab.generate import (
    GeneratorConfig,
    generate_complex,
    generate_instance,
    random_filtration,
)
from phstab.ordering import total_order
from phstab.persistence import (
    PivotPair,
    Vineyard,
    diagram,
    format_diagram,
    pivot_pairs,
)
from phstab.rational import INF

from oracles import (
    diagram_rank_count,
    diagram_with_order,
    dims,
    inverse,
    is_essential,
    persistent_betti,
    random_compatible_order,
    set_pivot_pairs,
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
    finite = [p for p in D.points if not is_essential(p)][0]
    assert K.simplices[finite.pair.birth].vertices == (1,)
    assert K.simplices[finite.pair.death].vertices == (0, 1)
    essential = [p for p in D.points if is_essential(p)][0]
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


def test_bitset_reduction_equals_the_set_reduction_on_tied_instances():
    """Under ties the canonical order is one of several valid orders: the
    bitset reduction must give the set reduction's pairs under each."""
    rng = random.Random(8)
    for seed in range(40):
        cfg = GeneratorConfig(seed=seed, num_vertices=5 + seed % 3, unique=False)
        inst = generate_instance(cfg)
        K = inst.complex
        for f in inst.functions:
            orders = [total_order(K, f)]
            orders += [random_compatible_order(K, f, rng) for _ in range(3)]
            for order in orders:
                assert pivot_pairs(K, order) == set_pivot_pairs(K, order)


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


def _bits(x: int) -> list[int]:
    return [r for r in range(x.bit_length()) if x >> r & 1]


def _check_vineyard(K, vine) -> None:
    """The pairs are the from-scratch pairs of the current order, R = D * V
    with D built from vertex tuples, V is upper unitriangular in the current
    order, and each low is the pivot row of its column, owned by it alone."""
    order = tuple(vine.simplex[x] for x in vine.perm)
    assert vine.pairs() == set_pivot_pairs(K, order)
    label = inverse(vine.simplex)
    where = {s.vertices: c for c, s in enumerate(K.simplices)}
    boundary = []
    for c in vine.simplex:
        vs = K.simplices[c].vertices
        faces = [vs[:i] + vs[i + 1 :] for i in range(len(vs))] if len(vs) > 1 else []
        boundary.append(sum(1 << label[where[f]] for f in faces))
    pos = vine.pos
    assert [vine.perm[p] for p in pos] == list(range(len(pos)))
    for x, (r, v) in enumerate(zip(vine.R, vine.V)):
        total = 0
        for y in _bits(v):
            total ^= boundary[y]
            assert pos[y] <= pos[x]
        assert v >> x & 1 and total == r
        rows = _bits(r)
        low = max(rows, key=pos.__getitem__) if rows else None
        assert vine.low[x] == low
        if low is not None:
            assert vine.owner[low] == x
    owned = [r for r, x in enumerate(vine.owner) if x is not None]
    assert sorted(owned) == sorted(x for x in vine.low if x is not None)


def _branches(vine, i) -> list[str]:
    """The branches of the transposition table that swapping positions i
    and i + 1 takes, read off the state before it; "V" marks the column
    additions made because V[b] holds a."""
    a, b = vine.perm[i], vine.perm[i + 1]
    la, lb = vine.low[a], vine.low[b]
    v = "V" if vine.V[b] >> a & 1 else ""
    if la is None and lb is None:
        k, l = vine.owner[a], vine.owner[b]
        if l is None or not vine.R[l] >> a & 1:
            return ["1" + v]
        if k is None:
            return ["1" + v, "1-essential-switch"]
        return ["1" + v, "1-no-switch" if vine.pos[k] < vine.pos[l] else "1-switch"]
    if la is not None and lb is not None:
        if not v:
            return ["2"]
        return ["2V", "2V-switch" if vine.pos[la] > vine.pos[lb] else "2V-no-switch"]
    if lb is None:
        if not v:
            return ["3"]
        return ["3V-" + ("paired" if vine.owner[b] is not None else "essential")]
    return ["4" + v]


def test_vineyard_transpositions_keep_the_reduction():
    """Random adjacent transpositions, never of a face with its coface,
    from random compatible orders of generated complexes with and without
    ties: after every one the vineyard is a valid reduction whose pairs are
    the from-scratch pairs, and every branch of the table is taken."""
    rng = random.Random(19)
    taken: Counter = Counter()
    steps = 0
    for seed in range(24):
        cfg = GeneratorConfig(
            seed=seed, num_vertices=4 + seed % 4, fill_prob=0.6, unique=seed % 2 == 0
        )
        inst = generate_instance(cfg)
        K = inst.complex
        vine = Vineyard(K, random_compatible_order(K, inst.functions[0], rng))
        _check_vineyard(K, vine)
        vertex_sets = [set(s.vertices) for s in K.simplices]
        for _ in range(80):
            i = rng.randrange(len(K) - 1)
            a, b = (vine.simplex[x] for x in vine.perm[i : i + 2])
            if vertex_sets[a] < vertex_sets[b]:
                continue
            taken.update(_branches(vine, i))
            vine.transpose(i)
            steps += 1
            _check_vineyard(K, vine)
    assert steps > 1000
    branches = {
        "1", "1V", "1-essential-switch", "1-no-switch", "1-switch",
        "2", "2V", "2V-switch", "2V-no-switch",
        "3", "3V-paired", "3V-essential", "4", "4V",
    }
    assert set(taken) == branches, taken


def test_a_pivot_pair_is_its_birth_death_tuple():
    p = PivotPair(3, None)
    assert (p.birth, p.death) == (3, None)
    assert p == (3, None) and hash(p) == hash((3, None))
    assert repr(p) == "PivotPair(birth=3, death=None)"
    assert PivotPair(1, 4) != PivotPair(1, 5)
