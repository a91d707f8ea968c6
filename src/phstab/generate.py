"""Random complexes and filtrations for testing and batch verification.

Complexes come from a random graph: keep every vertex, flip a coin per
edge, then fill in every clique up to the configured dimension.  A clique
grows only by the common neighbours above its largest vertex, so the work
follows the cliques that exist, not every vertex set of their size, and
building stops as soon as the count passes ``MAX_SIMPLICES``.  Values
start as random quarter-integer draws, get repaired upward to restore
monotonicity, and (by default) receive tiny per-simplex offsets that make
all values distinct without breaking monotonicity.  Offsets are dyadic, so
generated values always print exactly as short decimals.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .complexes import FiltrationFunction, Simplex, SimplicialComplex
from .errors import ComplexTooLarge
from .instances import InstanceFile

# The largest complex the generator builds.  A dense graph has far more
# cliques than vertices (200 vertices, every edge, dimension 3: 66 million
# simplices), which would exhaust memory long before a result, so the
# generator stops once the count passes this.
MAX_SIMPLICES = 100_000


@dataclass(frozen=True)
class GeneratorConfig:
    seed: int
    num_vertices: int
    max_dimension: int = 3
    fill_prob: float = 0.5
    value_range: int = 4
    unique: bool = True


def generate_complex(rng: random.Random, cfg: GeneratorConfig) -> SimplicialComplex:
    """Clique complex of a random graph, truncated at cfg.max_dimension
    (its edges are kept even below dimension 1).

    Edges are drawn in lexicographic order, one ``rng.random()`` each.  The
    neighbours above each vertex are an int bitmask, so a clique's common
    neighbours above its largest vertex are one AND per added vertex, and
    extending each clique of one size by them, in increasing order, lists
    the cliques of the next size in lexicographic order.  Raises
    ComplexTooLarge once the count passes ``MAX_SIMPLICES``.
    """
    n = cfg.num_vertices

    def check(count):
        if count > MAX_SIMPLICES:
            raise ComplexTooLarge(
                f"the complex has more than {MAX_SIMPLICES} simplices, the "
                "generator's limit; use fewer vertices, a lower dimension or "
                "a lower edge probability"
            )

    check(n)
    up = []  # up[u]: bitmask of the neighbours v > u
    count = n
    for u in range(n):
        row = [v for v in range(u + 1, n) if rng.random() < cfg.fill_prob]
        count += len(row)
        check(count)
        up.append(sum(1 << v for v in row))
    simplices = [Simplex((v,)) for v in range(n)]
    level = [((v,), up[v]) for v in range(n)]  # cliques and their common up
    for _ in range(max(cfg.max_dimension, 1)):
        grown = []
        for clique, common in level:
            while common:
                v = (common & -common).bit_length() - 1
                common &= common - 1
                grown.append((clique + (v,), common & up[v]))
            check(len(simplices) + len(grown))
        simplices += [Simplex(clique) for clique, _ in grown]
        level = grown
    return SimplicialComplex(tuple(simplices))


def random_filtration(
    K: SimplicialComplex,
    rng: random.Random,
    value_range: int = 4,
    unique: bool = True,
) -> FiltrationFunction:
    """Random monotone filtration on K, unique-valued unless asked otherwise.

    Draws quarter-integers in [0, value_range], pushes each simplex up to
    the max of its faces (in dimension order, so the repair is monotone),
    then adds rank * delta with delta small enough that no two sums can
    collide: distinct base values differ by at least 1/4 while all offsets
    stay below 1/4, and equal base values get distinct offsets.  Ranks
    follow (dimension, vertices) and delta = 1 / (4 * 2^m) with 2^m > n,
    so all of it runs on int numerators over 4 * 2^m, and the function
    holds them over that scale as they are.
    """
    n = len(K)
    offsets = unique and n > 0
    scale = 1 << n.bit_length() if offsets else 1  # 2^m > n, m >= 1
    values = [rng.randint(0, 4 * value_range) * scale for _ in range(n)]
    faces = K.facet_positions
    for j in K.tie_order:  # faces come first: it sorts by dimension
        for i in faces[j]:
            if values[i] > values[j]:
                values[j] = values[i]
    if offsets:
        for rank, i in enumerate(K.tie_order, 1):
            values[i] += rank
    return FiltrationFunction.over_scale(K, tuple(values), 4 * scale)


def generate_instance(cfg: GeneratorConfig) -> InstanceFile:
    """A random complex with two random filtrations on it."""
    rng = random.Random(cfg.seed)
    K = generate_complex(rng, cfg)
    f0 = random_filtration(K, rng, cfg.value_range, cfg.unique)
    f1 = random_filtration(K, rng, cfg.value_range, cfg.unique)
    return InstanceFile(K, (f0, f1))
