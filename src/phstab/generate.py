"""Random complexes and filtrations for testing and batch verification.

Complexes come from a random graph: keep every vertex, flip a coin per
edge, then fill in every clique up to the configured dimension.  Values
start as random quarter-integer draws, get repaired upward to restore
monotonicity, and (by default) receive tiny per-simplex offsets that make
all values distinct without breaking monotonicity.  Offsets are dyadic, so
generated values always print exactly as short decimals.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from .complexes import FiltrationFunction, Simplex, SimplicialComplex
from .instances import InstanceFile


@dataclass(frozen=True)
class GeneratorConfig:
    seed: int
    num_vertices: int
    max_dimension: int = 3
    fill_prob: float = 0.5
    value_range: int = 4
    unique: bool = True


def generate_complex(rng: random.Random, cfg: GeneratorConfig) -> SimplicialComplex:
    """Clique complex of a random graph, truncated at cfg.max_dimension."""
    n = cfg.num_vertices
    edges = {
        (u, v)
        for u, v in itertools.combinations(range(n), 2)
        if rng.random() < cfg.fill_prob
    }
    simplices = [Simplex((v,)) for v in range(n)]
    simplices += [Simplex(e) for e in sorted(edges)]
    for size in range(3, cfg.max_dimension + 2):
        for combo in itertools.combinations(range(n), size):
            if all(pair in edges for pair in itertools.combinations(combo, 2)):
                simplices.append(Simplex(combo))
    simplices.sort(key=lambda s: (s.dim, s.vertices))
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
    so all of it runs on int numerators over 4 * 2^m, and each value
    becomes a Fraction once, at the end.
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
    return FiltrationFunction(K, tuple(Fraction(v, 4 * scale) for v in values))


def generate_instance(cfg: GeneratorConfig) -> InstanceFile:
    """A random complex with two random filtrations on it."""
    rng = random.Random(cfg.seed)
    K = generate_complex(rng, cfg)
    f0 = random_filtration(K, rng, cfg.value_range, cfg.unique)
    f1 = random_filtration(K, rng, cfg.value_range, cfg.unique)
    return InstanceFile(K, (f0, f1))
