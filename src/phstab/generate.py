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
    stay below 1/4, and equal base values get distinct offsets.
    """
    n = len(K)
    values = [Fraction(rng.randint(0, 4 * value_range), 4) for _ in range(n)]
    for j in sorted(range(n), key=lambda i: K.simplices[i].dim):
        for i in K.facet_positions[j]:
            if values[i] > values[j]:
                values[j] = values[i]
    if unique and n:
        m = 1
        while 2 ** m <= n:
            m += 1
        delta = Fraction(1, 4 * 2 ** m)
        by_rank = sorted(range(n), key=lambda i: (K.simplices[i].dim, K.simplices[i].vertices))
        for rank, i in enumerate(by_rank):
            values[i] += (rank + 1) * delta
    return FiltrationFunction(K, tuple(values))


def generate_instance(cfg: GeneratorConfig) -> InstanceFile:
    """A random complex with two random filtrations on it."""
    rng = random.Random(cfg.seed)
    K = generate_complex(rng, cfg)
    f0 = random_filtration(K, rng, cfg.value_range, cfg.unique)
    f1 = random_filtration(K, rng, cfg.value_range, cfg.unique)
    return InstanceFile(K, (f0, f1))
