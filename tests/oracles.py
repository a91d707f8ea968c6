"""Independent oracles used only by the test suite.

The persistent-Betti oracle here deliberately avoids the library's reduction
code: it rebuilds sublevel boundary matrices from raw vertex tuples and
computes GF(2) ranks by Gaussian elimination on integer bitmasks.  Diagram
point counts are then checked against rank differences, which gives a
second, structurally different route to the same numbers.

The Fraction-matrix bottleneck twin runs the library's matcher core on the
plain per-dimension cost matrices, essential points included, with no
integer scaling and no separate sorted matching of essential points.
"""

import math
from fractions import Fraction
from itertools import combinations

from phstab.bottleneck import (
    _min_max_matching,
    _split_by_dim,
    diagonal_cost,
    pair_cost,
)


def gf2_rank(rows):
    """Rank over GF(2) of a matrix given as integer bitmask rows."""
    rank = 0
    basis = []
    for row in rows:
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis.append(row)
            rank += 1
    return rank


def persistent_betti(simplices, values, k, alpha, beta):
    """Rank of the map H_k(sublevel(alpha)) -> H_k(sublevel(beta)).

    ``simplices`` is a list of sorted vertex tuples, ``values`` the matching
    list of Fractions; alpha <= beta.  Computed as

        dim Z_k(K_alpha) - dim (Z_k(K_alpha) /\\ B_k(K_beta))

    where the second term is the rank drop of the (k+1)-boundary matrix of
    K_beta when the rows living in K_alpha are deleted.
    """
    assert alpha <= beta
    in_alpha = [v <= alpha for v in values]
    in_beta = [v <= beta for v in values]

    def boundary_rank(level, dim, drop_rows_in_alpha=False):
        cols = [
            i for i, s in enumerate(simplices) if len(s) == dim + 1 and level[i]
        ]
        row_ids = [
            i
            for i, s in enumerate(simplices)
            if len(s) == dim
            and level[i]
            and not (drop_rows_in_alpha and in_alpha[i])
        ]
        row_pos = {i: p for p, i in enumerate(row_ids)}
        index_of = {s: i for i, s in enumerate(simplices)}
        masks = []
        for j in cols:
            mask = 0
            if len(simplices[j]) > 1:
                for face in combinations(simplices[j], len(simplices[j]) - 1):
                    fi = index_of[face]
                    if fi in row_pos:
                        mask |= 1 << row_pos[fi]
            masks.append(mask)
        return gf2_rank(masks)

    n_k_alpha = sum(
        1 for i, s in enumerate(simplices) if len(s) == k + 1 and in_alpha[i]
    )
    cycles = n_k_alpha - boundary_rank(in_alpha, k)
    boundaries_total = boundary_rank(in_beta, k + 1)
    boundaries_outside = boundary_rank(in_beta, k + 1, drop_rows_in_alpha=True)
    boundaries_in_alpha = boundaries_total - boundaries_outside
    return cycles - boundaries_in_alpha


def diagram_rank_count(points, k, alpha, beta):
    """How many dim-k diagram points have birth <= alpha and death > beta."""
    return sum(
        1 for p in points if p.dim == k and p.birth <= alpha and p.death > beta
    )


def value_grid(values):
    """Candidate thresholds: every value, midpoints between neighbours, and
    one point beyond each end."""
    vs = sorted(set(values))
    if not vs:
        return [Fraction(0)]
    grid = [vs[0] - 1]
    for a, b in zip(vs, vs[1:]):
        grid.append(a)
        grid.append((a + b) / 2)
    grid.append(vs[-1])
    grid.append(vs[-1] + 1)
    return grid


def brute_force_diagonal(points0, points1):
    """Diagonal-augmented bottleneck distance by enumerating bijections.

    Points need ``dim``, ``birth`` and ``death`` (``math.inf`` when
    essential).  Per dimension, each side is augmented with the diagonal
    projection ((b + d) / 2, (b + d) / 2) of every finite point of the
    other side; costs are L-infinity distances, two diagonal points match
    for free, and an essential point only matches an essential point, at
    their birth gap.  A branch stops once it cannot beat the best bijection
    found so far.
    """

    def cost(p, q):
        (b0, d0, on_diag0), (b1, d1, on_diag1) = p, q
        if on_diag0 and on_diag1:
            return 0
        if (d0 == math.inf) != (d1 == math.inf):
            return math.inf
        if d0 == math.inf:
            return abs(b0 - b1)
        return max(abs(b0 - b1), abs(d0 - d1))

    def augmented(own, other):
        real = [(p.birth, p.death, False) for p in own]
        mids = [(p.birth + p.death) / 2 for p in other if p.death != math.inf]
        return real + [(m, m, True) for m in mids]

    def min_max(left, right):
        if len(left) != len(right):
            return math.inf  # essential counts differ
        best = math.inf
        used = [False] * len(right)

        def extend(i, worst):
            nonlocal best
            if worst >= best:
                return
            if i == len(left):
                best = worst
                return
            for j, taken in enumerate(used):
                if not taken:
                    used[j] = True
                    extend(i + 1, max(worst, cost(left[i], right[j])))
                    used[j] = False

        extend(0, 0)
        return best

    worst = 0
    for d in {p.dim for p in points0} | {p.dim for p in points1}:
        own0 = [p for p in points0 if p.dim == d]
        own1 = [p for p in points1 if p.dim == d]
        worst = max(worst, min_max(augmented(own0, own1), augmented(own1, own0)))
    return worst


def fraction_matrix_bottleneck(D0, D1, diagonal=False):
    """Either exact bottleneck distance from whole Fraction cost matrices.

    Per dimension the core gets every point at once: the ``pair_cost``
    matrix for the bijection variant, or for the diagonal variant the
    augmented matrix, where a point reaches its own diagonal partner at
    ``diagonal_cost``, partners match each other for free and every other
    entry is infinite.
    """
    worst = 0
    for _, idx0, idx1 in _split_by_dim(D0, D1, require_equal=not diagonal):
        pts0 = [D0.points[i] for i in idx0]
        pts1 = [D1.points[j] for j in idx1]
        n0, n1 = len(pts0), len(pts1)
        if diagonal:
            costs = [
                [pair_cost(p, q) for q in pts1]
                + [diagonal_cost(p) if k == i else math.inf for k in range(n0)]
                for i, p in enumerate(pts0)
            ] + [
                [diagonal_cost(q) if k == j else math.inf for k in range(n1)]
                + [0] * n0
                for j, q in enumerate(pts1)
            ]
        else:
            costs = [[pair_cost(p, q) for q in pts1] for p in pts0]
        cost, _ = _min_max_matching(costs)
        worst = max(worst, cost)
    return worst
