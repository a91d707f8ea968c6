"""Exact bottleneck matchings between persistence diagrams.

Two variants are provided.  The bijection distance minimizes, over all
dimension-respecting bijections, the largest L-infinity displacement of any
matched point; it is the right notion when both diagrams come from the same
complex and therefore have equal point counts.  The diagonal-augmented
variant additionally lets any finite point pay (death - birth) / 2 to match
its diagonal projection.

Both variants split each dimension in two.  An essential point can only
match an essential point, so the essential points form a problem on a line:
equal counts are paired in sorted order, unequal counts cost +inf.  The
finite points go to one exact core.  It takes a square bipartite graph as
rows of (column, cost) edges and binary-searches its sorted distinct costs
for the smallest one whose edges, those costing at most it, admit a perfect
matching, found by iterative augmenting paths (Efrat, Itai and Katz 2001).
Each probe carries the last feasible matching, cut to its limit, and
augments only the rows that lost their edge; one from-scratch run in column
order at the chosen cost builds the witness.  The bijection variant passes
an edge for every pair of points.  The diagonal variant passes the
bijection problem on augmented diagrams (Kerber, Morozov and Nigmetov
2017), where each point gains a diagonal partner on the other side, with
only the edges that exist.  All costs are ints: the births and deaths of
both diagrams over one shared scale, so the matcher sorts and compares
ints, and the chosen cost becomes a Fraction once.  ``scaled_matching_cost``
re-checks a matching on the same ints with code of its own, as ``verify``
does for its composed map and the matcher's witness; the public
``pair_cost``, ``diagonal_cost`` and ``matching_cost`` compute the same
costs in Fractions, point by point.

A caller that already knows a cost the distance cannot exceed passes it
as ``bound``: ``verify`` passes the cost of its composed matching, and
``bottleneck`` on one file passes the sup-norm of its two functions.
Both variants then build only the edges that cost at most the bound, each
row from a window of births found by bisection.  The optimum and every
cost the search probes lie within the bound, so cost and witness are
those of the unbounded run; a distance above the bound is a bug and raises
InternalProofViolation.  Two files have no such bound and pass every edge.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, zip_longest
from math import floor, lcm
from operator import itemgetter

from .errors import (
    CountMismatch,
    DimensionMismatch,
    InternalProofViolation,
    InvalidMatching,
)
from .persistence import Diagram, DiagramPoint
from .rational import INF, fraction_string


@dataclass(frozen=True)
class Matching:
    """Point-index pairs between two diagrams.

    An entry (i, j) matches point i of the first diagram with point j of the
    second; (i, None) and (None, j) send a point to its diagonal projection
    (diagonal-augmented matchings only).
    """

    pairs: tuple

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple(tuple(p) for p in self.pairs))


def pair_cost(p: DiagramPoint, q: DiagramPoint):
    """L-infinity cost of matching two points of equal dimension.

    Two essential points compare by birth alone; an essential point can
    never match a finite one (cost +inf).
    """
    if p.dim != q.dim:
        raise DimensionMismatch(f"dim {p.dim} vs dim {q.dim}")
    if p.is_essential != q.is_essential:
        return INF
    birth_gap = abs(p.birth - q.birth)
    if p.is_essential:
        return birth_gap
    return max(birth_gap, abs(p.death - q.death))


def diagonal_cost(p: DiagramPoint):
    """Cost of sending a point to its diagonal projection; +inf if essential."""
    if p.is_essential:
        return INF
    return (p.death - p.birth) / 2


def _checked_entries(D0: Diagram, D1: Diagram, m: Matching):
    """The entries (i, j) of ``m``, each checked before it is yielded.

    Every point of each diagram must be used exactly once, and matched
    points must share a dimension; the first problem raises
    InvalidMatching, the cover check once the last entry is through.
    """
    dims0, dims1 = D0.dims, D1.dims
    used0: set[int] = set()
    used1: set[int] = set()
    for i, j in m.pairs:
        if i is not None:
            if not (0 <= i < len(dims0)) or i in used0:
                raise InvalidMatching(f"left index {i} reused or out of range")
            used0.add(i)
        if j is not None:
            if not (0 <= j < len(dims1)) or j in used1:
                raise InvalidMatching(f"right index {j} reused or out of range")
            used1.add(j)
        if i is None and j is None:
            raise InvalidMatching("empty matching entry")
        if i is not None and j is not None and dims0[i] != dims1[j]:
            raise InvalidMatching(
                f"pair ({i}, {j}) matches dim {dims0[i]} with dim {dims1[j]}"
            )
        yield i, j
    if len(used0) != len(dims0) or len(used1) != len(dims1):
        raise InvalidMatching("matching does not cover both diagrams")


def matching_cost(D0: Diagram, D1: Diagram, m: Matching):
    """Maximum pair cost over a matching; 0 for empty diagrams.

    Validates that every point of each diagram is used exactly once and that
    matched points share a dimension, raising InvalidMatching otherwise;
    diagonal entries cost (death - birth) / 2.
    """
    worst = 0
    for i, j in _checked_entries(D0, D1, m):
        if i is None:
            cost = diagonal_cost(D1.points[j])
        elif j is None:
            cost = diagonal_cost(D0.points[i])
        else:
            cost = pair_cost(D0.points[i], D1.points[j])
        worst = max(worst, cost)
    return worst


def scaled_matching_cost(D0: Diagram, D1: Diagram, m: Matching):
    """``matching_cost`` on the diagrams' ints: the same checks and
    messages and the same value, with one Fraction, the result.

    Each cost is taken on the scaled (birth, death) pairs of
    ``_scaled_points``, where an essential point's death slot holds its
    birth, so two essential points cost their birth gap and an essential
    point with a finite one, or with the diagonal, costs INF.
    """
    q, pts0, pts1 = _scaled_points(D0, D1)
    deaths0, deaths1 = D0.deaths, D1.deaths  # None marks an essential point
    worst = 0
    for i, j in _checked_entries(D0, D1, m):
        if i is None or j is None:
            essential = deaths1[j] is None if i is None else deaths0[i] is None
            b, d = pts1[j] if i is None else pts0[i]
            cost = INF if essential else (d - b) // 2
        elif (deaths0[i] is None) != (deaths1[j] is None):
            cost = INF
        else:
            (b0, d0), (b1, d1) = pts0[i], pts1[j]
            cost = max(abs(b0 - b1), abs(d0 - d1))
        if cost > worst:
            worst = cost
    return INF if worst == INF else Fraction(worst, q)


def _augment(adjacency, match: list, owner: list, roots) -> bool:
    """Grow a bipartite matching in place by augmenting from each root.

    ``adjacency[u]`` lists the right vertices of left vertex u; ``match``
    (left -> right) and ``owner`` (right -> left) hold the starting
    matching, None where a vertex is free.  Each root in turn looks
    depth-first, in adjacency order, for an augmenting path to a free right
    vertex (Kuhn's algorithm).  The search keeps its own stack, so a path
    may be as long as the graph.  Returns False at the first root that
    finds none: whenever a perfect matching exists, every free left vertex
    has an augmenting path under every matching (its component in the
    symmetric difference is one), so that failure settles the answer.
    """
    seen = [-1] * len(owner)  # right vertex -> last root whose search reached it
    for root in roots:
        stack = [(root, iter(adjacency[root]))]
        path = []  # path[k]: right vertex through which stack[k + 1] was entered
        while stack:
            u, edges = stack[-1]
            for v in edges:
                if seen[v] != root:
                    break
            else:
                stack.pop()
                if path:
                    path.pop()
                continue
            seen[v] = root
            path.append(v)
            w = owner[v]
            if w is None:
                for (x, _), y in zip(stack, path):
                    match[x], owner[y] = y, x
                break
            stack.append((w, iter(adjacency[w])))
        else:
            return False
    return True


def _perfect_matching(adjacency: list[list[int]]) -> "list[int] | None":
    """Perfect matching of a square bipartite graph, or None if none exists:
    ``_augment`` from the empty matching, every left vertex a root in
    turn.  Returns match[u] = v."""
    n = len(adjacency)
    match = [None] * n
    return match if _augment(adjacency, match, [None] * n, range(n)) else None


def _min_max_matching(rows: list[list]):
    """Exact min over perfect matchings of the max edge cost, with witness.

    ``rows`` is a non-empty square bipartite graph: ``rows[u]`` lists the
    edges of left vertex u as (column, cost) pairs in column order, costs
    rationals; a missing edge cannot be used.  The smallest of the sorted
    distinct costs whose edges, those costing at most it, admit a perfect
    matching is found by binary search.  It starts between the largest of
    the row minima, which every perfect matching pays, and the cost of the
    first matching found.

    Each row's edges are sorted by cost once, so the usable edges at a
    probe's cost limit are a prefix, found with ``bisect``.  A probe does
    not match from scratch: it carries the last feasible matching, cut to
    its limit, and augments from the rows that lost their edge (Kerber,
    Morozov and Nigmetov 2017 reuse work between thresholds the same way).
    The witness is one from-scratch ``_perfect_matching`` at the chosen
    cost with each row's edges in column order, so it does not depend on
    the path the search took.  Returns (cost, pairs) with pairs (row,
    column) sorted by row; cost is INF when no perfect matching exists,
    and the witness is then the identity.

    The rows may leave out every edge above a bound the optimum cannot
    exceed: the binary search then probes fewer costs, but the witness run
    at the chosen cost sees the same rows in column order, so the result
    is unchanged.
    """
    n = len(rows)
    costs, columns = [], []  # per row, its edges sorted by cost
    for row in rows:
        edges = sorted(row, key=itemgetter(1))
        costs.append(list(map(itemgetter(1), edges)))
        columns.append(list(map(itemgetter(0), edges)))
    match, owner = [None] * n, [None] * n
    if not _augment(columns, match, owner, range(n)):
        return INF, [(i, i) for i in range(n)]

    def edge_cost(u, v):
        row = rows[u]
        return row[bisect_left(row, v, key=itemgetter(0))][1]

    held = list(map(edge_cost, range(n), match))  # cost of each row's edge
    candidates = sorted(set(chain.from_iterable(costs)))
    lo = bisect_left(candidates, max(row[0] for row in costs))
    hi = bisect_left(candidates, max(held))
    while lo < hi:
        mid = (lo + hi) // 2
        limit = candidates[mid]
        cut = [u for u in range(n) if held[u] > limit]
        trial, trial_owner = match[:], owner[:]
        for u in cut:
            trial_owner[trial[u]] = None
            trial[u] = None
        usable = [col[:bisect_right(c, limit)] for c, col in zip(costs, columns)]
        if _augment(usable, trial, trial_owner, cut):
            for u in range(n):
                if trial[u] != match[u]:
                    held[u] = edge_cost(u, trial[u])
            match, owner = trial, trial_owner
            hi = bisect_left(candidates, max(held))
        else:
            lo = mid + 1
    limit = candidates[lo]
    witness = _perfect_matching([[v for v, c in row if c <= limit] for row in rows])
    return limit, list(enumerate(witness))


def _split_by_dim(D0: Diagram, D1: Diagram, require_equal: bool):
    dims = sorted(set(D0.dims) | set(D1.dims))
    groups = []
    for d in dims:
        idx0 = list(D0.points_in_dim(d))
        idx1 = list(D1.points_in_dim(d))
        if require_equal and len(idx0) != len(idx1):
            raise CountMismatch(
                f"dimension {d}: {len(idx0)} points vs {len(idx1)} points"
            )
        groups.append((d, idx0, idx1))
    return groups


def _scaled_points(D0: Diagram, D1: Diagram):
    """Every point of both diagrams as an int (birth, death) pair.

    Returns (q, pts0, pts1) with pts[i] = (birth * q, death * q), where q
    is twice a scale both diagrams are over: their own when they share it,
    as the two diagrams of one file do, else the lcm of the two.  Scaling
    by q > 0 keeps every sign and ratio of differences, and the factor 2
    makes every numerator even, so a diagonal cost (death - birth) / 2 is
    an int too.  An essential point's death slot holds its birth.  With a
    shared scale the lists are the diagrams' own ``doubled`` pairs, built
    once per diagram and shared by every matching of it.
    """
    s0, s1 = D0.scale, D1.scale
    if s0 == s1:
        return 2 * s0, D0.doubled, D1.doubled
    scale = lcm(s0, s1)
    m0, m1 = scale // s0, scale // s1
    return (
        2 * scale,
        [(b * m0, d * m0) for b, d in D0.doubled],
        [(b * m1, d * m1) for b, d in D1.doubled],
    )


def _min_max_by_dim(D0: Diagram, D1: Diagram, require_equal: bool, match_finite, bound):
    """Exact (cost, witness) of either variant, one dimension at a time.

    An essential point can only match an essential point: every other
    partner, the diagonal included, costs INF.  So each dimension splits
    into two problems.  If the essential counts differ, the dimension
    costs INF and its witness pairs the points by position, the surplus
    to the diagonal.  Otherwise the essentials of each side are sorted by
    (birth, index) and paired in order, which on a line minimises the
    largest gap (exchange argument), and ``match_finite(pts0, pts1,
    limit)`` matches the finite points' scaled (birth, death) pairs,
    returning (int cost, local index pairs) with None for the diagonal.
    Only the diagrams' ints are read: a point is essential when it has no
    death, and every point is its ``_scaled_points`` pair.
    ``limit`` is ``bound`` on the same scale, or None for no bound; the
    core then gets only the edges that cost at most it, so a dimension
    that costs more is an InternalProofViolation naming the bound.  The
    cost goes back to a Fraction once, at the end.
    """
    q, pts0, pts1 = _scaled_points(D0, D1)
    limit = None if bound is None else floor(bound * q)
    worst = 0
    pairs = []
    for d, idx0, idx1 in _split_by_dim(D0, D1, require_equal):
        ess0 = [i for i in idx0 if D0.deaths[i] is None]
        ess1 = [j for j in idx1 if D1.deaths[j] is None]
        if len(ess0) != len(ess1):
            cost = INF
            pairs.extend(zip_longest(idx0, idx1))
        else:
            ess0.sort(key=lambda i: (pts0[i][0], i))
            ess1.sort(key=lambda j: (pts1[j][0], j))
            pairs.extend(zip(ess0, ess1))
            cost = max(
                (abs(pts0[i][0] - pts1[j][0]) for i, j in zip(ess0, ess1)),
                default=0,
            )
            fin0 = [i for i in idx0 if D0.deaths[i] is not None]
            fin1 = [j for j in idx1 if D1.deaths[j] is not None]
            if fin0 or fin1:
                finite_cost, local = match_finite(
                    [pts0[i] for i in fin0], [pts1[j] for j in fin1], limit
                )
                cost = max(cost, finite_cost)
                pairs.extend(
                    (None if a is None else fin0[a], None if b is None else fin1[b])
                    for a, b in local
                )
        if limit is not None and cost > limit:
            raise InternalProofViolation(
                f"no matching of the dimension-{d} points costs at most "
                f"the bound {fraction_string(bound)}"
            )
        worst = max(worst, cost)
    pairs.sort(key=lambda p: (p[0] is None, p[1] if p[0] is None else p[0]))
    return (INF if worst == INF else Fraction(worst, q)), Matching(tuple(pairs))


def _pair_rows(pts0, pts1, bound):
    """Row i: (j, cost of matching point i of pts0 with point j of pts1), in
    column order.

    With an int ``bound``, only the edges that cost at most it: pts1 is
    sorted by birth once, each row bisects the window of births within the
    bound and keeps the points whose death is within it too.
    """
    if bound is None:
        return [
            [(j, max(abs(b0 - b1), abs(d0 - d1))) for j, (b1, d1) in enumerate(pts1)]
            for b0, d0 in pts0
        ]
    by_birth = sorted(range(len(pts1)), key=lambda j: pts1[j][0])
    births = [pts1[j][0] for j in by_birth]
    rows = []
    for b0, d0 in pts0:
        row = []
        lo = bisect_left(births, b0 - bound)
        for j in sorted(by_birth[lo : bisect_right(births, b0 + bound, lo)]):
            b1, d1 = pts1[j]
            if abs(d0 - d1) <= bound:
                row.append((j, max(abs(b0 - b1), abs(d0 - d1))))
        rows.append(row)
    return rows


def _pair_cost_matching(pts0, pts1, bound):
    return _min_max_matching(_pair_rows(pts0, pts1, bound))


def _augmented_matching(pts0, pts1, bound):
    n0, n1 = len(pts0), len(pts1)
    rows = _pair_rows(pts0, pts1, bound)

    def to_diagonal(column, b, d):  # the edge to a point's own partner
        half = (d - b) // 2
        return [] if bound is not None and half > bound else [(column, half)]

    for i, (b, d) in enumerate(pts0):
        rows[i] += to_diagonal(n1 + i, b, d)
    partners = [(n1 + k, 0) for k in range(n0)]
    rows += [to_diagonal(j, b, d) + partners for j, (b, d) in enumerate(pts1)]
    cost, local = _min_max_matching(rows)
    return cost, [
        (a if a < n0 else None, b if b < n1 else None)
        for a, b in local
        if a < n0 or b < n1
    ]


def bottleneck_bijection(D0: Diagram, D1: Diagram, bound=None):
    """Exact bottleneck distance over dimension-respecting bijections.

    Requires equal per-dimension point counts (always true for diagrams of
    the same complex); returns (cost, witness matching) with the witness
    achieving the cost exactly, sorted by left index.  The finite points
    of each dimension go to the core with an edge for every pair, or, given
    a ``bound`` the distance cannot exceed (a rational), only for the pairs
    that cost at most it; the result is the same, and a distance above the
    bound raises InternalProofViolation.
    """
    return _min_max_by_dim(D0, D1, True, _pair_cost_matching, bound)


def bottleneck_diagonal(D0: Diagram, D1: Diagram, bound=None):
    """Exact bottleneck distance when points may match the diagonal.

    The finite points of each dimension go to the core as the bijection
    problem on augmented diagrams: rows are the n0 points of D0 followed
    by one diagonal partner per point of D1, columns the n1 points of D1
    followed by one partner per point of D0.  Real points pay the pair
    cost, a point reaches its own partner at half its lifetime, partners
    match each other for free, and there are no other edges.  Point counts
    may differ; the diagonal absorbs any finite surplus.  Returns (cost,
    witness matching) like ``bottleneck_bijection``, with (i, None) and
    (None, j) for points sent to the diagonal; entries are sorted by left
    index, those with none last, by right index.  A ``bound`` drops the
    edges above it, as in ``bottleneck_bijection``.
    """
    return _min_max_by_dim(D0, D1, False, _augmented_matching, bound)
