"""Exact bottleneck matchings between persistence diagrams.

Two variants are provided.  The bijection distance minimizes, over all
dimension-respecting bijections, the largest L-infinity displacement of any
matched point; it is the right notion when both diagrams come from the same
complex and therefore have equal point counts.  The diagonal-augmented
variant additionally lets any finite point pay (death - birth) / 2 to match
its diagonal projection.

Both variants split each dimension in two.  An essential point can only
match an essential point, so the essential points form a problem on a
line: equal counts are paired in sorted order, unequal counts cost +inf.
The finite points go to one exact search.  It binary-searches the sorted
distinct costs for the smallest limit at which the edges costing at most
it match every heavy row: every row for the bijection, whose one side is
a square bipartite graph of point pairs, and for the diagonal variant the
points whose half lifetime exceeds the limit, on each side separately
(Mendelsohn and Dulmage 1958).  So its probes run on real points only,
never on the augmented diagrams of Kerber, Morozov and Nigmetov (2017),
where each point gains a diagonal partner on the other side.  Each probe
augments by iterative augmenting paths (Efrat, Itai and Katz 2001) and
carries the last feasible matching, cut to its limit, from the rows that
lost their edge and the newly heavy ones.  All costs are ints: the
births and deaths of both diagrams over one shared scale, so the search
sorts and compares ints, and the chosen cost becomes a Fraction once.

The witness is built only for a caller that reads it: ``verify``, which
re-checks it, and ``bottleneck --matching``, which prints it.  It is one
from-scratch run in column order at the chosen cost, on the pair rows or
on the augmented rows, so it does not depend on the search's path; a run
that finds none is an InternalProofViolation.  ``matching_cost`` costs
any matching on the same ints with code of its own, as ``verify`` does
to re-check its composed map and the witness; the tests hold it to a
twin in Fractions, point by point.

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

from .errors import CountMismatch, InternalProofViolation, InvalidMatching
from .persistence import Diagram
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


def matching_cost(D0: Diagram, D1: Diagram, m: Matching):
    """Maximum pair cost over a matching; 0 for empty diagrams.

    Validates that every point of each diagram is used exactly once and
    that matched points share a dimension: the first problem raises
    InvalidMatching, the cover check once the last entry is through.  A
    matched pair costs the larger of its birth and death gaps, and a point
    sent to the diagonal half its lifetime.  Costs are taken on the scaled
    (birth, death) pairs of ``_scaled_points``, where an essential point's
    death slot holds its birth, so two essential points cost their birth
    gap and an essential point with a finite one, or with the diagonal,
    costs INF; the result is one Fraction.
    """
    q, pts0, pts1 = _scaled_points(D0, D1)
    dims0, dims1 = D0.dims, D1.dims
    deaths0, deaths1 = D0.deaths, D1.deaths  # None marks an essential point
    used0: set[int] = set()
    used1: set[int] = set()
    worst = 0
    for i, j in m.pairs:
        if i is not None:
            if not (0 <= i < len(dims0)) or i in used0:
                raise InvalidMatching(f"left index {i} reused or out of range")
            used0.add(i)
        if j is not None:
            if not (0 <= j < len(dims1)) or j in used1:
                raise InvalidMatching(f"right index {j} reused or out of range")
            used1.add(j)
        if i is None or j is None:
            if i is None and j is None:
                raise InvalidMatching("empty matching entry")
            essential = deaths1[j] is None if i is None else deaths0[i] is None
            b, d = pts1[j] if i is None else pts0[i]
            cost = INF if essential else (d - b) // 2
        elif dims0[i] != dims1[j]:
            raise InvalidMatching(
                f"pair ({i}, {j}) matches dim {dims0[i]} with dim {dims1[j]}"
            )
        elif (deaths0[i] is None) != (deaths1[j] is None):
            cost = INF
        else:
            (b0, d0), (b1, d1) = pts0[i], pts1[j]
            cost = max(abs(b0 - b1), abs(d0 - d1))
        if cost > worst:
            worst = cost
    if len(used0) != len(dims0) or len(used1) != len(dims1):
        raise InvalidMatching("matching does not cover both diagrams")
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


def _edge_cost(row, v):
    """The cost of column v's edge in ``row``, whose edges are in column order."""
    return row[bisect_left(row, v, key=itemgetter(0))][1]


def _min_max_cost(sides):
    """Smallest cost at which every side can match all of its heavy rows.

    A side is (rows, halves, width): ``rows[u]`` lists the edges of row u
    as (column, cost) pairs in column order, with columns below ``width``,
    and ``halves[u]`` is the cost at which row u may stay unmatched
    instead, INF when it never may.  At a limit λ a row is heavy when its
    half exceeds λ, and a side is feasible when its edges costing at most
    λ match every heavy row.  The result is the smallest of the sorted
    distinct edge costs and finite halves at which every side is
    feasible, found by binary search, or INF when there is none.  A
    square side whose rows are all heavy asks for a perfect matching.

    The search starts between the largest over rows of the smaller of its
    cheapest edge and its half, which every solution pays, and the cost of
    the first solution found: each side matches its never-light rows with
    all of their edges, by cost.  Each row's edges are sorted by cost
    once, so the usable edges at a limit are a prefix, found with
    ``bisect``.  A probe does not match from scratch: each side carries
    the matching of the last feasible probe, and a row's need is the cost
    of its edge when it is matched, else its half.  The rows whose need
    exceeds the limit are cut from the matching and are the roots: they
    are the rows that lost their edge and the newly heavy ones (Kerber,
    Morozov and Nigmetov 2017 reuse work between thresholds the same way).
    A feasible probe's needs all lie within its limit, so the largest of
    them is the next upper end.

    Why a failed ``_augment`` settles a probe.  Every matched row is heavy
    at every later probe: it was matched as a root, heavy at a limit no
    lower than that of the last feasible probe, and every later probe lies
    below that limit.  So the carried matching M, cut to the limit, is a
    matching of the graph of heavy rows and their usable edges.  Suppose a
    matching M* of that graph covers every heavy row, and take a root u
    that M leaves free.  Its component in the symmetric difference of M
    and M* is a path that starts with u's edge in M*; every row on it is
    heavy, so covered by M*, and the path cannot end at a row.  It ends at
    a column that M leaves free, which makes it an augmenting path.
    ``_augment`` tries every path from each root, so a root that it cannot
    augment proves that no matching covers the heavy rows (Kuhn's argument
    for perfect matchings, where every row is heavy).
    """
    candidates, floors, fixed, carried = set(), [], [], []
    for rows, halves, width in sides:
        costs, columns = [], []  # per row, its edges sorted by cost
        for row in rows:
            edges = sorted(row, key=itemgetter(1))
            costs.append(list(map(itemgetter(1), edges)))
            columns.append(list(map(itemgetter(0), edges)))
        match, owner = [None] * len(rows), [None] * width
        never_light = [u for u, h in enumerate(halves) if h == INF]
        if not _augment(columns, match, owner, never_light):
            return INF
        candidates.update(chain.from_iterable(costs), (h for h in halves if h != INF))
        floors += (min(c[0], h) if c else h for c, h in zip(costs, halves))
        need = [  # the cost of a row's edge, or its half while it is free
            h if v is None else _edge_cost(row, v)
            for row, h, v in zip(rows, halves, match)
        ]
        fixed.append((rows, costs, columns, need))
        carried.append((match, owner))
    candidates = sorted(candidates)
    needs = [need for *_, need in fixed]
    lo = bisect_left(candidates, max(floors))
    hi = bisect_left(candidates, max(chain.from_iterable(needs)))
    while lo < hi:
        mid = (lo + hi) // 2
        limit = candidates[mid]
        trials = []
        for (_, costs, columns, need), (match, owner) in zip(fixed, carried):
            cut = [u for u, c in enumerate(need) if c > limit]
            trial, trial_owner = match[:], owner[:]
            for u in cut:
                if trial[u] is not None:
                    trial_owner[trial[u]] = None
                    trial[u] = None
            usable = [col[:bisect_right(c, limit)] for c, col in zip(costs, columns)]
            if not _augment(usable, trial, trial_owner, cut):
                lo = mid + 1
                break
            trials.append((trial, trial_owner))
        else:
            for (rows, *_, need), (match, _), (trial, _) in zip(fixed, carried, trials):
                for u, v in enumerate(trial):
                    if v != match[u]:
                        need[u] = _edge_cost(rows[u], v)
            carried = trials
            hi = bisect_left(candidates, max(chain.from_iterable(needs)))
    return candidates[lo]


def _split_by_dim(D0: Diagram, D1: Diagram, require_equal: bool):
    """(dim, indices in D0, indices in D1) per dimension, by dimension,
    from one pass over each diagram."""
    groups = {d: ([], []) for d in {*D0.dims, *D1.dims}}
    for side, dims in enumerate((D0.dims, D1.dims)):
        for i, d in enumerate(dims):
            groups[d][side].append(i)
    out = []
    for d in sorted(groups):
        idx0, idx1 = groups[d]
        if require_equal and len(idx0) != len(idx1):
            raise CountMismatch(
                f"dimension {d}: {len(idx0)} points vs {len(idx1)} points"
            )
        out.append((d, idx0, idx1))
    return out


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


def _min_max_by_dim(D0: Diagram, D1: Diagram, diagonal: bool, bound, witness: bool):
    """Exact (cost, witness) of either variant, one dimension at a time.

    An essential point can only match an essential point: every other
    partner, the diagonal included, costs INF.  So each dimension splits
    into two problems.  If the essential counts differ, the dimension
    costs INF and its witness pairs the points by position, the surplus
    to the diagonal.  Otherwise the essentials of each side are sorted by
    (birth, index) and paired in order, which on a line minimises the
    largest gap (exchange argument), and ``_min_max_cost`` takes the
    finite points' scaled (birth, death) pairs as the sides of
    ``_sides``.  Only the diagrams' ints are read: a point is essential
    when it has no death, and every point is its ``_scaled_points`` pair.
    ``limit`` is ``bound`` on the same scale, or None for no bound; the
    search then gets only the edges that cost at most it, so a dimension
    that costs more is an InternalProofViolation naming the bound.  The
    cost goes back to a Fraction once, at the end.

    The witness is built only when asked for, else it is None.  Its
    finite part is one from-scratch ``_perfect_matching`` at the chosen
    cost, each row's edges in column order, so it does not depend on the
    search's path: on the pair rows for the bijection, on the augmented
    rows for the diagonal variant.  When that run finds none, the search
    chose too low a cost, which is an InternalProofViolation.
    """
    q, pts0, pts1 = _scaled_points(D0, D1)
    deaths0, deaths1 = D0.deaths, D1.deaths
    limit = None if bound is None else floor(bound * q)
    worst = 0
    pairs = []
    for d, idx0, idx1 in _split_by_dim(D0, D1, not diagonal):
        ess0 = [i for i in idx0 if deaths0[i] is None]
        ess1 = [j for j in idx1 if deaths1[j] is None]
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
            fin0 = [i for i in idx0 if deaths0[i] is not None]
            fin1 = [j for j in idx1 if deaths1[j] is not None]
            if fin0 or fin1:
                finite0, finite1 = [pts0[i] for i in fin0], [pts1[j] for j in fin1]
                sides = _sides(finite0, finite1, limit, diagonal)
                finite = _min_max_cost(sides)
                cost = max(cost, finite)
                if witness and finite != INF:
                    rows = _augmented_rows(*sides) if diagonal else sides[0][0]
                    local = _perfect_matching(
                        [[v for v, c in row if c <= finite] for row in rows]
                    )
                    if local is None:
                        raise InternalProofViolation(
                            f"dimension {d}: no matching of the finite points costs "
                            f"the chosen {fraction_string(Fraction(finite, q))}"
                        )
                    n0, n1 = len(fin0), len(fin1)
                    pairs.extend(
                        (fin0[a] if a < n0 else None, fin1[b] if b < n1 else None)
                        for a, b in enumerate(local)
                        if a < n0 or b < n1
                    )
        if limit is not None and cost > limit:
            raise InternalProofViolation(
                f"no matching of the dimension-{d} points costs at most "
                f"the bound {fraction_string(bound)}"
            )
        worst = max(worst, cost)
    cost = INF if worst == INF else Fraction(worst, q)
    if not witness:
        return cost, None
    pairs.sort(key=lambda p: (p[0] is None, p[1] if p[0] is None else p[0]))
    return cost, Matching(tuple(pairs))


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


def _sides(pts0, pts1, bound, diagonal):
    """The sides ``_min_max_cost`` searches for the finite points of one
    dimension, given as scaled (birth, death) pairs.

    The bijection variant is one side, the pair rows of pts0, where every
    row is heavy.  The point counts are equal, so a matching that covers
    every row is perfect.

    The diagonal variant is the bijection problem on augmented diagrams
    (Kerber, Morozov and Nigmetov 2017): rows are the n0 points of pts0
    followed by one diagonal partner per point of pts1, columns the n1
    points of pts1 followed by one partner per point of pts0.  Real points
    pay the pair cost, a point reaches its own partner at half its
    lifetime, and partners match each other for free.  Its search needs
    only the real points.  At a limit λ a point is heavy when its half
    exceeds λ: its partner edge is then out of reach, and all its other
    edges go to real points.  An augmented perfect matching within λ
    exists exactly when the real edges within λ can match the heavy points
    of pts0 into pts1 and, separately, those of pts1 into pts0.

    Only if: the real pairs of such a matching cover every heavy point.
    If: let M0 and M1 be the two matchings.  Each component of their union
    is a cycle or a path whose edges alternate between M0 and M1.  On each
    component take M0's edges, unless the component ends at a point of
    pts1 that only M1 covers; then take M1's.  M0's edges miss only ends
    that only M1 covers, and a point of pts0 covered by M1 alone is light;
    M1's edges miss only ends that only M0 covers.  A path that needs both
    would run from a pts0 end on an M0 edge to a pts1 end on an M1 edge,
    but along such a path every step from pts0 to pts1 is an M0 edge.  So
    the chosen edges cover every heavy point (Mendelsohn and Dulmage
    1958).  Every point they leave out is light and takes its own partner
    within λ, and the partners of the matched points, as many on each
    side, match each other at 0.

    So the diagonal variant is two sides: the pair rows of pts0 and their
    transpose, each row with its point's half.  Under a ``bound`` a half
    above it is INF, since that partner edge is left out.
    """
    rows = _pair_rows(pts0, pts1, bound)
    if not diagonal:
        return [(rows, [INF] * len(rows), len(pts1))]
    columns = [[] for _ in pts1]  # the transpose, each row in column order
    for i, row in enumerate(rows):
        for j, c in row:
            columns[j].append((i, c))
    halves0 = [(d - b) // 2 for b, d in pts0]
    halves1 = [(d - b) // 2 for b, d in pts1]
    if bound is not None:  # a partner edge above the bound is left out
        halves0 = [INF if h > bound else h for h in halves0]
        halves1 = [INF if h > bound else h for h in halves1]
    return [(rows, halves0, len(pts1)), (columns, halves1, len(pts0))]


def _augmented_rows(side0, side1):
    """The augmented rows of ``_sides``' two diagonal sides, each row's
    edges in column order: a point's edge to its own partner exists where
    its half is finite."""
    (rows, halves0, n1), (_, halves1, n0) = side0, side1
    partners = [(n1 + k, 0) for k in range(n0)]
    return [
        row + ([] if h == INF else [(n1 + i, h)])
        for i, (row, h) in enumerate(zip(rows, halves0))
    ] + [([] if h == INF else [(j, h)]) + partners for j, h in enumerate(halves1)]


def bottleneck_bijection(D0: Diagram, D1: Diagram, bound=None, witness=True):
    """Exact bottleneck distance over dimension-respecting bijections.

    Requires equal per-dimension point counts (always true for diagrams of
    the same complex); returns (cost, witness matching) with the witness
    achieving the cost exactly, sorted by left index, or None in its place
    when ``witness`` is false.  The finite points of each dimension go to
    the search with an edge for every pair, or, given a ``bound`` the
    distance cannot exceed (a rational), only for the pairs that cost at
    most it; the result is the same, and a distance above the bound raises
    InternalProofViolation.
    """
    return _min_max_by_dim(D0, D1, False, bound, witness)


def bottleneck_diagonal(D0: Diagram, D1: Diagram, bound=None, witness=True):
    """Exact bottleneck distance when points may match the diagonal.

    The finite points of each dimension may each pay half their lifetime
    to match the diagonal; the search runs on their real pairs alone (see
    ``_sides``).  Point counts may differ; the diagonal absorbs any finite
    surplus.  Returns (cost, witness matching) like
    ``bottleneck_bijection``, with (i, None) and (None, j) for points sent
    to the diagonal; entries are sorted by left index, those with none
    last, by right index.  A ``bound`` drops the edges above it, as in
    ``bottleneck_bijection``.
    """
    return _min_max_by_dim(D0, D1, True, bound, witness)
