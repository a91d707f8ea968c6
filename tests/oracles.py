"""Independent oracles and reference code used only by the test suite.

The persistent-Betti oracle here deliberately avoids the library's reduction
code: it rebuilds sublevel boundary matrices from raw vertex tuples and
computes GF(2) ranks by Gaussian elimination on integer bitmasks.  Diagram
point counts are then checked against rank differences, which gives a
second, structurally different route to the same numbers.

``fraction_matching_cost`` is the library's int matching cost taken in
Fractions, point by point, with ``pair_cost`` and ``diagonal_cost``.
The Fraction-matrix bottleneck twin runs ``min_max_matching``, the
library's search on a square graph whose rows must all be matched, on the
plain per-dimension cost matrices, essential points included, with no
integer scaling and no separate sorted matching of essential points; for
--diagonal those are the augmented matrices, the graph that the library's
real-point search stands in for.  ``scratch_min_max_matching`` is the
square search as it was before probes carried a matching: every probe
filters every row and matches from scratch.  ``fraction_key_order`` is
the canonical order sorted on (Fraction value, dimension, vertices) keys.  ``scan_crossing_times`` finds
the crossing schedule by testing every simplex pair, ``set_pivot_pairs``
reduces with set columns, ``fraction_random_filtration`` generates in
Fractions throughout, ``combination_generate_complex`` tests every vertex
set for a clique and ``fraction_interpolate`` builds f_t as a filtration
of Fractions: the twins of the library's inversion schedule, bitset
reduction, integer generator, clique extension and int evaluator.
``reference_parse`` is the instance reader as it was before its one lean
loop, with its own value reader, simplex checks and complex validation:
the twin of ``instances.parse_instance_text``.

``interval_matching`` certifies one interval from scratch (pairwise order
check, midpoint order, fresh reduction, both endpoint diagrams and the
measured cost of matching them by pivot identity), and
``interval_references`` does so for every interval of a schedule; every
interval that ``verify_stability`` carries across crossings, with the
order and pairs ``verify_recording`` records for it, must equal it.
``interval_references`` also re-identifies those diagrams at each
crossing (``breakpoint_matching``) and composes the whole chain of full
maps (``compose_matchings``) as it goes; the point map
``verify_stability`` carries must equal it.  ``bucket_reidentify``
re-identifies two pair lists at a crossing by value alone;
``reidentify_differences`` checks the full map the library's local rule
gives against it at every crossing of a recorded run.
``reidentify_calls`` records the crossings at which verify re-identifies,
and ``crossings_to_reidentify`` the ones where it must: where a pair
changes or two pairs with a tied simplex have equal points.
``doctored_schedule_differences`` hands ``verify_stability`` up to nine
doctored copies of a crossing schedule, four of them aimed at pairs of
two dimensions, and checks the violation each must raise.
``transpositions`` counts the transpositions of a verify, which must be
its schedule's pairs of one dimension (``same_dimension_pairs``), and
``crafted_runs`` builds instances with long runs through one point.  The
other helpers build what the library itself never needs: the full order
check (values and face closure), random compatible orders,
diagrams under a supplied order, a diagram's points of one dimension,
sublevel complexes, interval midpoints, a permutation-enumerating
bottleneck and perturbed instances, whose two functions differ by little.
"""

import functools
import math
import random
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from math import lcm
from unittest import mock

from phstab import stability

from phstab.bottleneck import (
    Matching,
    _min_max_cost,
    _perfect_matching,
    _split_by_dim,
)
from phstab.complexes import (
    FiltrationFunction,
    Simplex,
    SimplicialComplex,
    validate_filtration,
)
from phstab.errors import (
    DomainMismatch,
    InternalProofViolation,
    InvalidFiltration,
    InvalidMatching,
    ParseError,
    PhstabError,
)
from phstab.generate import GeneratorConfig, generate_complex, generate_instance
from phstab.instances import InstanceFile
from phstab.interpolation import CrossingSchedule, sup_norm
from phstab.ordering import total_order
from phstab.persistence import (
    Diagram,
    PivotPair,
    Vineyard,
    diagram_from_pivots,
    pivot_pairs,
)
from phstab.rational import (
    INF,
    ExponentTooLarge,
    format_value,
    fraction_string,
    to_fraction,
)
from phstab.stability import _simplex_pair


class IncompatibleOrder(PhstabError):
    """An order is not a valid total order for the given filtration."""


class OrderNotConstant(PhstabError):
    """The simplex order changes strictly inside the requested interval."""


class TooLarge(PhstabError):
    """Input exceeds the size limit of a brute-force oracle."""


class TOutOfRange(PhstabError):
    """Interpolation parameter outside [0, 1]."""


class DimensionMismatch(PhstabError):
    """Diagram points of different homology dimensions were compared."""


def is_essential(p) -> bool:
    """Whether a diagram point never dies."""
    # a finite death is a Fraction: test the type, not Fraction == float
    return isinstance(p.death, float) and p.death == INF


def pair_cost(p, q):
    """L-infinity cost of matching two points of equal dimension.

    Two essential points compare by birth alone; an essential point can
    never match a finite one (cost +inf).
    """
    if p.dim != q.dim:
        raise DimensionMismatch(f"dim {p.dim} vs dim {q.dim}")
    if is_essential(p) != is_essential(q):
        return INF
    birth_gap = abs(p.birth - q.birth)
    if is_essential(p):
        return birth_gap
    return max(birth_gap, abs(p.death - q.death))


def diagonal_cost(p):
    """Cost of sending a point to its diagonal projection; +inf if essential."""
    if is_essential(p):
        return INF
    return (p.death - p.birth) / 2


def fraction_matching_cost(D0: Diagram, D1: Diagram, m: Matching):
    """The twin of ``bottleneck.matching_cost``: the largest cost of an
    entry of ``m``, in Fractions, point by point; 0 for empty diagrams.

    A matching that does not use each point exactly once raises
    InvalidMatching, and one across dimensions DimensionMismatch, with
    messages of their own: the tests pin the library's messages.
    """
    lefts = sorted(i for i, _ in m.pairs if i is not None)
    rights = sorted(j for _, j in m.pairs if j is not None)
    if lefts != list(range(len(D0.points))) or rights != list(range(len(D1.points))):
        raise InvalidMatching("a point is unused or used twice")
    worst = 0
    for i, j in m.pairs:
        if i is None:
            cost = diagonal_cost(D1.points[j])
        elif j is None:
            cost = diagonal_cost(D0.points[i])
        else:
            cost = pair_cost(D0.points[i], D1.points[j])
        worst = max(worst, cost)
    return worst


def fraction_numerators(*columns) -> list:
    """Each column of Fractions as int numerators over the lcm of all their
    denominators: a scale built from the values alone, where the library
    reads each function's own ints (``complexes.common_scale``)."""
    scale = math.lcm(*(x.denominator for column in columns for x in column))
    return [[x.numerator * (scale // x.denominator) for x in col] for col in columns]


def fraction_interpolate(
    f0: FiltrationFunction, f1: FiltrationFunction, t
) -> FiltrationFunction:
    """The exact convex combination (1-t) * f0 + t * f1 as a filtration of
    Fractions: f0 itself at t = 0 and f1 at t = 1.  The library's
    ``interpolate`` gives the same values as ints over one denominator."""
    if f0.complex is not f1.complex and f0.complex != f1.complex:
        raise DomainMismatch("functions live on different complexes")
    t = to_fraction(t)
    if not 0 <= t <= 1:
        raise TOutOfRange(f"t = {fraction_string(t)} outside [0, 1]")
    if t == 0:
        return f0
    if t == 1:
        return f1
    # At t = p/q, (1-t) * a/c + t * b/d = (a*d*(q-p) + b*c*p) / (c*d*q):
    # one gcd per value instead of one per Fraction operation.
    p, q = t.numerator, t.denominator
    r = q - p
    values = tuple(
        Fraction(
            a.numerator * b.denominator * r + b.numerator * a.denominator * p,
            a.denominator * b.denominator * q,
        )
        for a, b in zip(f0.values, f1.values)
    )
    return FiltrationFunction(f0.complex, values)


@dataclass(frozen=True)
class ReferenceCertificate:
    """One interval certified from scratch: its order and pivot pairs, the
    measured cost of matching its two endpoint diagrams by pivot identity
    and the sup-norm of the endpoint functions it is bounded by."""

    t_lo: Fraction
    t_hi: Fraction
    order_used: tuple[int, ...]
    pairs: tuple[PivotPair, ...]
    cost: "Fraction | int"
    bound: Fraction


def fraction_key_order(K: SimplicialComplex, f: FiltrationFunction) -> tuple:
    """The canonical order by its definition: simplex positions sorted by
    (value, dimension, vertex sequence), the values as Fractions."""
    return tuple(
        sorted(
            range(len(K)),
            key=lambda i: (f.values[i], K.simplices[i].dim, K.simplices[i].vertices),
        )
    )


def inverse(order) -> list[int]:
    """Complex position -> order position."""
    pos = [0] * len(order)
    for j, c in enumerate(order):
        pos[c] = j
    return pos


def perturbed_instance(cfg, eps: Fraction) -> InstanceFile:
    """``generate_instance(cfg)`` with f1 replaced by f0 + eps * (g +
    offsets), g its second function: the offsets rise from 1/n to 1 along
    f0's canonical order, so f0 + eps * offsets keeps that order, and
    eps * g makes a few crossings.  For a small eps no value moves far, so
    a bound of the sup-norm leaves each diagram point few partners."""
    inst = generate_instance(cfg)
    K = inst.complex
    f0, g = inst.functions
    n = len(K)
    offsets = [Fraction(pos + 1, n) for pos in inverse(total_order(K, f0))]
    f1 = FiltrationFunction(
        K, tuple(a + eps * (b + o) for a, b, o in zip(f0.values, g.values, offsets))
    )
    return InstanceFile(K, (f0, f1))


def check_order_compatible(
    K: SimplicialComplex, f: FiltrationFunction, order: tuple
) -> None:
    """Raise IncompatibleOrder unless ``order`` is valid for (K, f).

    Valid means: a permutation of the simplex positions, along which
    values are non-decreasing and every prefix is face-closed (all faces
    strictly precede their cofaces).  ``verify_stability`` checks only the
    values of its carried order, as its untied monotone endpoints put faces
    first, and the partition of its pivot pairs, which a lost or repeated
    simplex breaks; this checks all three.
    """
    if sorted(order) != list(range(len(K))):
        raise IncompatibleOrder(f"not a permutation of 0..{len(K) - 1}: {order}")
    for a, b in zip(order, order[1:]):
        if f.values[a] > f.values[b]:
            raise IncompatibleOrder(
                f"values decrease along the order: f({K.simplices[a]}) = "
                f"{fraction_string(f.values[a])} > "
                f"{fraction_string(f.values[b])} = f({K.simplices[b]})"
            )
    pos = inverse(order)
    for j, complex_pos in enumerate(order):
        for face_pos in K.facet_positions[complex_pos]:
            if pos[face_pos] >= j:
                raise IncompatibleOrder(
                    f"face {{{K.simplices[face_pos]}}} does not precede "
                    f"{{{K.simplices[complex_pos]}}}"
                )


def is_order_constant(
    f0: FiltrationFunction, f1: FiltrationFunction, alpha, beta
) -> bool:
    """True iff no simplex pair swaps strictly inside [alpha, beta].

    For every pair, the sign of f_t(sigma) - f_t(tau) must not flip over the
    interval; a zero at either end is compatible with both signs.  Because
    the interpolation is linear in t, testing the two endpoint values is
    exact.
    """
    if f0.complex is not f1.complex and f0.complex != f1.complex:
        raise DomainMismatch("functions live on different complexes")
    a, b = to_fraction(alpha), to_fraction(beta)
    if not a < b:
        raise ValueError(f"need alpha < beta, got {a} >= {b}")
    # f_t scaled by a positive constant: (q - p) * x + p * y for t = p / q
    x, y = fraction_numerators(f0.values, f1.values)
    va = [(a.denominator - a.numerator) * u + a.numerator * v for u, v in zip(x, y)]
    vb = [(b.denominator - b.numerator) * u + b.numerator * v for u, v in zip(x, y)]
    n = len(va)
    for i in range(n):
        for j in range(i + 1, n):
            da = va[i] - va[j]
            db = vb[i] - vb[j]
            if (da > 0 and db < 0) or (da < 0 and db > 0):
                return False
    return True


def interval_matching(
    K: SimplicialComplex,
    f0: FiltrationFunction,
    f1: FiltrationFunction,
    t_lo,
    t_hi,
) -> tuple:
    """Certify one order-constant interval from scratch: its
    ReferenceCertificate and its two endpoint diagrams.

    Checks that no simplex pair swaps strictly inside the interval, takes
    the order induced at the midpoint (valid for every t in the interval)
    and reduces it once.  Both endpoint functions are compatible with that
    order, so one pair list serves both endpoint diagrams, and matching
    them by pivot identity is a bijection whose cost is the largest
    coordinate move of any pivot simplex.  ``verify_stability`` carries
    its order across crossings instead; this is the reference it must
    agree with.
    """
    t_lo, t_hi = to_fraction(t_lo), to_fraction(t_hi)
    if not 0 <= t_lo < t_hi <= 1:
        raise ValueError(f"bad interval [{t_lo}, {t_hi}]")
    if not is_order_constant(f0, f1, t_lo, t_hi):
        raise OrderNotConstant(
            f"simplex order changes strictly inside [{t_lo}, {t_hi}]"
        )
    order = total_order(K, fraction_interpolate(f0, f1, (t_lo + t_hi) / 2))
    f_lo = fraction_interpolate(f0, f1, t_lo)
    f_hi = fraction_interpolate(f0, f1, t_hi)
    check_order_compatible(K, f_lo, order)
    check_order_compatible(K, f_hi, order)
    pairs = pivot_pairs(K, order)
    left = diagram_from_pivots(K, f_lo, pairs)
    right = diagram_from_pivots(K, f_hi, pairs)
    cost = max(map(pair_cost, left.points, right.points), default=0)
    bound = sup_norm(f_lo, f_hi)
    if cost != bound:
        # Every simplex is a birth or death coordinate of exactly one point
        # (essentials included), so the largest coordinate move IS the
        # sup-norm; any discrepancy in either direction is a bug.
        raise InternalProofViolation(
            f"interval [{t_lo}, {t_hi}]: matching cost {fraction_string(cost)} "
            f"!= sup-norm {fraction_string(bound)}; costliest "
            f"pivot pair {_costliest_pair(K, left, right)}"
        )
    return ReferenceCertificate(t_lo, t_hi, order, pairs, cost, bound), left, right


def _costliest_pair(K: SimplicialComplex, left: Diagram, right: Diagram) -> str:
    """The pivot pair whose point moves farthest; only for messages."""
    p, q = max(zip(left.points, right.points), key=lambda pq: pair_cost(*pq))
    return _simplex_pair(K, p.pair.birth, p.pair.death)


def points_in_dim(D, dim: int) -> tuple:
    """The indices of D's points in dimension ``dim``, in order."""
    return tuple(i for i, d in enumerate(D.dims) if d == dim)


def breakpoint_matching(D_left: Diagram, D_right: Diagram) -> Matching:
    """Zero-cost bijection between two diagrams of one function.

    The diagrams were computed under different orders (the two sides of a
    crossing time), so their pivot pairs may differ, but their value
    multisets agree.  Within each dimension both point lists are sorted by
    (birth, death, birth-simplex order position) and matched positionally;
    a diagram lists its points by that position, so it is the point's
    index.  Any disagreement in the matched values would falsify
    order-invariance of diagrams, so it is an InternalProofViolation.
    """
    def sort_key(diag):
        def key(i):
            p = diag.points[i]
            return (p.birth, p.death, i)
        return key

    dims = sorted({p.dim for p in D_left.points} | {p.dim for p in D_right.points})
    pairs = []
    for d in dims:
        left_idx = sorted(points_in_dim(D_left, d), key=sort_key(D_left))
        right_idx = sorted(points_in_dim(D_right, d), key=sort_key(D_right))
        if len(left_idx) != len(right_idx):
            raise InternalProofViolation(
                f"dimension {d}: {len(left_idx)} points vs {len(right_idx)}"
            )
        for i, j in zip(left_idx, right_idx):
            p, q = D_left.points[i], D_right.points[j]
            if (p.birth, p.death) != (q.birth, q.death):
                raise InternalProofViolation(
                    f"dimension {d}: {p} has no partner with equal values ({q})"
                )
            pairs.append((i, j))
    pairs.sort()
    return Matching(tuple(pairs))


def compose_matchings(chain) -> Matching:
    """Relational composition of a chain of bijections.

    Inside ``verify_stability`` consecutive links always share their middle
    diagram, so a chain that does not compose is an InternalProofViolation.
    """
    chain = list(chain)
    if not chain:
        raise InternalProofViolation("empty chain")
    composed = as_map(chain[0])
    for link in chain[1:]:
        step = as_map(link)
        if len(step) != len(composed):
            raise InternalProofViolation(
                f"link of size {len(step)} after matching of size {len(composed)}"
            )
        try:
            composed = {a: step[b] for a, b in composed.items()}
        except KeyError as exc:
            raise InternalProofViolation(
                f"middle index {exc.args[0]} missing from the next link"
            ) from None
    return Matching(tuple(sorted(composed.items())))


def as_map(m: Matching) -> dict[int, int]:
    """Left index -> right index; rejects diagonal entries."""
    out = {}
    for i, j in m.pairs:
        if i is None or j is None:
            raise InvalidMatching("matching contains diagonal entries")
        out[i] = j
    return out


def _point(K: SimplicialComplex, values: tuple, pv: PivotPair) -> tuple:
    """(dimension, birth value, death value) of a pivot pair under values."""
    death = values[pv.death] if pv.death is not None else INF
    return K.simplices[pv.birth].dim, values[pv.birth], death


def bucket_reidentify(
    K: SimplicialComplex, left: tuple, right: tuple, values: tuple, k: int, t
) -> list:
    """Re-identify two pair lists at crossing ``k`` by value alone.

    Every pair of ``right`` goes into a bucket keyed by its point, in list
    order, and each pair of ``left`` in turn takes the first unused index
    of its bucket.  ``stability._reidentify`` buckets only the pairs with
    a simplex tied at ``t``, by class keys that read no value, and every
    other pair keeps its place; the full map that gives must be this one.
    """
    where = f"crossing {k} at t = {fraction_string(t)}"
    if len(left) != len(right):
        raise InternalProofViolation(
            f"{where}: {len(left)} pivot pairs before vs {len(right)} after"
        )
    unused: dict = {}  # point -> indices of right with it, last first
    for j in range(len(right) - 1, -1, -1):
        unused.setdefault(_point(K, values, right[j]), []).append(j)
    step = []
    for p in left:
        d, b, dth = key = _point(K, values, p)
        bucket = unused.get(key)
        if not bucket:
            raise InternalProofViolation(
                f"{where}: pivot pair {_simplex_pair(K, p.birth, p.death)} at "
                f"dim {d} ({format_value(b)}, {format_value(dth)}) has no "
                "partner with equal values"
            )
        step.append(bucket.pop())
    return step


def verify_recording(K, f0, f1) -> tuple:
    """``verify_stability`` and the events its ``_carried_certificates``
    reports to a sink: ("interval", k, lo, hi, order, pairs) for each
    interval and ("crossing", k, t, left, right, step) for each crossing.
    Its report keeps none of them."""
    events: list = []
    carried = functools.partial(stability._carried_certificates, sink=events)
    with mock.patch.object(stability, "_carried_certificates", carried):
        report = stability.verify_stability(K, f0, f1)
    return report, events


def recorded_intervals(events) -> list:
    """The (order, pivot pairs) of each interval in turn, from the events
    of ``verify_recording``."""
    return [(order, pairs) for kind, *_, order, pairs in events if kind == "interval"]


def reidentify_differences(K, f0, f1, events) -> tuple:
    """Check the full map of every crossing, as the events of
    ``verify_recording`` report it, against ``bucket_reidentify`` of the
    same two pair lists at the Fraction values there.

    Returns the number of crossings, the number of them where two points
    of one pair list are equal (so the tie-break by list order decides the
    map), and a description of each crossing where the two maps differ.
    """
    crossings = equal_points = 0
    out = []
    for kind, k, t, left, right, got in events:
        if kind != "crossing":
            continue
        exact = fraction_interpolate(f0, f1, t).values
        want = bucket_reidentify(K, left, right, exact, k, t)
        crossings += 1
        points = Counter(_point(K, exact, pv) for pv in right)
        equal_points += max(points.values(), default=0) > 1
        if got != want:
            out.append(f"crossing {k} at t = {fraction_string(t)}: {got} != {want}")
    return crossings, equal_points, out


def reidentify_calls(K, f0, f1) -> tuple:
    """The crossings at which ``verify_stability`` calls
    ``stability._reidentify``, in order, and the events
    ``verify_recording`` records in the same run."""
    calls: list = []
    reidentify = stability._reidentify

    def counted(*args):  # its arguments end with k and t
        calls.append(args[-2])
        return reidentify(*args)

    with mock.patch.object(stability, "_reidentify", counted):
        _, events = verify_recording(K, f0, f1)
    return calls, events


def crossings_to_reidentify(K, f0, f1, events) -> list:
    """The crossings, among the events of ``verify_recording``, where a
    pivot pair changes or two pairs with a tied simplex have equal points
    at the Fraction values there.  At every other crossing the bucket rule
    sends each pair to itself.  A simplex is tied when another has its
    value at t, which this reads from the values alone."""
    out = []
    for kind, k, t, left, right, _ in events:
        if kind != "crossing":
            continue
        values = fraction_interpolate(f0, f1, t).values
        count = Counter(values)
        points = Counter(
            _point(K, values, pv)
            for pv in right
            if count[values[pv.birth]] > 1
            or pv.death is not None and count[values[pv.death]] > 1
        )
        if set(left) != set(right) or max(points.values(), default=0) > 1:
            out.append(k)
    return out


def transpositions(K, f0, f1) -> tuple:
    """The report of ``verify_stability`` and the number of
    ``Vineyard.transpose`` calls it made."""
    count = 0
    transpose = Vineyard.transpose

    def counted(self, i):
        nonlocal count
        count += 1
        transpose(self, i)

    with mock.patch.object(Vineyard, "transpose", counted):
        report = stability.verify_stability(K, f0, f1)
    return report, count


def same_dimension_pairs(K, schedule) -> int:
    """How many of the schedule's crossing pairs join two simplices of one
    dimension."""
    dim = [s.dim for s in K.simplices]
    return sum(dim[i] == dim[j] for pairs in schedule.pairs_at for i, j in pairs)


def crafted_runs(
    seed: int, k: int, runs: int = 1, mixed: bool = False, deaths: "str | None" = None
) -> tuple:
    """A seeded instance whose lines meet where the sweep's fast paths
    need them, and the groups of simplex positions that tie at its time
    t*: (instance, t*, groups).

    ``runs`` groups of k simplices of one dimension each have value lines
    through one point, all at one t*: group g passes through (t*, v_g),
    with a_i = v_g - t* s_i and b_i = v_g + (1 - t*) s_i for distinct
    slopes s_i, so each group ties at t* as one run of k.  With ``mixed``,
    one simplex of another dimension, neither a face nor a coface of any
    of them, passes through (t*, v_0) too and is the last of group 0: that
    tie mixes dimensions, and the sweep sees its run of k alone.

    With ``deaths``, the one group is k vertices, and a second group of
    edges, each a coface of one of them, passes through a point above
    theirs at t*, so the edges tie there as a run of their own.  Each edge
    kills one vertex of the run, so at t* the pairs they make have equal
    points.  "apart" takes edges whose other vertex is outside the run:
    each kills its own run vertex in either order, so the crossing has
    equal points and no switch.  "across" takes disjoint edges between two
    run vertices: each kills the later of its two, which the reversal
    changes, so the crossing has equal points and a switch.

    Simplices of one dimension are never faces of one another, so only
    the faces and cofaces of the chosen simplices need room: their faces
    take values below every line at both ends and their cofaces values
    above (no simplex is both, as the groups' dimensions differ by at most
    one).  Every other simplex takes values between, rising with
    dimension, so the lines also cross it.  Draws repeat until a mixed
    tie has a simplex to take, the edges number two or more, and both
    functions are untied.
    """
    rng = random.Random(seed)
    K = generate_complex(rng, GeneratorConfig(seed=seed, num_vertices=8, fill_prob=0.6))
    by_dim: dict = {}
    for s, simplex in enumerate(K.simplices):
        by_dim.setdefault(simplex.dim, []).append(s)
    d = 0 if deaths else rng.choice(
        [e for e, group in by_dim.items() if len(group) >= k * runs]
    )
    vertex_sets = [set(simplex.vertices) for simplex in K.simplices]

    def related(s, c) -> bool:  # face or coface
        return vertex_sets[s] < vertex_sets[c] or vertex_sets[c] < vertex_sets[s]

    while True:
        chosen = rng.sample(by_dim[d], k * runs)
        groups = [chosen[g * k : (g + 1) * k] for g in range(runs)]
        if mixed:
            others = [
                s for s in range(len(K))
                if K.simplices[s].dim != d and not any(related(s, c) for c in chosen)
            ]
            if not others:
                continue
            groups[0].append(rng.choice(others))
        if deaths:
            run = {K.simplices[s].vertices[0] for s in chosen}
            edges, used = [], set()
            for e in rng.sample(by_dim[1], len(by_dim[1])):
                inside = run.intersection(K.simplices[e].vertices)
                if len(inside) == (1 if deaths == "apart" else 2) and not inside & used:
                    edges.append(e)
                    used |= inside
            if len(edges) < 2:
                continue
            groups.append(edges)
        t = Fraction(rng.randint(1, 15), 16)
        lines = {}
        slopes = iter(rng.sample(range(-12, 13), sum(map(len, groups))))
        for g, group in enumerate(groups):
            v = 100 + (30 if deaths else 15) * g
            for c in group:
                slope = next(slopes)
                lines[c] = (v - t * slope, v + (1 - t) * slope)

        def band(s) -> tuple:  # (base, width) of the values s may take
            dim = K.simplices[s].dim
            if any(vertex_sets[s] < vertex_sets[c] for c in lines):
                return 10 * dim, 10
            if any(vertex_sets[c] < vertex_sets[s] for c in lines):
                return 200 + 10 * dim, 10
            return 60 + 30 * dim, 30

        def drawn(s):
            base, width = band(s)
            return base + Fraction(rng.randrange(100 * width), 100)

        a = [lines[s][0] if s in lines else drawn(s) for s in range(len(K))]
        b = [lines[s][1] if s in lines else drawn(s) for s in range(len(K))]
        f0, f1 = FiltrationFunction(K, tuple(a)), FiltrationFunction(K, tuple(b))
        if len(set(a)) == len(set(b)) == len(K):
            return InstanceFile(K, (f0, f1)), t, groups


def crossing_features(K, f0, f1, events, t, groups) -> tuple:
    """What the crossing at ``t`` of a run recorded by ``verify_recording``
    holds, from the groups that ``crafted_runs`` made tie there: (two
    pairs born in the groups have equal points there, a pair changes
    there, a pair born in the groups is essential)."""
    _, _, _, left, right, _ = next(e for e in events if e[0] == "crossing" and e[2] == t)
    values = fraction_interpolate(f0, f1, t).values
    members = {s for group in groups for s in group}
    points = Counter(_point(K, values, pv) for pv in right if pv.birth in members)
    return (
        max(points.values(), default=0) > 1,
        set(left) != set(right),
        any(pv.death is None for pv in left if pv.birth in members),
    )


def interval_references(K, f0, f1, schedule) -> tuple:
    """The certificate of ``interval_matching`` for each interval of
    ``schedule`` in turn, or the PhstabError that it raised there, and the
    chain of their matchings composed end to end, None if one raised.

    The chain is each interval's matching by pivot identity, then the
    zero-cost re-identification into the next interval's left diagram
    (``breakpoint_matching``).  It is composed as it grows, so no diagram
    is kept past the next interval.
    """
    bps = schedule.breakpoints()
    refs: list = []
    composed = right = None
    for lo, hi in zip(bps, bps[1:]):
        try:
            ref, left, next_right = interval_matching(K, f0, f1, lo, hi)
        except PhstabError as exc:
            refs.append(exc)
            composed = None
            continue
        identity = Matching(tuple((i, i) for i in range(len(ref.pairs))))
        if not refs:
            composed = identity
        elif composed is not None:
            link = breakpoint_matching(right, left)
            composed = compose_matchings([composed, link, identity])
        refs.append(ref)
        right = next_right
    return refs, composed


def reference_differences(K, report, events, references) -> list[str]:
    """How ``report`` and the intervals in the events of
    ``verify_recording`` depart from ``references``, as
    ``interval_references`` returns them; empty if they do not.

    There must be one recorded interval and one reference per certificate.
    Each reference must be certified.  Verify carries its order by
    dimension, so each interval's order must equal its reference's order
    stably sorted by dimension, and its pivot pairs the reference's pairs
    stably sorted by the dimension of their births.  Each interval's share
    must equal both the reference's measured cost and its bound, and the
    carried point map must equal the composed chain.
    """
    refs, composed = references
    dim = [s.dim for s in K.simplices]
    out = []
    reduced = recorded_intervals(events)
    certs = report.certificates
    if not len(reduced) == len(refs) == len(certs):
        out.append(
            f"{len(reduced)} recorded intervals and {len(refs)} references "
            f"for {len(certs)} certificates"
        )
    for k, (cert, (order, pairs), ref) in enumerate(zip(certs, reduced, refs)):
        if isinstance(ref, PhstabError):
            out.append(f"interval {k}: not certified: {ref}")
            continue
        for name, got, want in (
            ("order_used", order, sorted(ref.order_used, key=dim.__getitem__)),
            ("pairs", pairs, sorted(ref.pairs, key=lambda pv: dim[pv.birth])),
        ):
            if got != tuple(want):
                out.append(f"interval {k}: {name} differs")
        for name in ("cost", "bound"):
            if cert.share != getattr(ref, name):
                out.append(f"interval {k}: share differs from the {name}")
    if composed is not None and report.composed_matching != composed:
        out.append("composed matching differs")
    return out


_MISSED = re.compile(
    r"interval (\d+) \[[^\]]*\]: carried order fails at t = (\S+): values "
    r"decrease along the order: f\(([\d,]+)\) = (\S+) > (\S+) = f\(([\d,]+)\)"
)


def _violation(K, f0, f1, schedule) -> "str | None":
    """The message of the InternalProofViolation ``verify_stability`` raises
    when its crossing schedule is ``schedule``, or None if it raises none."""
    with mock.patch.object(stability, "crossing_times", lambda g0, g1: schedule):
        try:
            stability.verify_stability(K, f0, f1)
        except InternalProofViolation as exc:
            return str(exc)
    return None


def doctored_schedule_differences(K, f0, f1, rng) -> tuple:
    """How ``verify_stability`` departs from what doctored copies of the
    true schedule must make it raise, empty if it does not, and the names
    of the copies it was handed.

    At a crossing time ``rng`` picks, the copies (1) drop the time, which
    must be reported as a missed crossing: the first interval that spans
    it, at its upper end, names a pair scheduled there whose values, as
    printed, decrease there; (2) move it halfway to the time before it (or
    to 0), where nothing ties; (3) drop one pair of a time with several,
    if any, a pair that ties but is not scheduled; (4) add a pair that
    does not tie there; (5) replace one of its pairs by a pair that does
    not tie there, so that only the pairs, not their number, tell the copy
    from the true schedule.

    Verify sweeps the simplices of each dimension apart, so a pair of two
    dimensions is no swap, and the copies (6) to (9) aim at such pairs:
    (6) add one that does not tie at the picked time; (7) drop one from a
    time with several pairs, if any holds one; and, at a time that holds
    only such pairs, if any, (8) move it as in (2) and (9) drop it as in
    (1).
    """
    true = stability.crossing_times(f0, f1)
    times, pairs_at = list(true.times), list(true.pairs_at)
    i = rng.randrange(len(times))
    t = times[i]

    def raised(times, pairs_at):
        schedule = CrossingSchedule(tuple(times), tuple(pairs_at))
        return _violation(K, f0, f1, schedule)

    def dropped(i) -> list:
        """Drop time i: the missed pair and its values are read back from
        the message."""
        got = raised(times[:i] + times[i + 1:], pairs_at[:i] + pairs_at[i + 1:])
        hi = times[i + 1] if i + 1 < len(times) else Fraction(1)
        m = _MISSED.fullmatch(got or "")
        pair = m and tuple(K.index[tuple(map(int, v.split(",")))] for v in (m[3], m[6]))
        f_hi = fraction_interpolate(f0, f1, hi).values
        if (
            m
            and (int(m[1]), m[2]) == (i, fraction_string(hi))
            and tuple(sorted(pair)) in pairs_at[i]
            and (m[4], m[5]) == tuple(fraction_string(f_hi[x]) for x in pair)
            and f_hi[pair[0]] > f_hi[pair[1]]
        ):
            return []
        return [f"dropped t = {fraction_string(times[i])}: {got!r}"]

    def moved(i) -> tuple:
        """Move time i halfway to the time before it, where nothing ties."""
        to = ((times[i - 1] if i else 0) + times[i]) / 2
        return (
            raised(times[:i] + [to] + times[i + 1:], pairs_at),
            f"crossing {i} at t = {fraction_string(to)}: scheduled simplices "
            f"{_simplex_pair(K, *pairs_at[i][0])} do not tie",
        )

    def without(j, r) -> tuple:
        """Drop pair r of time j, a pair that ties but is not scheduled."""
        fewer = pairs_at[j][:r] + pairs_at[j][r + 1:]
        return (
            raised(times, pairs_at[:j] + [fewer] + pairs_at[j + 1:]),
            f"crossing {j} at t = {fraction_string(times[j])}: simplices "
            f"{_simplex_pair(K, *pairs_at[j][r])} tie but are not scheduled",
        )

    def adding(extra) -> tuple:
        """Add a pair that does not tie at t: only the scheduled pairs do."""
        more = tuple(sorted(pairs_at[i] + (extra,)))
        return (
            raised(times, pairs_at[:i] + [more] + pairs_at[i + 1:]),
            f"crossing {i} at t = {fraction_string(t)}: scheduled simplices "
            f"{_simplex_pair(K, *extra)} do not tie",
        )

    out = dropped(i)  # (1)
    ran = ["dropped", "moved", "added", "replaced"]
    expected = [moved(i)]  # (2)
    several = [j for j, ps in enumerate(pairs_at) if len(ps) > 1]
    if several:  # (3)
        j = rng.choice(several)
        expected.append(without(j, rng.randrange(len(pairs_at[j]))))
        ran.append("dropped pair")
    while True:
        extra = tuple(sorted(rng.sample(range(len(K)), 2)))
        if extra not in pairs_at[i]:
            break
    expected.append(adding(extra))  # (4)
    # (5) the replaced pair ties but is not scheduled
    r = rng.randrange(len(pairs_at[i]))
    same = tuple(sorted(pairs_at[i][:r] + pairs_at[i][r + 1:] + (extra,)))
    expected.append((
        raised(times, pairs_at[:i] + [same] + pairs_at[i + 1:]),
        f"crossing {i} at t = {fraction_string(t)}: simplices "
        f"{_simplex_pair(K, *pairs_at[i][r])} tie but are not scheduled",
    ))
    dim = [s.dim for s in K.simplices]

    def across(pair) -> bool:
        return dim[pair[0]] != dim[pair[1]]

    others = [
        pair for pair in combinations(range(len(K)), 2)
        if across(pair) and pair not in pairs_at[i]
    ]
    if others:  # (6)
        expected.append(adding(rng.choice(others)))
        ran.append("added across")
    mixed = [
        (j, r)
        for j, ps in enumerate(pairs_at) if len(ps) > 1
        for r, pair in enumerate(ps) if across(pair)
    ]
    if mixed:  # (7)
        expected.append(without(*rng.choice(mixed)))
        ran.append("dropped pair across")
    only = [j for j, ps in enumerate(pairs_at) if all(map(across, ps))]
    if only:  # (8) and (9)
        j = rng.choice(only)
        expected.append(moved(j))
        out += dropped(j)
        ran += ["moved across", "dropped across"]
    out.extend(f"{got!r} != {want!r}" for got, want in expected if got != want)
    return out, ran


def interval_midpoints(schedule: CrossingSchedule) -> tuple[Fraction, ...]:
    """Midpoints of the intervals cut out of [0, 1] by the schedule.

    One midpoint per interval; at each of them every simplex pair has
    distinct interpolated values.
    """
    bps = schedule.breakpoints()
    return tuple((a + b) / 2 for a, b in zip(bps, bps[1:]))


def diagram_with_order(
    K: SimplicialComplex,
    f: FiltrationFunction,
    order: tuple,
) -> Diagram:
    """Diagram of f under a caller-supplied compatible order.

    Raises IncompatibleOrder if the order is not valid for f.
    """
    issues = validate_filtration(K, f)
    if issues:
        raise InvalidFiltration(issues)
    check_order_compatible(K, f, order)
    return diagram_from_pivots(K, f, pivot_pairs(K, order))


def sublevel(K: SimplicialComplex, f: FiltrationFunction, alpha) -> SimplicialComplex:
    """The subcomplex of all simplices with value at most alpha."""
    a = to_fraction(alpha)
    return SimplicialComplex(
        tuple(s.vertices for s, v in zip(K.simplices, f.values) if v <= a)
    )


def random_compatible_order(
    K: SimplicialComplex, f: FiltrationFunction, rng: random.Random
) -> tuple[int, ...]:
    """A uniformly shuffled valid order for (K, f).

    Within each group of equal values, repeatedly pick a random simplex all
    of whose faces (inside the group) were already emitted; faces outside
    the group carry strictly smaller values and sit in earlier groups.
    Exercises orders other than the canonical tie-break.
    """
    groups: dict[Fraction, list[int]] = {}
    for i, v in enumerate(f.values):
        groups.setdefault(v, []).append(i)
    perm: list[int] = []
    placed: set[int] = set()
    for v in sorted(groups):
        pending = set(groups[v])
        while pending:
            ready = [
                i
                for i in sorted(pending)
                if all(
                    fp in placed or fp not in pending
                    for fp in K.facet_positions[i]
                )
            ]
            pick = rng.choice(ready)
            pending.discard(pick)
            placed.add(pick)
            perm.append(pick)
    return tuple(perm)


def dims(D: Diagram) -> tuple[int, ...]:
    """Sorted dimensions that carry a point of D."""
    return tuple(sorted({p.dim for p in D.points}))


def counts_by_dim(D: Diagram) -> Counter:
    """Dimension -> number of points of D."""
    return Counter(p.dim for p in D.points)


def value_multiset(D: Diagram) -> Counter:
    """Multiset of (dim, birth, death) with multiplicities."""
    return Counter((p.dim, p.birth, p.death) for p in D.points)


def brute_force_bottleneck(D0: Diagram, D1: Diagram, limit: int = 8):
    """Exact bijection bottleneck by enumerating all bijections.

    Refuses more than ``limit`` points in any dimension.
    """
    worst = 0
    for d, idx0, idx1 in _split_by_dim(D0, D1, require_equal=True):
        n = len(idx0)
        if n > limit:
            raise TooLarge(f"{n} points in dimension {d} (limit {limit})")
        if n == 0:
            continue
        pts0 = [D0.points[i] for i in idx0]
        pts1 = [D1.points[j] for j in idx1]
        best = INF
        for perm in permutations(range(n)):
            cost = 0
            for i, j in enumerate(perm):
                cost = max(cost, pair_cost(pts0[i], pts1[j]))
                if cost >= best:
                    break
            best = min(best, cost)
        worst = max(worst, best)
    return worst


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


def fraction_matrix_matching(D0, D1, diagonal=False):
    """Either exact bottleneck distance from whole Fraction cost matrices,
    with a witness.

    Per dimension ``min_max_matching`` gets every point at once: the
    ``pair_cost`` matrix for the bijection variant, or for the diagonal
    variant the augmented matrix, where a point reaches its own diagonal
    partner at ``diagonal_cost``, partners match each other for free and
    every other entry is infinite.  It takes the finite entries of each
    row as its edges.  The witness is its matchings, partner pairs
    dropped, sorted like the library's; on diagrams of finite points only
    it is the library's witness too, the run that the diagonal variant's
    real-point search stands in for.
    """
    worst = 0
    pairs = []
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
        rows = [[(j, c) for j, c in enumerate(row) if c != math.inf] for row in costs]
        cost, local = min_max_matching(rows)
        worst = max(worst, cost)
        pairs.extend(
            (idx0[a] if a < n0 else None, idx1[b] if b < n1 else None)
            for a, b in local
            if a < n0 or b < n1
        )
    pairs.sort(key=lambda p: (p[0] is None, p[1] if p[0] is None else p[0]))
    return worst, Matching(tuple(pairs))


def min_max_matching(rows):
    """The library's search on a square graph whose rows are all heavy,
    with the witness of one from-scratch ``_perfect_matching`` at the
    chosen cost: (cost, pairs) like ``scratch_min_max_matching``, or
    (cost, None) when that run finds none."""
    n = len(rows)
    cost = _min_max_cost([(rows, [INF] * n, n)])
    if cost == INF:
        return INF, [(i, i) for i in range(n)]
    match = _perfect_matching([[v for v, c in row if c <= cost] for row in rows])
    return cost, None if match is None else list(enumerate(match))


def scratch_min_max_matching(rows):
    """``min_max_matching`` with every probe matched from scratch.

    Binary search over the sorted distinct costs; each probe keeps the
    edges costing at most its limit, in column order, and runs
    ``_perfect_matching`` on them.  Returns (cost, pairs) like the library
    core: the witness is the matching found at the chosen cost, and an
    infeasible graph gives (INF, identity).
    """
    candidates = sorted({c for row in rows for _, c in row})

    def matching_at(k):
        limit = candidates[k]
        return _perfect_matching([[v for v, c in row if c <= limit] for row in rows])

    lo, hi = 0, len(candidates) - 1
    best = matching_at(hi) if candidates else None
    if best is None:
        return INF, [(i, i) for i in range(len(rows))]
    while lo < hi:
        mid = (lo + hi) // 2
        found = matching_at(mid)
        if found is None:
            lo = mid + 1
        else:
            hi, best = mid, found
    return candidates[lo], list(enumerate(best))


def scan_crossing_times(f0: FiltrationFunction, f1: FiltrationFunction) -> CrossingSchedule:
    """``crossing_times`` by testing every simplex pair, for unique-valued
    endpoints: a pair crosses when its gaps d0 and d1 differ in sign, at
    t = d0 / (d0 - d1).  The library visits only the inverted pairs."""
    v0, v1 = fraction_numerators(f0.values, f1.values)
    by_time: dict = {}
    n = len(v0)
    for i in range(n):
        for j in range(i + 1, n):
            d0 = v0[i] - v0[j]
            d1 = v1[i] - v1[j]
            if (d0 > 0) != (d1 > 0):
                by_time.setdefault(Fraction(d0, d0 - d1), []).append((i, j))
    times = tuple(sorted(by_time))
    return CrossingSchedule(times, tuple(tuple(sorted(by_time[t])) for t in times))


def set_pivot_pairs(K: SimplicialComplex, order: tuple) -> tuple:
    """``pivot_pairs`` with each column a set of row positions, added by
    symmetric difference and read by ``max``; the library uses int bitsets."""
    pos = inverse(order)
    cols = [{pos[i] for i in K.facet_positions[c]} for c in order]
    owner: dict = {}  # pivot row -> owning column
    for j, col in enumerate(cols):
        while col:
            low = max(col)
            k = owner.get(low)
            if k is None:
                owner[low] = j
                break
            col ^= cols[k]
    return tuple(
        PivotPair(order[i], order[owner[i]] if i in owner else None)
        for i, col in enumerate(cols)
        if not col
    )


def combination_generate_complex(rng: random.Random, cfg) -> SimplicialComplex:
    """``generate_complex`` by testing every vertex set: all edges drawn
    first, then each set of 3 to cfg.max_dimension + 1 vertices kept when
    all its pairs are edges, and the whole list sorted by (dimension,
    vertices).  The library grows each clique by its common neighbours."""
    n = cfg.num_vertices
    p = cfg.fill_prob
    edges = {(u, v) for u, v in combinations(range(n), 2) if rng.random() < p}
    simplices = [Simplex((v,)) for v in range(n)]
    simplices += [Simplex(e) for e in sorted(edges)]
    for size in range(3, cfg.max_dimension + 2):
        for combo in combinations(range(n), size):
            if all(pair in edges for pair in combinations(combo, 2)):
                simplices.append(Simplex(combo))
    simplices.sort(key=lambda s: (s.dim, s.vertices))
    return SimplicialComplex(tuple(s.vertices for s in simplices))


def fraction_random_filtration(
    K: SimplicialComplex, rng: random.Random, value_range: int = 4, unique: bool = True
) -> FiltrationFunction:
    """``random_filtration`` in Fractions throughout: the same draws, the
    repair in dimension order and offsets (rank + 1) / (4 * 2^m) by
    (dimension, vertices) rank, with 2^m > n.  The library works on int
    numerators and builds each Fraction once."""
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
        by_rank = sorted(
            range(n), key=lambda i: (K.simplices[i].dim, K.simplices[i].vertices)
        )
        for rank, i in enumerate(by_rank):
            values[i] += (rank + 1) * delta
    return FiltrationFunction(K, tuple(values))


def _reference_read_value(token) -> tuple:
    """``rational.read_value`` as it was: a sign, then a decimal (an
    integer included) or ``p/q`` read with ``int()``, else ``to_fraction``."""
    if type(token) is str and token.isascii():
        sign = -1 if token.startswith("-") else 1
        body = token[1:] if token.startswith(("+", "-")) else token
        whole, _, decimals = body.partition(".")
        numerator, _, denominator = body.partition("/")
        try:
            if (whole + decimals).isdigit():
                return sign * int(whole + decimals), 10 ** len(decimals)
            if numerator.isdigit() and denominator.isdigit() and int(denominator):
                return sign * int(numerator), int(denominator)
        except ValueError:  # past the interpreter's int digit limit
            pass
    x = to_fraction(token)
    return x.numerator, x.denominator


def _braced(vertices) -> str:
    return "{" + ",".join(map(str, vertices)) + "}"


def reference_parse(text: str, path: "str | None" = None) -> tuple:
    """``instances.parse_instance_text`` as it was: each line split, its
    vertices read one at a time, a simplex checked as the frozen-dataclass
    ``Simplex`` checked it, then duplicates found with a set and missing
    faces by a scan of the vertex tuples.  Returns (vertex tuples, one
    numerator tuple per column, scale), or raises the ParseError the
    library must raise."""
    problems: list = []
    rows = []  # (line_no, sorted vertices, values as (numerator, denominator))
    expected_width = None
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for line_no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            problems.append((line_no, "missing ':' between vertices and values"))
            continue
        left, right = line.split(":", 1)
        try:
            vertices = tuple(int(tok) for tok in left.split())
        except ValueError:
            problems.append((line_no, f"vertices are not integers: {left.strip()!r}"))
            continue
        if not vertices:
            problems.append((line_no, "no vertices before ':'"))
            continue
        value_tokens = right.split()
        if not value_tokens:
            problems.append((line_no, "no values after ':'"))
            continue
        if len(value_tokens) > 2:
            problems.append(
                (line_no, f"expected 1 or 2 values, got {len(value_tokens)}")
            )
            continue
        values = []
        bad = False
        for tok in value_tokens:
            try:
                values.append(_reference_read_value(tok))
            except (ValueError, ZeroDivisionError) as exc:
                why = f": {exc}" if isinstance(exc, ExponentTooLarge) else ""
                problems.append((line_no, f"unreadable value {tok!r}{why}"))
                bad = True
        if bad:
            continue
        if expected_width is None:
            expected_width = len(values)
        elif len(values) != expected_width:
            problems.append(
                (
                    line_no,
                    f"line has {len(values)} values but earlier lines have "
                    f"{expected_width}",
                )
            )
            continue
        negative = [v for v in vertices if v < 0]
        if negative:
            problems.append((line_no, f"negative vertex id {negative[0]}"))
            continue
        if len(set(vertices)) != len(vertices):
            problems.append((line_no, f"duplicate vertex in {vertices}"))
            continue
        rows.append((line_no, tuple(sorted(vertices)), tuple(values)))

    if not rows and not problems:
        problems.append((None, "no simplices in file"))
    if problems:
        raise ParseError(problems, path)

    issues = []
    seen: set = set()
    for line_no, vertices, _ in rows:
        if vertices in seen:
            issues.append((line_no, f"duplicate simplex {_braced(vertices)}"))
        seen.add(vertices)
    for line_no, vertices, _ in rows:
        for i in range(len(vertices) if len(vertices) > 1 else 0):
            face = vertices[:i] + vertices[i + 1:]
            if face not in seen:
                issues.append(
                    (
                        line_no,
                        f"simplex {_braced(vertices)} is missing face {_braced(face)}",
                    )
                )
    if issues:
        raise ParseError(issues, path)

    scale = lcm(*(d for _, _, values in rows for _, d in values))
    columns = tuple(
        tuple(n * (scale // d) for n, d in column)
        for column in zip(*(values for _, _, values in rows))
    )
    return [vertices for _, vertices, _ in rows], columns, scale
