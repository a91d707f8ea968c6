"""Constructive verification that diagrams move no faster than functions.

The pipeline mirrors the interpolation argument.  Split [0, 1] at the
crossing times of the two functions.  Inside one interval the simplex order
is constant, so one order serves both endpoints and its pivot pairs match
the two endpoint diagrams by identity.  Every simplex is the birth or death
of exactly one pair, so that matching costs exactly the interval's share of
the sup-norm: the certificate checks this partition, not a measured cost.
At a crossing time both adjacent orders give the same value multiset, so a
zero-cost re-identification of the two pair lists exists: each point takes
the next unused equal point of the other list.  One point map carried
through them is an explicit bijection between the end diagrams, the only
diagrams built.  The interval shares add up to the sup-norm by
construction, so that bijection costs at most the sup-norm, which the
exact bottleneck distance can only undercut.  Once the next crossing has
re-identified an interval's pairs nothing reads its order or pairs again,
so a certificate keeps only its interval and share, and at most three pair
lists, O(n) each, are held at any time.

The order is carried from interval to interval rather than rebuilt, as in
the vineyard picture of Cohen-Steiner, Edelsbrunner and Morozov: at a
crossing only the simplices tied there change places, and their run in the
order reverses.  Each breakpoint's values are computed once, and each
interval is checked in O(n) plus one reduction.  The test suite keeps a
reference that measures each interval on its two diagrams and composes
the whole chain of matchings; the order and pairs each interval reduces,
as recorded by the tests, and the carried point map must equal it.

Every inequality used along the way is checked with exact rational
arithmetic; a failure raises InternalProofViolation, because no input can
make the mathematics fail, only an implementation bug can.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .bottleneck import Matching, bottleneck_bijection, matching_cost, pair_cost
from .complexes import FiltrationFunction, SimplicialComplex
from .errors import InternalProofViolation, InvalidMatching
from .interpolation import CrossingSchedule, crossing_times, interpolate, sup_norm
from .ordering import total_order
from .persistence import Diagram, diagram_from_pivots, pivot_pairs
from .rational import INF, format_value, fraction_string


@dataclass(frozen=True)
class IntervalCertificate:
    """One interval's worth of the proof: one simplex order served both
    ends and its pivot pairs partitioned the simplices, so they match the
    two endpoint diagrams by identity at exactly ``share``, the interval's
    share of the sup-norm.  Both were checked and then dropped: only the
    re-identification at the next crossing reads them.
    """

    t_lo: Fraction
    t_hi: Fraction
    share: Fraction


@dataclass(frozen=True)
class StabilityReport:
    sup_norm_value: Fraction
    schedule: CrossingSchedule
    certificates: tuple[IntervalCertificate, ...]
    composed_matching: Matching
    composed_cost: "Fraction | int"
    exact_bottleneck: "Fraction | int"
    bottleneck_matching: Matching
    left_diagram: Diagram
    right_diagram: Diagram


def _simplex_pair(K: SimplicialComplex, i: int, j: "int | None") -> str:
    """Render two simplex positions (or a pivot pair) for a message."""
    second = "-" if j is None else f"{{{K.simplices[j]}}}"
    return f"({{{K.simplices[i]}}}, {second})"


def _check_partition(K: SimplicialComplex, pairs: tuple, where: str) -> None:
    """Every simplex must be the birth or death of exactly one pivot pair:
    that is what makes the pivot-identity matching cost exactly the
    interval's share of the sup-norm, so it is checked instead of the cost."""
    uses = [0] * len(K)
    for pv in pairs:
        uses[pv.birth] += 1
        if pv.death is not None:
            uses[pv.death] += 1
    for s, count in enumerate(uses):
        if count != 1:
            raise InternalProofViolation(
                f"{where}: simplex {{{K.simplices[s]}}} is a coordinate of "
                f"{count} pivot pairs"
            )


def _reverse_tied_runs(
    K: SimplicialComplex, perm: list, runs: list, expected: tuple, k: int, t: Fraction
) -> None:
    """Carry ``perm`` across crossing ``k`` at ``t``, in place.

    ``runs`` holds the [start, end) slices of ``perm`` tied at ``t``, as
    recorded by the scan of the interval ending there.  The lines of one
    run meet at one point with distinct slopes (equal slopes would mean a
    tie at the lower end too, which that scan rejects), so their order
    simply reverses.  Every pair inside a run swaps, and those pairs must
    be exactly ``expected``, the schedule's pairs at ``t``.
    """
    swapped = []
    for start, end in runs:
        run = perm[start:end]
        swapped.extend((min(a, b), max(a, b)) for a, b in combinations(run, 2))
        perm[start:end] = run[::-1]
    swapped.sort()
    if tuple(swapped) != expected:
        unscheduled = sorted(set(swapped) - set(expected))
        untied = sorted(set(expected) - set(swapped))
        if unscheduled:
            what = f"simplices {_simplex_pair(K, *unscheduled[0])} tie but are not scheduled"
        else:
            what = f"scheduled simplices {_simplex_pair(K, *untied[0])} do not tie"
        raise InternalProofViolation(
            f"crossing {k} at t = {fraction_string(t)}: {what}"
        )


def _reidentify(
    K: SimplicialComplex, left: tuple, right: tuple, values: tuple, where: str
) -> list:
    """Zero-cost re-identification of two pair lists at one crossing.

    Both orders serve f at the crossing (``values``), so both lists give
    one diagram.  The pairs of ``right`` go into buckets keyed by
    (dimension, birth value, death value), in list order, and each pair of
    ``left`` in turn takes the first unused index of its bucket, so equal
    points are matched in list order, by birth position.  Returns the map
    from ``left``'s pair indices to ``right``'s; a pair with no equal
    partner would falsify order-invariance, an InternalProofViolation.
    """
    def point(pv):
        death = values[pv.death] if pv.death is not None else INF
        return K.simplices[pv.birth].dim, values[pv.birth], death

    if len(left) != len(right):
        raise InternalProofViolation(
            f"{where}: {len(left)} pivot pairs before vs {len(right)} after"
        )
    unused: dict = {}  # point -> indices of right with it, last first
    for j in range(len(right) - 1, -1, -1):
        unused.setdefault(point(right[j]), []).append(j)
    step = []
    for p in left:
        d, b, dth = key = point(p)
        bucket = unused.get(key)
        if not bucket:
            raise InternalProofViolation(
                f"{where}: pivot pair {_simplex_pair(K, p.birth, p.death)} at "
                f"dim {d} ({format_value(b)}, {format_value(dth)}) has no "
                "partner with equal values"
            )
        step.append(bucket.pop())
    return step


def _carried_certificates(
    K: SimplicialComplex,
    f0: FiltrationFunction,
    f1: FiltrationFunction,
    schedule: CrossingSchedule,
    gap: Fraction,
    order0: tuple,
) -> tuple:
    """Certify every interval of ``schedule``, carrying one simplex order.

    Returns the certificates, the carried point map (point i of the first
    interval's pair list is point ``track[i]`` of the last one's), the
    first and last pair lists and the last order.  Only the current order
    and the previous pair list are kept from one interval to the next.
    f_t is evaluated once per breakpoint.  The order starts as ``order0``,
    the canonical order of f0 (the order just after t = 0, since f0 is
    untied), and ``_reverse_tied_runs`` carries it across each crossing.
    Per interval, in O(n) besides the one reduction: one pass over the
    adjacent pairs checks the order at the upper end and records the runs
    tied there, and the pivot pairs must partition the simplices, so the
    certificate costs exactly its share of ``gap``; a carried order that
    lost or repeated a simplex fails that check too.  Each crossing
    re-identifies the two pair lists and the point map follows.  Any
    failure is a bug, so every one is an InternalProofViolation naming the
    interval or crossing, t and the simplex pair involved.
    """
    bps = schedule.breakpoints()
    perm = list(order0)
    certificates: list = []
    v_lo = f0.values
    for k, (lo, hi) in enumerate(zip(bps, bps[1:])):
        v_hi = interpolate(f0, f1, hi).values
        where = f"interval {k} [{fraction_string(lo)}, {fraction_string(hi)}]"
        # One pass over the adjacent pairs at hi.  Values must not decrease;
        # they hold at lo by construction (only tied runs were reversed), so
        # at every t in between.  A pair tied at hi must not be tied at lo
        # too, so the interior is untied.  The runs tied at hi are recorded
        # for the next crossing.  Faces need no check of their own: f0 and
        # f1 are monotone (total_order) and untied (crossing_times), so each
        # face is strictly below its cofaces at both ends, hence at every t,
        # and an order whose values do not decrease puts faces first.
        runs: list = []  # [start, end) slices of perm tied at hi
        for i, (a, b) in enumerate(zip(perm, perm[1:])):
            x, y = v_hi[a], v_hi[b]
            if x < y:
                continue
            if x > y:
                raise InternalProofViolation(
                    f"{where}: carried order fails at t = {fraction_string(hi)}: "
                    f"values decrease along the order: f({K.simplices[a]}) = "
                    f"{fraction_string(x)} > {fraction_string(y)} = "
                    f"f({K.simplices[b]})"
                )
            if v_lo[a] == v_lo[b]:
                raise InternalProofViolation(
                    f"{where}: simplices {_simplex_pair(K, a, b)} are tied at "
                    f"both ends, so also at the midpoint "
                    f"t = {fraction_string((lo + hi) / 2)}"
                )
            if runs and runs[-1][1] == i + 1:
                runs[-1][1] = i + 2
            else:
                runs.append([i, i + 2])
        order = tuple(perm)
        pairs = pivot_pairs(K, order)
        _check_partition(K, pairs, where)
        if k:
            crossing = f"crossing {k - 1} at t = {fraction_string(lo)}"
            step = _reidentify(K, last, pairs, v_lo, crossing)
            track = [step[j] for j in track]
        else:
            first, track = pairs, list(range(len(pairs)))
        certificates.append(IntervalCertificate(lo, hi, (hi - lo) * gap))
        if k < len(schedule):
            _reverse_tied_runs(K, perm, runs, schedule.pairs_at[k], k, hi)
        last, v_lo = pairs, v_hi
    return certificates, track, first, last, order


def _bijection_cost(D0: Diagram, D1: Diagram, m: Matching, what: str):
    """``matching_cost`` of a matching the library built itself, so one
    that is not a per-dimension bijection is a bug."""
    try:
        return matching_cost(D0, D1, m)
    except InvalidMatching as exc:
        raise InternalProofViolation(f"{what} is not a bijection: {exc}") from None


def _check_witness(
    K: SimplicialComplex, D0: Diagram, D1: Diagram, witness: Matching, exact
) -> None:
    """Re-check in rationals that ``witness`` is a bijection costing ``exact``.

    The matcher compares scaled ints; this O(n) pass with the Fraction pair
    costs confirms its answer.
    """
    cost = _bijection_cost(D0, D1, witness, "the exact bottleneck witness")
    if cost != exact:
        p, q = max(
            ((D0.points[i], D1.points[j]) for i, j in witness.pairs),
            key=lambda pq: pair_cost(*pq),
        )
        raise InternalProofViolation(
            f"exact bottleneck {fraction_string(exact)} != its witness's cost "
            f"{fraction_string(cost)}; costliest "
            f"pair {p} -> {q}, pivot pairs "
            f"{_simplex_pair(K, p.pair.birth, p.pair.death)} -> "
            f"{_simplex_pair(K, q.pair.birth, q.pair.death)}"
        )


def verify_stability(
    K: SimplicialComplex, f0: FiltrationFunction, f1: FiltrationFunction
) -> StabilityReport:
    """Run the whole pipeline and certify the stability bound.

    Produces per-interval certificates, the end-to-end bijection carried
    through the zero-cost re-identifications at the crossings, and the
    exact bottleneck distance.  Checked in exact rationals: each interval's
    pivot pairs partition the simplices, exact <= composed <= sup-norm, and
    the exact distance is its witness's cost.
    """
    order0 = total_order(K, f0)  # each validates its function, f0 first
    order1 = total_order(K, f1)
    gap = sup_norm(f0, f1)
    schedule = crossing_times(f0, f1)  # raises NonUniqueValues on any tie
    certificates, track, first, last, order = _carried_certificates(
        K, f0, f1, schedule, gap, order0
    )
    composed = Matching(tuple(enumerate(track)))

    # The carried order starts as the canonical order of f0 and must end as
    # the canonical order of f1 (both untied), so the first and last pair
    # lists are the canonical pairs of f0 and f1.
    if order != order1:
        raise InternalProofViolation(
            "the order carried to t = 1 is not the canonical order of f1"
        )
    D0 = diagram_from_pivots(K, f0, first)
    D1 = diagram_from_pivots(K, f1, last)

    composed_cost = _bijection_cost(D0, D1, composed, "the composed point map")
    # The shares telescope to (1 - 0) * gap, so composing the intervals'
    # matchings costs at most the sup-norm.
    if composed_cost > gap:
        raise InternalProofViolation(
            f"composed cost {fraction_string(composed_cost)} exceeds the "
            f"sup-norm {fraction_string(gap)}"
        )
    exact, witness = bottleneck_bijection(D0, D1)
    _check_witness(K, D0, D1, witness, exact)
    if exact > composed_cost:
        raise InternalProofViolation(
            f"exact bottleneck {fraction_string(exact)} exceeds the composed "
            f"matching cost {fraction_string(composed_cost)}"
        )
    return StabilityReport(
        sup_norm_value=gap,
        schedule=schedule,
        certificates=tuple(certificates),
        composed_matching=composed,
        composed_cost=composed_cost,
        exact_bottleneck=exact,
        bottleneck_matching=witness,
        left_diagram=D0,
        right_diagram=D1,
    )
