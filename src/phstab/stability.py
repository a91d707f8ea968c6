"""Constructive verification that diagrams move no faster than functions.

The pipeline mirrors the interpolation argument.  Split [0, 1] at the
crossing times of the two functions.  Inside one interval the simplex order
is constant, so one order serves both endpoints and its pivot pairs match
the two endpoint diagrams by identity.  Every simplex is the birth or death
of exactly one pair, so that matching costs exactly the interval's share of
the sup-norm: the certificate checks this partition, not a measured cost.
At a crossing time both adjacent orders give the same value multiset, so a
zero-cost re-identification of the two pair lists exists: each point takes
the next unused equal point of the other list.  Only a simplex tied at the
crossing shares its value with another, so that search is local: a pair
with no tied simplex can only equal the pair with its own birth and death
simplices, and only pairs with a tied one are matched by value.  One
point map carried through them is an explicit bijection between the end
diagrams, the only diagrams built.  The interval shares add up to the
sup-norm by construction, so that bijection costs at most the sup-norm,
which the exact bottleneck distance can only undercut.  Once the next
crossing has re-identified an interval's pairs nothing reads its order or
pairs again, so a certificate keeps only its interval and share, and at
most three pair lists, O(n) each, are held at any time.

The order is carried from interval to interval rather than rebuilt, as in
the vineyard picture of Cohen-Steiner, Edelsbrunner and Morozov: at a
crossing only the simplices tied there change places, and their run in the
order reverses.  Each breakpoint's values are computed once, and each
interval is checked in O(n) plus one reduction.  The values are ints: f0
and f1 are put over one common denominator L once per run, and f_t at a
breakpoint t = p/q is one int per simplex over q * L.  Only values at the
same t are compared, so the order checks and the re-identification keys
run on ints, and a Fraction is built only for a violation message.  The
test suite keeps a reference that measures each interval on its two
diagrams and composes the whole chain of matchings; the order and pairs
each interval reduces, as recorded by the tests, and the carried point
map must equal it.

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
from .rational import (
    INF,
    common_denominator,
    common_numerators,
    format_value,
    fraction_string,
)


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


def _interval(k: int, lo: Fraction, hi: Fraction) -> str:
    """Name interval ``k`` for a message; built only when one is raised."""
    return f"interval {k} [{fraction_string(lo)}, {fraction_string(hi)}]"


def _check_partition(
    K: SimplicialComplex, pairs: tuple, k: int, lo: Fraction, hi: Fraction
) -> None:
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
                f"{_interval(k, lo, hi)}: simplex {{{K.simplices[s]}}} is a "
                f"coordinate of {count} pivot pairs"
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
    K: SimplicialComplex,
    left: tuple,
    right: tuple,
    values: list,
    scale: int,
    tied: set,
    k: int,
    t: Fraction,
) -> list:
    """Zero-cost re-identification of two pair lists at crossing ``k``.

    Both orders serve f_t at the crossing, so both lists give one diagram.
    ``values`` holds f_t as ints over ``scale`` (``interpolate``): equal
    ints are equal values, so points are keyed and compared on ints, and
    ``scale`` only turns them back into values for a message.  Equal
    points are matched in list order, by birth position: each pair of
    ``left`` in turn takes the first unused pair of ``right`` with the same
    (dimension, birth value, death value).
    ``tied`` holds the simplices tied with another at ``t``.  Only pairs
    with a tied birth or death simplex go into buckets keyed by their
    point; every other pair of ``left`` maps to the pair of ``right`` with
    its birth simplex, which must have its death simplex too.  Returns the
    map from ``left``'s pair indices to ``right``'s; a pair with no equal
    partner would falsify order-invariance, an InternalProofViolation.
    """
    # This is exactly the map that puts every pair in a bucket.  A simplex
    # outside ``tied`` has a value no other simplex has at t.  So the point
    # of a pair with an untied birth and death can equal only the point of
    # a pair with the same birth simplex and the same death simplex (or
    # both deaths infinite), and no other pair of its list draws from that
    # bucket: the pair found by birth is its one partner, if any.  A point
    # equal to one with a tied birth has a tied birth too (the same simplex
    # or one of equal value), and a point equal to one with an untied birth
    # and a tied death has the same birth and a death of equal value, so a
    # tied one.  So the buckets of pairs with a tied simplex hold, and are
    # drawn from by, exactly the pairs they would hold if every pair went
    # into a bucket, in the same order.
    def point(pv):
        death = values[pv.death] if pv.death is not None else None
        return K.simplices[pv.birth].dim, values[pv.birth], death

    if len(left) != len(right):
        raise InternalProofViolation(
            f"crossing {k} at t = {fraction_string(t)}: {len(left)} pivot "
            f"pairs before vs {len(right)} after"
        )
    unused: dict = {}  # point -> indices of right with it, last first
    by_birth: dict = {}  # birth simplex -> index of right, no simplex tied
    for j in range(len(right) - 1, -1, -1):
        pv = right[j]
        if pv.birth in tied or pv.death in tied:
            unused.setdefault(point(pv), []).append(j)
        else:
            by_birth[pv.birth] = j
    step = []
    for p in left:
        if p.birth in tied or p.death in tied:
            bucket = unused.get(point(p))
            if bucket:
                step.append(bucket.pop())
                continue
        else:
            j = by_birth.get(p.birth)
            if j is not None and right[j].death == p.death:
                step.append(j)
                continue
        d, b, dth = point(p)
        dth = INF if dth is None else Fraction(dth, scale)
        raise InternalProofViolation(
            f"crossing {k} at t = {fraction_string(t)}: pivot pair "
            f"{_simplex_pair(K, p.birth, p.death)} at dim {d} "
            f"({format_value(Fraction(b, scale))}, {format_value(dth)}) has "
            "no partner with equal values"
        )
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
    f0 and f1 are put over one common denominator L once; f_t at each
    breakpoint t = p/q is a list of ints over q * L (``interpolate``), so
    every comparison below is between ints over one denominator.
    Per interval, in O(n) besides the one reduction: one pass over the
    adjacent pairs checks the order at the upper end and records the runs
    tied there, and the pivot pairs must partition the simplices, so the
    certificate costs exactly its share of ``gap``; a carried order that
    lost or repeated a simplex fails that check too.  Each crossing
    re-identifies the two pair lists, by value only where a simplex of the
    pair is in a tied run, and the point map follows.  Any
    failure is a bug, so every one is an InternalProofViolation naming the
    interval or crossing, t and the simplex pair involved.
    """
    scale = common_denominator(f0.values, f1.values)
    num0, num1 = common_numerators(f0.values, f1.values, scale=scale)
    bps = schedule.breakpoints()
    perm = list(order0)
    certificates: list = []
    v_lo, s_lo = num0, scale  # f_0 = f0, over 1 * scale
    for k, (lo, hi) in enumerate(zip(bps, bps[1:])):
        v_hi, s_hi = interpolate(num0, num1, hi), hi.denominator * scale
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
                x, y = Fraction(x, s_hi), Fraction(y, s_hi)
                raise InternalProofViolation(
                    f"{_interval(k, lo, hi)}: carried order fails at t = "
                    f"{fraction_string(hi)}: values decrease along the order: "
                    f"f({K.simplices[a]}) = {fraction_string(x)} > "
                    f"{fraction_string(y)} = f({K.simplices[b]})"
                )
            if v_lo[a] == v_lo[b]:
                raise InternalProofViolation(
                    f"{_interval(k, lo, hi)}: simplices "
                    f"{_simplex_pair(K, a, b)} are tied at both ends, so also "
                    f"at the midpoint t = {fraction_string((lo + hi) / 2)}"
                )
            if runs and runs[-1][1] == i + 1:
                runs[-1][1] = i + 2
            else:
                runs.append([i, i + 2])
        order = tuple(perm)
        pairs = pivot_pairs(K, order)
        _check_partition(K, pairs, k, lo, hi)
        if k:
            step = _reidentify(K, last, pairs, v_lo, s_lo, tied, k - 1, lo)
            track = [step[j] for j in track]
        else:
            first, track = pairs, list(range(len(pairs)))
        certificates.append(IntervalCertificate(lo, hi, (hi - lo) * gap))
        # The runs are the simplices tied at hi: this order passed the
        # partition check, so it is a permutation, and its values at hi do
        # not decrease, so simplices of equal value there are adjacent.
        tied = {s for start, end in runs for s in perm[start:end]}
        if k < len(schedule):
            _reverse_tied_runs(K, perm, runs, schedule.pairs_at[k], k, hi)
        last, v_lo, s_lo = pairs, v_hi, s_hi
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
