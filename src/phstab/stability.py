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
pairs again, so a certificate keeps only its interval, and a run holds the
first pair list and one reduction, O(n^2) bits, at any time.

The order and its reduction are carried from interval to interval rather
than rebuilt, as in the vineyards of Cohen-Steiner, Edelsbrunner and
Morozov (SoCG 2006): at a crossing only the simplices tied there change
places, their run in the order reverses, and the reduction follows it
with O(1) bitset operations per adjacent transposition
(``persistence.Vineyard``), so a verify reduces once.  Each breakpoint's
values are computed once and one O(n) pass over the adjacent pairs checks
the order there; the rest of a crossing costs its transpositions and the
pairs with a tied simplex.  Only those pairs can change, since every pair
a transposition changes holds one of its two simplices, so only they are
re-identified and checked.  That is exact: a pair with no tied simplex
has a point no other pair of either list shares, so the full
re-identification maps it to itself.  The values are ints: f0 and f1 are
put over one common denominator L once per run, and f_t at a breakpoint
t = p/q is one int per simplex over q * L.  Only values at the same t are
compared, so the order checks and the re-identification keys run on ints,
and a Fraction is built only for a violation message.  The test suite
keeps a reference that measures each interval on its two diagrams and
composes the whole chain of matchings; the order and pairs of each
interval, as reported to a sink the tests attach, and the carried point
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
from .persistence import Diagram, Vineyard, diagram_from_pivots, pivot_pairs
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
    share (t_hi - t_lo) * gap of the sup-norm ``gap``.  Both were checked
    and then dropped: only the re-identification at the next crossing
    reads them.
    """

    t_lo: Fraction
    t_hi: Fraction
    gap: Fraction

    @property
    def share(self) -> Fraction:
        return (self.t_hi - self.t_lo) * self.gap


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
    K: SimplicialComplex, vine: Vineyard, runs: list, expected: tuple, k: int, t: Fraction
) -> None:
    """Carry the order and reduction of ``vine`` across crossing ``k`` at ``t``.

    ``runs`` holds the [start, end) slices of ``vine.perm`` tied at ``t``,
    as recorded by the scan of the interval ending there.  The lines of one
    run meet at one point with distinct slopes (equal slopes would mean a
    tie at the lower end too, which that scan rejects), so their order
    simply reverses.  Every pair inside a run swaps, and those pairs must
    be exactly ``expected``, the schedule's pairs at ``t``.  Tied simplices
    are never face and coface (f_t is strictly monotone), so each run
    reverses by adjacent transpositions.
    """
    swapped = []
    for start, end in runs:
        run = [vine.simplex[x] for x in vine.perm[start:end]]
        swapped.extend((min(a, b), max(a, b)) for a, b in combinations(run, 2))
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
    for start, end in runs:
        vine.reverse(start, end)


def _pairs_with(vine: Vineyard, labels: list) -> list:
    """The pivot pairs of ``vine`` with a simplex in ``labels``, as
    (birth, death) labels, death None for an essential class, in the order
    of their birth positions."""
    low, owner = vine.low, vine.owner
    births = {x if low[x] is None else low[x] for x in labels}
    return [(b, owner[b]) for b in sorted(births, key=vine.pos.__getitem__)]


def _check_cover(
    K: SimplicialComplex, names: tuple, before: list, after: list, k: int, t: Fraction
) -> None:
    """The pairs with a tied simplex must use the same simplices, each
    exactly once, before and after the transpositions at crossing ``k``.
    Every other pair is unchanged, so the pairs still partition the
    simplices, as checked in full for the first interval."""
    was = [x for pair in before for x in pair if x is not None]
    now = [x for pair in after for x in pair if x is not None]
    if len(was) == len(now) == len(set(now)) and set(was) == set(now):
        return
    for x in sorted(set(was) | set(now)):
        if was.count(x) != 1 or now.count(x) != 1:
            raise InternalProofViolation(
                f"crossing {k} at t = {fraction_string(t)}: simplex "
                f"{{{K.simplices[names[x]]}}} is a coordinate of {was.count(x)} "
                f"pivot pairs with a tied simplex before the swaps and of "
                f"{now.count(x)} after"
            )


def _reidentify(
    K: SimplicialComplex,
    names: tuple,
    left: list,
    right: list,
    values: list,
    scale: int,
    k: int,
    t: Fraction,
) -> list:
    """Zero-cost re-identification at crossing ``k`` of the pairs with a
    simplex tied at ``t``.

    ``left`` and ``right`` hold those pairs before and after the swaps as
    (birth, death) labels, ordered by birth position; ``names`` maps a
    label to its simplex and ``values`` holds f_t by label as ints over
    ``scale`` (``interpolate``).  Both orders serve f_t at the crossing,
    so both lists give one multiset of points.  Equal ints are equal
    values, so points are keyed and compared on ints, and ``scale`` only
    turns them back into values for a message.  Each pair of ``left`` in
    turn takes the first unused pair of ``right`` with the same
    (dimension, birth value, death value).  Returns the map from
    ``left``'s indices to ``right``'s; a pair with no equal partner would
    falsify order-invariance, an InternalProofViolation.
    """
    # This is the map that puts every pair of the two full lists into a
    # bucket keyed by its point.  A simplex that is not tied has a value no
    # other simplex has at t.  So the point of a pair with an untied birth
    # and death can equal only the point of a pair with the same birth and
    # the same death simplex (or both deaths infinite): itself, unchanged
    # by the swaps.  A point equal to one with a tied birth has a tied
    # birth too (the same simplex or one of equal value), and a point equal
    # to one with an untied birth and a tied death has the same birth and a
    # death of equal value, so a tied one.  So the buckets of the pairs
    # with a tied simplex hold exactly these pairs, in the same order.
    def point(pair):
        birth, death = pair
        dth = values[death] if death is not None else None
        return K.simplices[names[birth]].dim, values[birth], dth

    if len(left) != len(right):
        raise InternalProofViolation(
            f"crossing {k} at t = {fraction_string(t)}: {len(left)} pivot "
            f"pairs with a tied simplex before vs {len(right)} after"
        )
    unused: dict = {}  # point -> indices of right with it, last first
    for j in range(len(right) - 1, -1, -1):
        unused.setdefault(point(right[j]), []).append(j)
    step = []
    for p in left:
        bucket = unused.get(point(p))
        if bucket:
            step.append(bucket.pop())
            continue
        d, b, dth = point(p)
        dth = INF if dth is None else Fraction(dth, scale)
        death = None if p[1] is None else names[p[1]]
        raise InternalProofViolation(
            f"crossing {k} at t = {fraction_string(t)}: pivot pair "
            f"{_simplex_pair(K, names[p[0]], death)} at dim {d} "
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
    sink: "list | None" = None,
) -> tuple:
    """Certify every interval of ``schedule``, carrying one order and its
    reduction.

    Returns the certificates, the carried point map (point i of the first
    interval's pair list is point ``track[i]`` of the last one's), the
    first and last pair lists and the last order.  The order starts as
    ``order0``, the canonical order of f0 (the order just after t = 0,
    since f0 is untied), and is reduced once, into a ``Vineyard`` whose
    labels are positions in ``order0``.  f0 and f1 are put over one common
    denominator L once, by label; f_t at each breakpoint t = p/q is a list
    of ints over q * L (``interpolate``), so every comparison below is
    between ints over one denominator.

    Per interval, one O(n) pass over the adjacent pairs checks the order at
    the upper end and records the runs tied there.  The first interval's
    pivot pairs must partition the simplices, so its certificate costs
    exactly its share of ``gap``.  At each crossing ``_reverse_tied_runs``
    checks the runs against the schedule and reverses them by adjacent
    transpositions, O(1) bitset operations each.  Only the pairs with a
    tied simplex can change: they must cover the same simplices before and
    after, so the pairs partition the simplices in every interval, and
    they alone are re-identified by value, which is exact (see
    ``_reidentify``).  The point map is keyed by birth simplex and follows
    them.  So a crossing costs its transpositions and its tied pairs on
    top of the pass.  Any failure is a bug, so every one is an
    InternalProofViolation naming the interval or crossing, t and the
    simplex pair involved.

    ``sink``, a list, receives ("interval", k, lo, hi, order, pairs) for
    each interval and ("crossing", k, t, left, right, step) for each
    crossing, with the full pair lists and the full map from ``left``'s
    indices to ``right``'s; they are built only when it is given.
    """
    scale = common_denominator(f0.values, f1.values)
    num0, num1 = common_numerators(
        [f0.values[s] for s in order0], [f1.values[s] for s in order0], scale=scale
    )
    vine = Vineyard(K, order0)
    perm, names = vine.perm, vine.simplex
    first = pairs = vine.pairs()
    origin: list = [None] * len(perm)  # birth label -> its point in first
    for i, x in enumerate(vine.births()):
        origin[x] = i
    bps = schedule.breakpoints()
    certificates: list = []
    v_lo = num0  # f_0 = f0, over 1 * scale
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
                    f"f({K.simplices[names[a]]}) = {fraction_string(x)} > "
                    f"{fraction_string(y)} = f({K.simplices[names[b]]})"
                )
            if v_lo[a] == v_lo[b]:
                raise InternalProofViolation(
                    f"{_interval(k, lo, hi)}: simplices "
                    f"{_simplex_pair(K, names[a], names[b])} are tied at both "
                    f"ends, so also at the midpoint t = "
                    f"{fraction_string((lo + hi) / 2)}"
                )
            if runs and runs[-1][1] == i + 1:
                runs[-1][1] = i + 2
            else:
                runs.append([i, i + 2])
        if not k:
            _check_partition(K, first, k, lo, hi)
        certificates.append(IntervalCertificate(lo, hi, gap))
        if sink is not None:
            sink.append(("interval", k, lo, hi, tuple(names[x] for x in perm), pairs))
        if k < len(schedule):
            # The runs are the simplices tied at hi: the order is a
            # permutation and its values at hi do not decrease, so
            # simplices of equal value there are adjacent.
            tied = [x for start, end in runs for x in perm[start:end]]
            before = _pairs_with(vine, tied)
            _reverse_tied_runs(K, vine, runs, schedule.pairs_at[k], k, hi)
            after = _pairs_with(vine, tied)
            _check_cover(K, names, before, after, k, hi)
            step = _reidentify(K, names, before, after, v_hi, s_hi, k, hi)
            moved = [origin[birth] for birth, _ in before]
            for i, j in zip(moved, step):
                origin[after[j][0]] = i
            if sink is not None:
                left, pairs = pairs, vine.pairs()
                where = {p.birth: j for j, p in enumerate(pairs)}
                to = {names[before[i][0]]: names[after[j][0]] for i, j in enumerate(step)}
                full = [where[to.get(p.birth, p.birth)] for p in left]
                sink.append(("crossing", k, hi, left, pairs, full))
        v_lo = v_hi
    track: list = [None] * len(first)
    for j, x in enumerate(vine.births()):
        track[origin[x]] = j
    return certificates, track, first, vine.pairs(), tuple(names[x] for x in perm)


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
    # the canonical order of f1 (both untied), and the pairs carried with
    # it must be that order's pairs reduced from scratch, so the first and
    # last pair lists are the canonical pairs of f0 and f1.
    if order != order1:
        raise InternalProofViolation(
            "the order carried to t = 1 is not the canonical order of f1"
        )
    if last != pivot_pairs(K, order1):
        raise InternalProofViolation(
            "the pivot pairs carried to t = 1 are not those of the canonical "
            "order of f1"
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
    # The composed map is a bijection of that cost, so the matcher needs
    # no edge above it, and refuses a distance above it.
    exact, witness = bottleneck_bijection(D0, D1, bound=composed_cost)
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
