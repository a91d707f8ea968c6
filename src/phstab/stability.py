"""Constructive verification that diagrams move no faster than functions.

The pipeline mirrors the interpolation argument.  Split [0, 1] at the
crossing times of the two functions.  Inside one interval the simplex order
is constant, so one order serves both endpoints and its pivot pairs match
the two endpoint diagrams by identity.  Every simplex is the birth or death
of exactly one pair, so that matching costs exactly the interval's share of
the sup-norm: the certificate checks this partition, not a measured cost.
At a crossing time both adjacent orders give the same value multiset, so a
zero-cost re-identification of the two pair lists exists.  Only the pairs
with a simplex tied there can move, and only at a switch, where a pair
changes, or where two of them have equal points (``_reidentify``); at
every other crossing the map is the identity.  One point map
carried through them is an explicit bijection between the end diagrams,
the only diagrams built.  The interval shares add up to the sup-norm by
construction, so that bijection costs at most the sup-norm, which the
exact bottleneck distance can only undercut.

The order and its reduction are carried from interval to interval rather
than rebuilt (``persistence.Vineyard``), so a verify reduces once, and the
order is checked by kinetic certificates, so a crossing costs its swaps,
not n (``_carried_certificates``).  A run holds the first pair list and
one reduction, O(n^2) bits, and nothing per interval: an interval's
certificate is its breakpoints and its share of the sup-norm, which the
report derives from the schedule when it is read.  Values are compared as
ints over one scale, and a Fraction is built only for a violation
message.  The end diagrams hold the same ints, and the costs of the
composed map and of the exact distance's witness are re-checked on them
(``_bijection_cost``), not with the matcher's own code.  The test suite
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
from functools import cached_property
from heapq import heappop, heappush
from itertools import combinations

from .bottleneck import Matching, _scaled_points, bottleneck_bijection, matching_cost
from .complexes import FiltrationFunction, SimplicialComplex, common_scale
from .errors import InternalProofViolation, InvalidMatching
from .interpolation import (
    CrossingSchedule,
    crossing_times,
    interpolate,
    sup_norm,
    time_key,
    time_key_scale,
)
from .ordering import total_order
from .persistence import Diagram, Vineyard, diagram_from_pivots, pivot_pairs
from .rational import INF, format_value, fraction_string


@dataclass(frozen=True, slots=True)
class IntervalCertificate:
    """One interval's worth of the proof: one simplex order served both
    ends and its pivot pairs partitioned the simplices, so they match the
    two endpoint diagrams by identity at exactly ``share``, the interval's
    share (t_hi - t_lo) * gap of the sup-norm ``gap``.
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
    composed_matching: Matching
    composed_cost: "Fraction | int"
    exact_bottleneck: "Fraction | int"
    bottleneck_matching: Matching
    left_diagram: Diagram
    right_diagram: Diagram

    @cached_property
    def certificates(self) -> tuple[IntervalCertificate, ...]:
        """One certificate per interval of the schedule, built when first
        read.  Each follows from its breakpoints and the sup-norm alone, so
        verify holds none of them."""
        bps, gap = self.schedule.breakpoints(), self.sup_norm_value
        return tuple(IntervalCertificate(lo, hi, gap) for lo, hi in zip(bps, bps[1:]))


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


def _reidentify(
    K: SimplicialComplex,
    names: tuple,
    dims: list,
    left: list,
    right: list,
    values: "dict | list",
    scale: int,
    k: int,
    t: Fraction,
) -> list:
    """Zero-cost re-identification at crossing ``k`` of the pairs with a
    simplex tied at ``t``.

    ``left`` and ``right`` hold those pairs before and after the swaps as
    (birth, death) labels, ordered by birth position; ``names`` maps a
    label to its simplex, ``dims`` to its dimension, and ``values`` maps
    each label of those pairs to f_t as an int over ``scale``
    (``interpolate``).  Both orders serve f_t at the crossing, so both
    lists give one multiset of points.  Equal ints are equal values, so
    points are keyed and compared on ints, and ``scale`` only turns them
    back into values for a message.  Each pair of ``left`` in turn takes
    the first unused pair of ``right`` with the same (dimension, birth
    value, death value).  Returns the map from ``left``'s indices to
    ``right``'s; a pair with no equal partner would falsify
    order-invariance, an InternalProofViolation.
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
    if len(left) != len(right):
        raise InternalProofViolation(
            f"crossing {k} at t = {fraction_string(t)}: {len(left)} pivot "
            f"pairs with a tied simplex before vs {len(right)} after"
        )
    # A pair's point is (dimension, birth value, death value or None).
    unused: dict = {}  # point -> indices of right with it, last first
    for j in range(len(right) - 1, -1, -1):
        b, d = right[j]
        point = dims[b], values[b], None if d is None else values[d]
        bucket = unused.get(point)
        if bucket is None:
            unused[point] = [j]
        else:
            bucket.append(j)
    step = []
    for b, d in left:
        bucket = unused.get((dims[b], values[b], None if d is None else values[d]))
        if bucket:
            step.append(bucket.pop())
            continue
        dth = INF if d is None else Fraction(values[d], scale)
        raise InternalProofViolation(
            f"crossing {k} at t = {fraction_string(t)}: pivot pair "
            f"{_simplex_pair(K, names[b], None if d is None else names[d])} at "
            f"dim {dims[b]} ({format_value(Fraction(values[b], scale))}, "
            f"{format_value(dth)}) has no partner with equal values"
        )
    return step


def _carried_certificates(
    K: SimplicialComplex,
    f0: FiltrationFunction,
    f1: FiltrationFunction,
    schedule: CrossingSchedule,
    order0: tuple,
    sink: "list | None" = None,
) -> tuple:
    """Certify every interval of ``schedule``, carrying one order and its
    reduction.

    Returns the carried point map (point i of the first interval's pair
    list is point ``track[i]`` of the last one's), the first and last pair
    lists and the last order.  The order starts as ``order0``, the
    canonical order of f0 (the order just after t = 0, since f0 is
    untied), and is reduced once, into a ``Vineyard`` whose labels are
    positions in ``order0``.  f0 and f1 are read over one shared scale L
    (``common_scale``), by label, so simplex x has the value line
    ((1 - t) * a[x] + t * b[x]) / L and every comparison below is between
    ints.

    The order is checked by kinetic certificates (Basch, Guibas and
    Hershberger, "Data Structures for Mobile Data", J. Algorithms 1999),
    not by a pass over it per interval.
    An adjacent pair (x, y) of the order whose lines meet later, because
    y ends below x (b[y] < b[x]), holds a certificate keyed by the int key
    of that time (``time_key``) in a heap, not pushed again while it is
    pending.  At each breakpoint hi a certificate before hi is a missed
    crossing, and those at hi are the adjacent pairs tied there, whose
    runs the crossing at hi reverses.  The first interval's pivot pairs
    must partition the simplices, so each interval's matching costs
    exactly its share of the sup-norm (``StabilityReport.certificates``
    derives the shares from the schedule).

    Each crossing is one step.  It compares the pairs of the tied runs
    with the schedule's pairs there, takes the pivot pairs with a tied
    simplex and the pivot row and owner of each tied label, and reverses
    the runs by adjacent transpositions, O(1) bitset operations each.
    Only those pairs can change.  If no tied label's row or owner changed
    and no two of those pairs can have equal points, every point keeps
    its place and nothing more is done.  Otherwise it takes those pairs
    again: they must cover the same simplices before and after, so the
    pairs partition the simplices in every interval, and they alone are
    re-identified by value, which is exact (see ``_reidentify``).  The
    point map is keyed by birth label and follows them.  Either way the
    two outer pairs of each run are certified.  So a crossing costs its
    transpositions, its tied labels and O(log n) per certificate it pops
    or pushes, and the values of its tied pairs only where a pair changes
    or two points may be equal.  Any failure is a bug, so every one is an
    InternalProofViolation naming the interval or crossing, t and the
    simplex pair involved.

    ``sink``, a list, receives ("interval", k, lo, hi, order, pairs) for
    each interval and ("crossing", k, t, left, right, step) for each
    crossing, with the full pair lists and the full map from ``left``'s
    indices to ``right``'s; they are built only when it is given.
    """
    a, b, scale = common_scale(f0, f1)
    num0, num1 = [a[s] for s in order0], [b[s] for s in order0]
    key_scale = time_key_scale(num0, num1)
    vine = Vineyard(K, order0)
    perm, pos, names, low, owner = vine.perm, vine.pos, vine.simplex, vine.low, vine.owner
    n = len(perm)
    dims = [K.simplices[s].dim for s in names]  # label -> dimension
    first = pairs = vine.pairs()
    origin: list = [None] * n  # birth label -> its point in first
    for i, x in enumerate(vine.births()):
        origin[x] = i
    # Why certificates suffice.  If every adjacent pair of the order is in
    # order at t, the whole order is sorted at t, by transitivity.  An
    # adjacent pair (x, y) in order at the lower end lo stays in order up
    # to 1 unless its value gap falls below 0 at t = 1, that is unless
    # b[y] < b[x], and then it falls below 0 just after t* = d0 / D,
    # d0 = a[y] - a[x] >= 0, D = d0 + b[x] - b[y] <= span: its
    # certificate.  Every adjacent pair with b[y] < b[x] has one, so the
    # order stays sorted up to the first certificate, and a certificate
    # before hi is a pair whose values decrease at hi.  A pair tied at hi
    # holds a certificate at hi, unless its lines are identical (tied at
    # both ends, so everywhere); those are flagged when they become
    # adjacent, which is at t = 0 or as the outer pair of a reversed run,
    # and are a violation at the next breakpoint.  Faces need no check of
    # their own: f0 and f1 are monotone (total_order) and untied
    # (crossing_times), so each face is strictly below its cofaces at both
    # ends, hence at every t, and an order whose values do not decrease
    # puts faces first.
    heap: list = []  # (time key, x, y): x just before y, meeting at the key
    flagged: list = []  # adjacent pairs with identical lines
    # live[x] = y: a certificate of (x, y) was pushed, and is pending unless
    # it was popped.  A popped pair swapped at its time, and two lines
    # meet once, so it is never adjacent in its old order again: the mark
    # needs no clearing.  A pending certificate is not pushed again.  A
    # label holds one mark, so a pair that is adjacent again after x was
    # certified with another label is pushed a second time; that entry is a
    # copy of the same time, and the run merge below takes its position
    # twice, without harm.
    live: list = [None] * n

    def certify(x, y):
        if live[x] == y:
            return
        drop = num1[x] - num1[y]
        if drop > 0:
            d0 = num0[y] - num0[x]
            heappush(heap, (time_key(d0, d0 + drop, key_scale), x, y))
            live[x] = y
        elif not drop and num0[x] == num0[y]:
            flagged.append((x, y))

    def links():  # the pivot row and owner of each tied label
        return [(low[x], owner[x]) for x in tied]

    for x, y in zip(perm, perm[1:]):
        certify(x, y)
    bps = schedule.breakpoints()
    for k, (lo, hi) in enumerate(zip(bps, bps[1:])):
        p, q = hi.numerator, hi.denominator
        key_hi = time_key(p, q, key_scale)
        if flagged:
            x, y = flagged[0]
            raise InternalProofViolation(
                f"{_interval(k, lo, hi)}: simplices "
                f"{_simplex_pair(K, names[x], names[y])} are tied at both "
                f"ends, so also at the midpoint t = "
                f"{fraction_string((lo + hi) / 2)}"
            )
        # The sign of (the first certificate's time - hi), positive if
        # there is none.  Certificates with the key of hi share one time,
        # since the keys of crossing times are exact, but hi may be any t:
        # only when the keys are equal are the times cross-multiplied.
        first_vs_hi = 1
        if heap and heap[0][0] <= key_hi:
            key, x, y = heap[0]
            d0 = num0[y] - num0[x]
            first_vs_hi = -1 if key < key_hi else q * d0 - p * (d0 + num1[x] - num1[y])
        if first_vs_hi < 0:
            vx, vy = (Fraction(v, q * scale) for v in interpolate(
                [num0[x], num0[y]], [num1[x], num1[y]], hi
            ))
            raise InternalProofViolation(
                f"{_interval(k, lo, hi)}: carried order fails at t = "
                f"{fraction_string(hi)}: values decrease along the order: "
                f"f({K.simplices[names[x]]}) = {fraction_string(vx)} > "
                f"{fraction_string(vy)} = f({K.simplices[names[y]]})"
            )
        # The certificates at hi are the adjacent pairs tied there.  One can
        # outlive its pair's adjacency, when a reversed run puts z between
        # x and y, but cannot reach its time t* that way: the order is
        # sorted at t*, so z would tie with both there, yet z met one of
        # them to get between them, and distinct lines meet once.  So x
        # and y are adjacent again by t*, and a popped certificate needs
        # no staleness check.
        due = []
        while not first_vs_hi and heap and heap[0][0] == key_hi:
            due.append(pos[heappop(heap)[1]])
        due.sort()
        runs: list = []  # [start, end) slices of perm tied at hi
        for i in due:
            if runs and runs[-1][1] > i:
                runs[-1][1] = i + 2
            else:
                runs.append([i, i + 2])
        if not k:
            _check_partition(K, first, k, lo, hi)
        if sink is not None:
            sink.append(("interval", k, lo, hi, tuple(names[x] for x in perm), pairs))
        if k == len(schedule):
            break
        # The crossing at hi.  The runs are the simplices tied there: the
        # order is sorted at hi, so simplices of equal value are adjacent.
        # The lines of one run meet at one point with distinct slopes
        # (identical lines were flagged above), so its order reverses and
        # every pair in it swaps; those pairs must be the schedule's at hi.
        tied: list = []
        swapped: list = []
        run_of: dict = {}  # tied label -> n + the index of its run
        for r, (start, end) in enumerate(runs):
            run = perm[start:end]
            tied += run
            run_of.update(dict.fromkeys(run, n + r))
            swapped += combinations(sorted([names[x] for x in run]), 2)
        if len(runs) > 1:
            swapped.sort()
        expected = schedule.pairs_at[k]
        if tuple(swapped) != expected:
            unscheduled = sorted(set(swapped) - set(expected))
            if unscheduled:
                what = (
                    f"simplices {_simplex_pair(K, *unscheduled[0])} tie but are "
                    "not scheduled"
                )
            else:
                untied = sorted(set(expected) - set(swapped))
                what = f"scheduled simplices {_simplex_pair(K, *untied[0])} do not tie"
            raise InternalProofViolation(
                f"crossing {k} at t = {fraction_string(hi)}: {what}"
            )
        # The pivot pairs with a tied simplex, as (birth, death) labels in
        # the order of their births, before the runs reverse.  Tied
        # simplices are never face and coface (f_t is strictly monotone),
        # so each run reverses by adjacent transpositions.
        births = {x if low[x] is None else low[x] for x in tied}
        left = [(x, owner[x]) for x in sorted(births, key=pos.__getitem__)]
        held = links()
        for start, end in runs:
            vine.reverse(start, end)
        # A pair changes only at a switch (Cohen-Steiner, Edelsbrunner and
        # Morozov, SoCG 2006), and most crossings have none.  If the pivot
        # row and owner of every tied label are unchanged, every pair with
        # a tied simplex keeps both its simplices, so its point at hi is
        # unchanged, and so is the cover they make.  The bucket rule of
        # _reidentify then sends each of those pairs to itself, unless two
        # of them have equal points, which it may cross.  Equal points need
        # no values.  The runs are the classes of simplices of equal value
        # at hi (the order is sorted there), and an untied simplex has a
        # value of its own.  So two distinct pairs have equal points only
        # if they have one dimension, their births lie in one run, and
        # their deaths are both essential or lie in one run (an untied
        # death is one pair's alone).  Each pair with a tied birth is keyed
        # by (dimension, run of its birth, run of its death, or its death
        # label if that is untied, or None), and a changed label or a
        # repeated key sends the crossing through the full step below.
        born = [x for x in tied if low[x] is None]
        points = {(dims[x], run_of[x], run_of.get(owner[x], owner[x])) for x in born}
        step: list = []  # left's indices to right's; empty if none moves
        if held != links() or len(points) != len(born):
            births = {x if low[x] is None else low[x] for x in tied}
            right = [(x, owner[x]) for x in sorted(births, key=pos.__getitem__)]
            # Those pairs must use the same simplices, each exactly once,
            # before and after.  Every other pair is unchanged, so the
            # pairs still partition the simplices, as checked in full for
            # the first interval.
            was = [x for pair in left for x in pair if x is not None]
            now = [x for pair in right for x in pair if x is not None]
            if not (len(was) == len(now) == len(set(now)) and set(was) == set(now)):
                for x in sorted(set(was) | set(now)):
                    if was.count(x) != 1 or now.count(x) != 1:
                        raise InternalProofViolation(
                            f"crossing {k} at t = {fraction_string(hi)}: simplex "
                            f"{{{K.simplices[names[x]]}}} is a coordinate of "
                            f"{was.count(x)} pivot pairs with a tied simplex "
                            f"before the swaps and of {now.count(x)} after"
                        )
            values = dict(zip(
                was, interpolate([num0[x] for x in was], [num1[x] for x in was], hi)
            ))
            step = _reidentify(K, names, dims, left, right, values, q * scale, k, hi)
            for i, j in zip([origin[x] for x, _ in left], step):
                origin[right[j][0]] = i
        # A reversed run's lines met at hi with b decreasing along it, each
        # adjacent pair having held a certificate there, so now b increases
        # along it and its inner pairs never meet again.  Only the two
        # outer pairs are new.
        for start, end in runs:
            if start:
                certify(perm[start - 1], perm[start])
            if end < n:
                certify(perm[end - 1], perm[end])
        if sink is not None:
            before, pairs = pairs, vine.pairs()
            where = {pv.birth: j for j, pv in enumerate(pairs)}
            to = {names[left[i][0]]: names[right[j][0]] for i, j in enumerate(step)}
            full = [where[to.get(pv.birth, pv.birth)] for pv in before]
            sink.append(("crossing", k, hi, before, pairs, full))
    track: list = [None] * len(first)
    for j, x in enumerate(vine.births()):
        track[origin[x]] = j
    return track, first, vine.pairs(), tuple(names[x] for x in perm)


def _bijection_cost(D0: Diagram, D1: Diagram, m: Matching, what: str):
    """The cost of a matching the library built itself, on the diagrams'
    ints (``matching_cost``), so one that is not a per-dimension bijection
    is a bug."""
    try:
        return matching_cost(D0, D1, m)
    except InvalidMatching as exc:
        raise InternalProofViolation(f"{what} is not a bijection: {exc}") from None


def _check_witness(
    K: SimplicialComplex, D0: Diagram, D1: Diagram, witness: Matching, exact
) -> None:
    """Re-check that ``witness`` is a bijection costing ``exact``.

    The matcher searches on scaled ints; this O(n) pass over the same ints,
    with code of its own, confirms its answer.  The points, in Fractions,
    are built only to name the costliest pair in a violation message.
    """
    cost = _bijection_cost(D0, D1, witness, "the exact bottleneck witness")
    if cost != exact:
        _, pts0, pts1 = _scaled_points(D0, D1)

        def int_cost(ij):  # matching_cost's rule for a matched pair
            i, j = ij
            if (D0.deaths[i] is None) != (D1.deaths[j] is None):
                return INF
            (b0, d0), (b1, d1) = pts0[i], pts1[j]
            return max(abs(b0 - b1), abs(d0 - d1))

        i, j = max(witness.pairs, key=int_cost)
        p, q = D0.points[i], D1.points[j]
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
    track, first, last, order = _carried_certificates(K, f0, f1, schedule, order0)
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
        composed_matching=composed,
        composed_cost=composed_cost,
        exact_bottleneck=exact,
        bottleneck_matching=witness,
        left_diagram=D0,
        right_diagram=D1,
    )
