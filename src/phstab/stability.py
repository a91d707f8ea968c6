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
changes, or where two of them have equal points, which the classes of
tied simplices tell with no values (``_reidentify``); at every other
crossing the map is the identity.  One point map carried through them is
an explicit bijection between the end diagrams, the only diagrams built.
The interval shares add up to the sup-norm by construction, so that
bijection costs at most the sup-norm, which the exact bottleneck distance
can only undercut.

The order and its reduction are carried from interval to interval rather
than rebuilt (``persistence.Vineyard``), so a verify reduces once, and
the crossing schedule alone drives the sweep, so a crossing costs its
scheduled pairs and swaps, not n (``_carried_certificates``).  The
carried order is dimension-major: each dimension's simplices in the
order of f_t, lower dimensions first.  R = D * V is block-diagonal by
dimension, so the pivot pairs depend only on the order within each
dimension, and a crossing of two simplices of different dimensions is no
swap.  Each scheduled pair must tie at its time with values that differ
at 0, the pairs of one dimension that tie at one value must be a block
of the order, which the crossing reverses, and the schedule must hold as
many pairs as f0 and f1 order differently, so it holds exactly the
crossing pairs (``verify_stability``) and the order is sorted on every
interval.  The pairs carried to t = 1 must be those of f1's canonical
order reduced from scratch, which checks the block-diagonal argument.  A
run holds the first pair list and one reduction, O(n^2) bits, and
nothing per interval: an interval's certificate is its breakpoints and
its share of the sup-norm, which the report derives from the schedule
when it is read.  Values are compared as ints over one scale, and a
Fraction is built only for a violation message.  The end diagrams hold
the same ints, and the costs of the composed map and of the exact
distance's witness are re-checked on them (``_bijection_cost``), not
with the matcher's own code.  The test suite keeps a reference that
measures each interval on its two diagrams and composes the whole chain
of matchings; the order and pairs of each interval, as reported to a
sink the tests attach, and the carried point map must equal it.

Every inequality used along the way is checked with exact rational
arithmetic; a failure raises InternalProofViolation, because no input can
make the mathematics fail, only an implementation bug can.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, compress
from operator import gt

from .bottleneck import Matching, _scaled_points, bottleneck_bijection, matching_cost
from .complexes import FiltrationFunction, SimplicialComplex, common_scale
from .errors import InternalProofViolation, InvalidMatching
from .interpolation import CrossingSchedule, crossing_times, interpolate, sup_norm
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


def _reidentify(left: list, right: list, key, k: int, t: Fraction) -> list:
    """Zero-cost re-identification at crossing ``k`` of the pairs with a
    simplex tied at ``t``.

    ``left`` and ``right`` hold those pairs before and after the swaps as
    (birth, death) labels, ordered by birth position, and ``key`` maps a
    pair to its key at ``t``, equal for two pairs exactly when their
    points are (see ``_carried_certificates``).  Both orders serve f_t at
    the crossing, so both lists give one multiset of points.  Each pair of
    ``left`` in turn takes the first unused pair of ``right`` with its
    key.  Returns the map from ``left``'s indices to ``right``'s, up to the
    first pair with no partner, which the caller raises
    (``_no_partner``).
    """
    if len(left) != len(right):
        raise InternalProofViolation(
            f"crossing {k} at t = {fraction_string(t)}: {len(left)} pivot "
            f"pairs with a tied simplex before vs {len(right)} after"
        )
    unused: dict = {}  # key -> indices of right with it, last first
    for j in range(len(right) - 1, -1, -1):
        unused.setdefault(key(*right[j]), []).append(j)
    step = []
    for b, d in left:
        bucket = unused.get(key(b, d))
        if not bucket:
            break
        step.append(bucket.pop())
    return step


def _no_partner(
    K: SimplicialComplex, f0: FiltrationFunction, f1: FiltrationFunction,
    schedule: CrossingSchedule, k: int, t: Fraction, s: int, e: "int | None",
) -> InternalProofViolation:
    """The violation at crossing ``k`` at ``t`` for pivot pair (s, e),
    which has no partner with its key after the swaps.  It falsifies
    order-invariance or shows a crossing pair the schedule lacks, which is
    named if so (``_missed_crossing``).  f_t is read at s and e only for
    the message."""

    def f_t(x):  # f_t at simplex x, inf at no simplex
        return INF if x is None else (1 - t) * f0.values[x] + t * f1.values[x]

    return _missed_crossing(
        K, f0, f1, schedule,
        f"crossing {k} at t = {fraction_string(t)}: pivot pair "
        f"{_simplex_pair(K, s, e)} at dim {K.dims[s]} ({format_value(f_t(s))}, "
        f"{format_value(f_t(e))}) has no partner with equal values",
    )


def _by_dimension(K: SimplicialComplex, order: tuple) -> tuple:
    """``order`` stably sorted by dimension: each dimension's simplices in
    their order in ``order``, lower dimensions first."""
    return tuple(sorted(order, key=K.dims.__getitem__))


def _decreasing(
    K: SimplicialComplex,
    k: int,
    lo: Fraction,
    hi: Fraction,
    x: int,
    y: int,
    a: list,
    b: list,
    scale: int,
) -> InternalProofViolation:
    """The violation for simplices x and y, x below y just after lo, whose
    values decrease at hi, the upper end of interval ``k``; ``a`` and
    ``b`` are f0 and f1 as ints over ``scale``."""
    vx, vy = interpolate([a[x], a[y]], [b[x], b[y]], hi)
    over = hi.denominator * scale
    return InternalProofViolation(
        f"{_interval(k, lo, hi)}: carried order fails at t = "
        f"{fraction_string(hi)}: values decrease along the order: "
        f"f({K.simplices[x]}) = {fraction_string(Fraction(vx, over))} > "
        f"{fraction_string(Fraction(vy, over))} = f({K.simplices[y]})"
    )


def _schedule_fault(
    K: SimplicialComplex, a: list, b: list, k: int, t: Fraction, expected: tuple
) -> InternalProofViolation:
    """The violation at crossing ``k`` at ``t``, where the scheduled pairs
    ``expected`` failed the check of their ties.

    Built on the error path only, from the values: every pair of distinct
    lines that meet at t ties there.  It names the first tied pair that
    is not scheduled, else the first scheduled pair that does not tie, or
    whose lines are equal at 0 (identical lines tie at every t), whatever
    their dimensions.  Otherwise a scheduled pair is listed twice or out
    of order.
    """
    by_value: dict = {}
    for s, v in enumerate(interpolate(a, b, t)):
        by_value.setdefault(v, []).append(s)
    ties = {
        (i, j)
        for group in by_value.values()
        for i, j in combinations(group, 2)
        if a[i] != a[j]
    }
    unscheduled = sorted(ties.difference(expected))
    untied = sorted(set(expected) - ties)
    if unscheduled:
        pair = _simplex_pair(K, *unscheduled[0])
        what = f"simplices {pair} tie but are not scheduled"
    elif untied:
        i, j = untied[0]
        fails = "are equal at t = 0" if a[i] == a[j] else "do not tie"
        what = f"scheduled simplices {_simplex_pair(K, i, j)} {fails}"
    else:
        twice = next(y for x, y in zip(expected, expected[1:]) if not x < y)
        what = (
            f"scheduled simplices {_simplex_pair(K, *twice)} are listed twice "
            "or out of order"
        )
    return InternalProofViolation(f"crossing {k} at t = {fraction_string(t)}: {what}")


def _inverse(order: tuple) -> list:
    """Where each simplex stands in ``order``, a permutation of them."""
    where = [0] * len(order)
    for i, s in enumerate(order):
        where[s] = i
    return where


def _inversions(order0: tuple, order1: tuple) -> int:
    """How many pairs of simplices ``order0`` and ``order1`` put in
    opposite orders: the inversions of order0's positions in order1
    (Knuth, TAOCP vol. 3, 5.1.1), counted by a natural merge sort (5.2.4)
    in O(n log n).  It starts from the increasing runs and merges them in
    pairs, so two orders that differ in few pairs cost about one pass.
    When two runs merge, each element of the right run is out of order
    with the elements of the left run above it, and only the elements
    below the left run's top and above the right run's first are walked.
    """
    n, rank = len(order1), _inverse(order1)
    ranks = [rank[s] for s in order0]
    cuts = [0, *compress(range(1, n), map(gt, ranks, ranks[1:])), n]
    runs = [ranks[i:j] for i, j in zip(cuts, cuts[1:])]
    count = 0
    while len(runs) > 1:
        merged = []
        for left, right in zip(runs[::2], runs[1::2]):
            m, top = len(left), left[-1]
            i = bisect_left(left, right[0])
            for y in right:
                if y > top:
                    break
                while left[i] < y:
                    i += 1
                count += m - i
            merged.append(sorted(left + right))  # two runs: one linear merge
        runs = merged + runs[len(merged) * 2 :]
    return count


def _missed_crossing(
    K: SimplicialComplex,
    f0: FiltrationFunction,
    f1: FiltrationFunction,
    schedule: CrossingSchedule,
    otherwise: str,
) -> InternalProofViolation:
    """The violation for a schedule that lacks a crossing pair at its own
    time, or ``otherwise`` if it lacks none.  Built on the error path
    only, in O(n^2): the inverted pair that meets first of those the
    schedule lacks is named at its crossing, if its time is scheduled, or
    else as a missed crossing at the upper end of the interval that spans
    it.  The times up to that interval increase, as the sweep checked."""
    a, b, scale = common_scale(f0, f1)
    times = schedule.times
    listed = {(t, pair) for t, pairs in zip(times, schedule.pairs_at) for pair in pairs}
    missed = []
    for i, j in combinations(range(len(a)), 2):
        d0, d1 = a[i] - a[j], b[i] - b[j]
        if d0 * d1 < 0:
            t = Fraction(d0, d0 - d1)
            if (t, (i, j)) not in listed:
                missed.append((t, i, j))
    if not missed:
        return InternalProofViolation(otherwise)
    t, i, j = min(missed)
    k = next((m for m, s in enumerate(times) if s >= t), len(times))
    if k < len(times) and times[k] == t:
        return InternalProofViolation(
            f"crossing {k} at t = {fraction_string(t)}: simplices "
            f"{_simplex_pair(K, i, j)} tie but are not scheduled"
        )
    lo, hi = schedule.breakpoints()[k : k + 2]
    x, y = (i, j) if a[i] < a[j] else (j, i)
    return _decreasing(K, k, lo, hi, x, y, a, b, scale)


def _carried_certificates(
    K: SimplicialComplex,
    f0: FiltrationFunction,
    f1: FiltrationFunction,
    schedule: CrossingSchedule,
    order0: tuple,
    order1: tuple,
    sink: "list | None" = None,
) -> tuple:
    """Certify every interval of ``schedule``, carrying one order and its
    reduction through the schedule's crossings.

    Returns the carried point map (point i of the first interval's pair
    list is point ``track[i]`` of the last one's), the first and last pair
    lists and the last order.  The order is dimension-major: each
    dimension's simplices in the order of f_t, lower dimensions first.
    It starts as ``order0``, the canonical order of f0 (the order just
    after t = 0, since f0 is untied), stably sorted by dimension, and is
    reduced once, into a ``Vineyard`` whose labels are positions in it.
    The first pair list is in the birth order of ``order0`` and the last
    in that of ``order1``, the canonical order of f1, each sorted once;
    the point map is between those lists.  f0 and f1 are read over one
    shared scale L (``common_scale``), by label, so simplex x has the
    value line ((1 - t) * a[x] + t * b[x]) / L and every comparison below
    is between ints.  The first interval's pivot pairs must partition the
    simplices, so each interval's matching costs exactly its share of the
    sup-norm (``StabilityReport.certificates`` derives the shares from the
    schedule).

    The schedule alone drives the sweep: no pass over the order checks it
    per interval.  Each crossing is one step.  It checks every scheduled
    pair there, of one dimension or two: it is listed once, in increasing
    order, its two lines differ at 0 and it ties there.  The pairs of one
    dimension fall into classes of one dimension and one value there, and
    each class must be a block of the carried order, which the step
    reverses; a crossing with no such pair does nothing more.  Otherwise it
    takes the pivot row and owner of each tied label and reverses the
    blocks by adjacent transpositions, O(1) bitset operations each.  Only
    the pairs with a tied simplex can change.  If no tied label's row or
    owner changed and no two of those pairs can have equal points, every
    point keeps its place and nothing more is done.  Otherwise it takes
    those pairs before the swaps, from the snapshot, and after: they must
    cover the same simplices before and after, so the pairs partition the
    simplices in every interval, and they alone are re-identified by
    their classes (see ``_reidentify``).  The point map is keyed by birth
    simplex and follows them.  So a crossing costs its scheduled pairs,
    its transpositions and its tied labels, and a re-identification of its
    tied pairs only where a pair changes or two points may be equal.  That
    the schedule holds every crossing pair is checked once the sweep is
    done, by ``verify_stability``.  Any failure is a bug, so every one is
    an InternalProofViolation naming the interval or crossing, t and the
    simplex pair involved.

    ``sink``, a list, receives ("interval", k, lo, hi, order, pairs) for
    each interval, with the dimension-major order and its pairs in its
    birth order, and ("crossing", k, t, left, right, step) for each
    crossing, with the full pair lists and the full map from ``left``'s
    indices to ``right``'s; they are built only when it is given.
    """
    a, b, _ = common_scale(f0, f1)
    vine = Vineyard(K, _by_dimension(K, order0))
    perm, pos, names, low, owner = vine.perm, vine.pos, vine.simplex, vine.low, vine.owner
    n = len(perm)
    dim_of = K.dims  # complex position -> dimension
    dims = [dim_of[s] for s in names]  # label -> dimension
    label = _inverse(names)  # complex position -> label
    rank = _inverse(order0)  # complex position -> position in order0
    pairs = vine.pairs()
    first = tuple(sorted(pairs, key=lambda pv: rank[pv.birth]))
    origin: list = [None] * n  # birth simplex -> its point in first
    for i, pv in enumerate(first):
        origin[pv.birth] = i
    # Why one order per dimension suffices.  The boundary of a d-simplex
    # holds (d - 1)-simplices only.  The reduction adds column k to column
    # j only when both have the same pivot row, a (d - 1)-simplex, so k is
    # a d-simplex too, and it compares rows only with rows of that
    # dimension: R = D * V and V are block-diagonal by dimension, and the
    # reduction of the d-simplices' columns reads only the order of the
    # d-simplices among themselves and of the (d - 1)-simplices among
    # themselves (Chen and Kerber, "Persistent Homology Computation with a
    # Twist", EuroCG 2011).  So the pivot pairs of two orders that agree
    # within each dimension are the same pairs, listed by another birth
    # order.  In an interval f_t is sorted along each dimension's part of
    # the carried order, which is then f_t's canonical order restricted to
    # that dimension, so the carried pairs are f_t's canonical pairs.  A
    # dimension-major order puts faces first, whatever the values, so it
    # is a filtration order the vineyard can carry, and two simplices of
    # one dimension are never face and coface, so any two adjacent ones may
    # be transposed (Cohen-Steiner, Edelsbrunner and Morozov, SoCG 2006).
    # A crossing of two dimensions changes no part, so no pair: it is no
    # swap, and only its tie is checked.
    #
    # Why the schedule suffices.  Each scheduled pair is checked at its
    # time t: listed once, i < j, in increasing order, at times that
    # increase strictly inside (0, 1), with lines that differ at 0 and meet
    # at t.  Two such lines are ordered one way by f0 and the other by f1,
    # and meet only at t: each scheduled pair is a distinct inversion
    # between order0 and order1, listed at its own time.  verify_stability
    # checks that they are as many as the inversions, so the schedule holds
    # exactly the crossing pairs, each at its own time.  Then, by induction
    # over the intervals, each dimension's part of the order is sorted on
    # every interval.  It is on the first, as order0.  If it is just before
    # a crossing t, f_t is sorted along it, so the simplices of one
    # dimension and one value at t are adjacent; every pair of them is a
    # crossing pair at t, so they are one class, and every class is such a
    # block.  Their lines meet at one point, in the order of decreasing
    # b, so reversing the block sorts it just after t, and nothing else
    # changes order there.  Identical lines tie everywhere, but also at 0,
    # so they are never scheduled and never swap (crossing_times refuses
    # such ties on real input).  A class that is not a block means a
    # crossing pair the schedule lacks, raised as such
    # (``_missed_crossing``) before the vineyard transposes simplices that
    # do not tie.
    #
    # Why the classes tell equal points.  Two pairs with equal points at a
    # crossing have one dimension.  The classes are the simplices of one
    # dimension and one value there, and an untied simplex has a value no
    # other simplex of its dimension has and is one pair's alone.  So two
    # distinct pairs have equal points exactly when they have one
    # dimension, their births lie in one class, and their deaths are both
    # essential or lie in one class.  A pair's key (``point``) is its
    # dimension and the class, or else the label, of its birth and of its
    # death: equal keys are equal points, and a pair with no tied simplex
    # keeps its place.  Until the sweep is done the schedule may lack a
    # tie, which splits equal points; a pair left with no partner is raised
    # through ``_missed_crossing``, which names it.

    def links():  # the pivot row and owner of each tied label
        return [(low[x], owner[x]) for x in tied]

    def point(x, y):  # the key of pair (x, y) at the current crossing
        return dims[x], run_of.get(x, x), run_of.get(y, y)

    bps, pairs_at = schedule.breakpoints(), schedule.pairs_at
    crossings = len(bps) - 2
    for k, (lo, hi) in enumerate(zip(bps, bps[1:])):
        p, q = hi.numerator, hi.denominator
        # Breakpoints that increase strictly put every crossing time
        # inside (0, 1), each in one place.
        if p * lo.denominator <= lo.numerator * q:
            raise InternalProofViolation(
                f"{_interval(k, lo, hi)}: the crossing times do not increase"
            )
        if not k:
            _check_partition(K, first, k, lo, hi)
        if sink is not None:
            sink.append(("interval", k, lo, hi, tuple(names[x] for x in perm), pairs))
        if k == crossings:
            break
        # The crossing at hi: the two lines of each scheduled pair there.
        classes: dict = {}  # (dimension, value at hi) -> labels tied there
        previous = ()
        for pair in pairs_at[k]:
            i, j = pair
            v, w = interpolate([a[i], a[j]], [b[i], b[j]], hi)
            if not (previous < pair and i < j and a[i] != a[j] and v == w):
                raise _schedule_fault(K, a, b, k, hi, pairs_at[k])
            previous = pair
            if dim_of[i] == dim_of[j]:
                tie = classes.setdefault((dim_of[i], v), set())
                tie.add(label[i])
                tie.add(label[j])
        runs: list = []  # [start, end) blocks of perm, one per class
        tied: list = []  # their labels, as they were
        run_of: dict = {}  # tied label -> n + the index of its class
        for r, tie in enumerate(classes.values()):
            at = [pos[x] for x in tie]
            start = min(at)
            if max(at) - start >= len(at):
                raise _missed_crossing(
                    K, f0, f1, schedule,
                    f"crossing {k} at t = {fraction_string(hi)}: the scheduled "
                    f"simplices that tie with {{{K.simplices[names[min(tie)]]}}} "
                    "are not a block of the carried order",
                )
            runs.append((start, start + len(at)))
            tied += perm[start : start + len(at)]
            run_of.update(dict.fromkeys(tie, n + r))
        step: list = []  # left's indices to right's; empty if none moves
        if runs:
            held = links()
            for start, end in runs:
                vine.reverse(start, end)
            # A pair changes only at a switch (Cohen-Steiner, Edelsbrunner
            # and Morozov, SoCG 2006), and most crossings have none.  If
            # the pivot row and owner of every tied label are unchanged,
            # every pair with a tied simplex keeps both its simplices, so
            # its point at hi is unchanged, and so is the cover they make.
            # The bucket rule of _reidentify then sends each of those pairs
            # to itself, unless two of them share a key, which it may
            # cross.  Only pairs with a tied birth can, as an untied birth
            # is keyed by its label, so a changed label or a repeated key
            # among them sends the crossing through the full step below.
            born = [x for x in tied if low[x] is None]
            points = {point(x, owner[x]) for x in born}
            if held != links() or len(points) != len(born):
                # The pivot pairs with a tied simplex, as (birth, death)
                # labels, before the swaps (from the snapshot) and after,
                # each in the order of their births then.  ``tied`` lists
                # the blocks as they were, and an untied birth did not move.
                was_at = dict(zip(tied, [i for s, e in runs for i in range(s, e)]))
                death_of: dict = {}  # birth label -> death label, before
                for x, (r, o) in zip(tied, held):
                    if r is None:
                        death_of[x] = o
                    else:
                        death_of[r] = x
                left = sorted(
                    death_of.items(), key=lambda xd: was_at.get(xd[0], pos[xd[0]])
                )
                births = {x if low[x] is None else low[x] for x in tied}
                right = [(x, owner[x]) for x in sorted(births, key=pos.__getitem__)]
                # Those pairs must use the same simplices, each exactly
                # once, before and after.  Every other pair is unchanged,
                # so the pairs still partition the simplices, as checked in
                # full for the first interval.
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
                step = _reidentify(left, right, point, k, hi)
                if len(step) < len(left):
                    x, y = left[len(step)]
                    raise _no_partner(
                        K, f0, f1, schedule, k, hi,
                        names[x], None if y is None else names[y],
                    )
                for i, j in zip([origin[names[x]] for x, _ in left], step):
                    origin[names[right[j][0]]] = i
        if sink is not None:
            before, pairs = pairs, vine.pairs()
            where = {pv.birth: j for j, pv in enumerate(pairs)}
            to = {names[left[i][0]]: names[right[j][0]] for i, j in enumerate(step)}
            full = [where[to.get(pv.birth, pv.birth)] for pv in before]
            sink.append(("crossing", k, hi, before, pairs, full))
    rank = _inverse(order1)
    last = tuple(sorted(vine.pairs(), key=lambda pv: rank[pv.birth]))
    track: list = [None] * len(first)
    for j, pv in enumerate(last):
        track[origin[pv.birth]] = j
    return track, first, last, tuple(names[x] for x in perm)


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

    Produces the end-to-end bijection carried through the zero-cost
    re-identifications at the crossings and the exact bottleneck distance;
    the report derives the per-interval certificates from the schedule
    when they are read.  Checked in exact rationals: the schedule
    holds exactly the crossing pairs, each interval's pivot pairs partition
    the simplices, exact <= composed <= sup-norm, and the exact distance is
    its witness's cost.
    """
    order0 = total_order(K, f0)  # each validates its function, f0 first
    order1 = total_order(K, f1)
    gap = sup_norm(f0, f1)
    schedule = crossing_times(f0, f1)  # raises NonUniqueValues on any tie
    track, first, last, order = _carried_certificates(
        K, f0, f1, schedule, order0, order1
    )
    composed = Matching(tuple(enumerate(track)))

    # The carried order starts as the canonical order of f0 by dimension
    # and must end as the canonical order of f1 (both untied) by
    # dimension; one that does not is a crossing the schedule lacks, if
    # the values show one.  The pairs carried with it, put in the birth
    # order of f1's canonical order, must be that order's pairs reduced
    # from scratch: an independent check that one order per dimension
    # gives the pairs.  So the first and last pair lists are the canonical
    # pairs of f0 and f1.
    if order != _by_dimension(K, order1):
        raise _missed_crossing(
            K, f0, f1, schedule,
            "the order carried to t = 1 is not the canonical order of f1",
        )
    if last != pivot_pairs(K, order1):
        raise InternalProofViolation(
            "the pivot pairs carried to t = 1 are not those of the canonical "
            "order of f1"
        )
    # The sweep checked that each scheduled pair is a distinct inversion
    # between order0 and order1, listed at its own time; if they are as
    # many as the inversions, they are all of them (``_carried_certificates``).
    count, inversions = sum(map(len, schedule.pairs_at)), _inversions(order0, order1)
    if count != inversions:
        raise _missed_crossing(
            K, f0, f1, schedule,
            f"the schedule lists {count} crossing pairs, but f0 and f1 order "
            f"{inversions} pairs differently",
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
