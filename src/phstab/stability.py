"""Constructive verification that diagrams move no faster than functions.

The pipeline mirrors the interpolation argument.  Split [0, 1] at the
crossing times of the two functions.  Inside one interval the simplex order
is constant, so one order serves both endpoints; the persistence pairs
under that one order are literally identical, and matching points by their
pivot pair costs at most the interval's share of the total sup-norm.  At a
crossing time the adjacent intervals disagree about the order, but both
orders produce the same value multiset for the function at that time, so a
zero-cost re-identification exists.  Composing everything gives an
explicit bijection between the two end diagrams whose cost telescopes to at
most the sup-norm, which the exact bottleneck distance can only undercut.

The order is carried from interval to interval rather than rebuilt, as in
the vineyard picture of Cohen-Steiner, Edelsbrunner and Morozov: at a
crossing only the simplices tied there change places, and their run in the
order reverses.  Each breakpoint's values are computed once, and each
interval is checked in O(n) plus one reduction.  The test suite keeps a
reference that certifies each interval from scratch, and the carried
certificates must equal it.

Every inequality used along the way is checked with exact rational
arithmetic; a failure raises InternalProofViolation, because no input can
make the mathematics fail, only an implementation bug can.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations

from .bottleneck import Matching, bottleneck_bijection, matching_cost, pair_cost
from .complexes import FiltrationFunction, SimplicialComplex
from .errors import IncompatibleOrder, InternalProofViolation, InvalidMatching
from .interpolation import CrossingSchedule, crossing_times, interpolate, sup_norm
from .ordering import TotalOrder, check_order_compatible, total_order
from .persistence import Diagram, diagram_from_pivots, pivot_pairs
from .rational import fraction_string


@dataclass(frozen=True)
class IntervalCertificate:
    """One interval's worth of the proof.

    ``matching`` pairs points of the two endpoint diagrams with identical
    pivot pairs; because every simplex shows up as a coordinate of exactly
    one point, its cost equals ``bound``, the sup-norm between the endpoint
    functions.
    """

    t_lo: Fraction
    t_hi: Fraction
    order_used: TotalOrder
    left: Diagram
    right: Diagram
    matching: Matching
    cost: "Fraction | int"
    bound: Fraction


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
    holds: bool


def _simplex_pair(K: SimplicialComplex, i: int, j: "int | None") -> str:
    """Render two simplex positions (or a pivot pair) for a message."""
    second = "-" if j is None else f"{{{K.simplices[j]}}}"
    return f"({{{K.simplices[i]}}}, {second})"


def _costliest_pair(K: SimplicialComplex, left: Diagram, right: Diagram) -> str:
    """The pivot pair whose point moves farthest; only for messages."""
    p, q = max(zip(left.points, right.points), key=lambda pq: pair_cost(*pq))
    return _simplex_pair(K, p.pair.birth, p.pair.death)


def _certify(
    K: SimplicialComplex,
    order: TotalOrder,
    t_lo: Fraction,
    t_hi: Fraction,
    f_lo: FiltrationFunction,
    f_hi: FiltrationFunction,
    where: str,
) -> IntervalCertificate:
    """Certificate for one interval whose endpoints share ``order``.

    One reduction serves both endpoint functions, so the pair lists
    coincide; matching by pivot identity is then a bijection whose cost is
    the largest coordinate move of any pivot simplex.  ``where`` names the
    interval in violation messages.
    """
    pairs = pivot_pairs(K, order)
    left = diagram_from_pivots(K, order, f_lo, pairs, f"f@{fraction_string(t_lo)}")
    right = diagram_from_pivots(K, order, f_hi, pairs, f"f@{fraction_string(t_hi)}")
    cost = 0
    for p, q in zip(left.points, right.points):
        cost = max(cost, pair_cost(p, q))
    bound = sup_norm(f_lo, f_hi)
    if cost != bound:
        # Every simplex is a birth or death coordinate of exactly one point
        # (essentials included), so the largest coordinate move IS the
        # sup-norm; any discrepancy in either direction is a bug.
        raise InternalProofViolation(
            f"{where}: matching cost {fraction_string(cost)} != sup-norm "
            f"{fraction_string(bound)}; costliest "
            f"pivot pair {_costliest_pair(K, left, right)}"
        )
    matching = Matching(tuple((i, i) for i in range(len(left.points))))
    return IntervalCertificate(t_lo, t_hi, order, left, right, matching, cost, bound)


def _reverse_tied_runs(
    K: SimplicialComplex,
    perm: list,
    values: tuple,
    expected: tuple,
    k: int,
    t: Fraction,
) -> None:
    """Carry ``perm`` across crossing ``k`` at ``t``, in place.

    ``perm`` is non-decreasing in ``values`` (the values at ``t``), so the
    simplices tied at ``t`` form maximal runs.  The lines of one run meet
    at one point with distinct slopes (equal slopes would mean a tie at
    t = 0 too), so their order simply reverses.  Every pair inside a run
    swaps, and those pairs must be exactly ``expected``, the schedule's
    pairs at ``t``.
    """
    swapped = []
    n = len(perm)
    start = 0
    while start < n:
        value = values[perm[start]]
        end = start + 1
        while end < n and values[perm[end]] == value:
            end += 1
        if end - start > 1:
            run = perm[start:end]
            swapped.extend((min(a, b), max(a, b)) for a, b in combinations(run, 2))
            perm[start:end] = run[::-1]
        start = end
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


def _carried_certificates(
    K: SimplicialComplex,
    f0: FiltrationFunction,
    f1: FiltrationFunction,
    schedule: CrossingSchedule,
    gap: Fraction,
    order0: TotalOrder,
) -> list:
    """Certify every interval of ``schedule``, carrying one simplex order.

    f_t is evaluated once per breakpoint, and each interval's upper values
    become the next interval's lower values.  The order starts as
    ``order0``, the canonical order of f0 (the order just after t = 0,
    since f0 is untied), and is carried across each crossing by
    ``_reverse_tied_runs``.  Per interval, in O(n) besides the one reduction: the order is
    compatible with both endpoint functions, hence non-decreasing for every
    t in between, so no pair swaps inside; no adjacent pair is tied at both
    ends, so the interior is untied; the certificate's bound is the
    interval's share of ``gap``.  Any failure is a bug, so every one is an
    InternalProofViolation naming the interval or crossing, t and the
    simplex pair involved.
    """
    bps = schedule.breakpoints()
    perm = list(order0.permutation)
    certificates = []
    f_lo = f0
    for k, (lo, hi) in enumerate(zip(bps, bps[1:])):
        f_hi = interpolate(f0, f1, hi)
        order = TotalOrder(K, tuple(perm))
        where = f"interval {k} [{fraction_string(lo)}, {fraction_string(hi)}]"
        for t, f in ((lo, f_lo), (hi, f_hi)):
            try:
                check_order_compatible(K, f, order)
            except IncompatibleOrder as exc:
                raise InternalProofViolation(
                    f"{where}: carried order fails at t = {fraction_string(t)}: {exc}"
                ) from None
        v_lo, v_hi = f_lo.values, f_hi.values
        for a, b in zip(perm, perm[1:]):
            if v_lo[a] == v_lo[b] and v_hi[a] == v_hi[b]:
                raise InternalProofViolation(
                    f"{where}: simplices {_simplex_pair(K, a, b)} are tied at "
                    f"both ends, so also at the midpoint "
                    f"t = {fraction_string((lo + hi) / 2)}"
                )
        cert = _certify(K, order, lo, hi, f_lo, f_hi, where)
        if cert.bound != (hi - lo) * gap:
            raise InternalProofViolation(
                f"{where}: sup-norm {fraction_string(cert.bound)} is not the "
                f"interval's share "
                f"{fraction_string((hi - lo) * gap)}; costliest pivot pair "
                f"{_costliest_pair(K, cert.left, cert.right)}"
            )
        certificates.append(cert)
        if k < len(schedule):
            _reverse_tied_runs(K, perm, v_hi, schedule.pairs_at[k], k, hi)
        f_lo = f_hi
    return certificates


def breakpoint_matching(D_left: Diagram, D_right: Diagram) -> Matching:
    """Zero-cost bijection between two diagrams of one function.

    The diagrams were computed under different orders (the two sides of a
    crossing time), so their pivot pairs may differ, but their value
    multisets agree.  Within each dimension both point lists are sorted by
    (birth, death, birth-simplex order position) and matched positionally;
    any disagreement in the matched values would falsify order-invariance
    of diagrams, so it is an InternalProofViolation.
    """
    def sort_key(diag):
        def key(i):
            p = diag.points[i]
            return (p.birth, p.death, diag.order.position_of[p.pair.birth])
        return key

    dims = sorted({p.dim for p in D_left.points} | {p.dim for p in D_right.points})
    pairs = []
    for d in dims:
        left_idx = sorted(D_left.points_in_dim(d), key=sort_key(D_left))
        right_idx = sorted(D_right.points_in_dim(d), key=sort_key(D_right))
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
    composed = chain[0].as_map()
    for link in chain[1:]:
        step = link.as_map()
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


def _check_witness(
    K: SimplicialComplex, D0: Diagram, D1: Diagram, witness: Matching, exact
) -> None:
    """Re-check in rationals that ``witness`` is a bijection costing ``exact``.

    The matcher ranks scaled ints; this O(n) pass with the Fraction pair
    costs confirms its answer.
    """
    try:
        cost = matching_cost(D0, D1, witness)
    except InvalidMatching as exc:
        raise InternalProofViolation(
            f"the exact bottleneck witness is not a bijection: {exc}"
        ) from None
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

    Produces per-interval certificates, zero-cost crossing matchings, the
    composed end-to-end bijection with its directly measured cost, and the
    exact bottleneck distance.  Exact-rational checks along the way:
    every certificate cost is at most its interval bound, the composed cost
    is at most the sum of the link costs and at most the sup-norm, the
    exact bottleneck distance is what its witness costs in Fractions, and
    it is at most the composed cost.
    """
    order0 = total_order(K, f0)  # each validates its function, f0 first
    order1 = total_order(K, f1)
    gap = sup_norm(f0, f1)
    schedule = crossing_times(f0, f1)  # raises NonUniqueValues on any tie
    certificates = _carried_certificates(K, f0, f1, schedule, gap, order0)

    chain = [certificates[0].matching]
    link_costs = [certificates[0].cost]
    for prev, cur in zip(certificates, certificates[1:]):
        bp = breakpoint_matching(prev.right, cur.left)
        chain.append(bp)
        link_costs.append(0)
        chain.append(cur.matching)
        link_costs.append(cur.cost)
    composed = compose_matchings(chain)

    # The carried order starts as the canonical order of f0, so the first
    # certificate's left diagram is the canonical diagram of f0; the last
    # right diagram is checked against a fresh canonical diagram of f1.
    D0 = replace(certificates[0].left, function_id="f0")
    D1 = diagram_from_pivots(K, order1, f1, pivot_pairs(K, order1), "f1")
    if certificates[-1].right.points != D1.points:
        raise InternalProofViolation(
            "the last interval's right diagram disagrees with the canonical "
            "diagram of f1"
        )

    composed_cost = matching_cost(D0, D1, composed)
    total_link_cost = sum(link_costs)
    if composed_cost > total_link_cost:
        raise InternalProofViolation(
            f"composed cost {fraction_string(composed_cost)} exceeds the "
            f"telescoped sum {fraction_string(total_link_cost)}"
        )
    if total_link_cost > gap:
        raise InternalProofViolation(
            f"telescoped sum {fraction_string(total_link_cost)} exceeds the "
            f"sup-norm {fraction_string(gap)}"
        )
    exact, witness = bottleneck_bijection(D0, D1)
    _check_witness(K, D0, D1, witness, exact)
    if exact > composed_cost:
        raise InternalProofViolation(
            f"exact bottleneck {fraction_string(exact)} exceeds the composed "
            f"matching cost {fraction_string(composed_cost)}"
        )
    holds = exact <= gap
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
        holds=holds,
    )
