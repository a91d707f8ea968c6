import random
import re
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import phstab
from phstab import cli, stability
from phstab.bottleneck import Matching, bottleneck_bijection
from phstab.cli import run_command
from phstab.complexes import FiltrationFunction, validate_complex
from phstab.errors import InternalProofViolation, InvalidFiltration, NonUniqueValues
from phstab.generate import (
    GeneratorConfig,
    generate_complex,
    generate_instance,
    random_filtration,
)
from phstab.interpolation import CrossingSchedule, crossing_times
from phstab.ordering import total_order
from phstab.persistence import PivotPair, Vineyard, diagram, pivot_pairs
from phstab.stability import _no_partner, _reidentify, verify_stability

from oracles import (
    OrderNotConstant,
    breakpoint_matching,
    check_order_compatible,
    compose_matchings,
    diagram_with_order,
    dims,
    fraction_matching_cost,
    interval_matching,
    interval_references,
    points_in_dim,
    random_compatible_order,
    recorded_intervals,
    reference_differences,
    verify_recording,
)

EDGE = [(0,), (1,), (0, 1)]


def test_interval_certificate_on_half_interval():
    K = validate_complex(EDGE)
    f0 = FiltrationFunction(K, (0, 1, 2))
    f1 = FiltrationFunction(K, (1, Fraction(1, 4), 2))
    # vertices swap at t = 4/7; the left interval is certified in one piece
    cert, left, _ = interval_matching(K, f0, f1, 0, Fraction(4, 7))
    # every simplex is a coordinate of some point, so cost == bound exactly
    assert cert.cost == cert.bound == Fraction(4, 7) * 1
    assert len(cert.pairs) == len(left.points)
    assert left.points == diagram(K, f0).points
    check_order_compatible(K, f0, cert.order_used)


def test_interval_matching_rejects_interior_swap():
    K = validate_complex(EDGE)
    f0 = FiltrationFunction(K, (0, 1, 2))
    f1 = FiltrationFunction(K, (1, Fraction(1, 4), 2))
    with pytest.raises(OrderNotConstant):
        interval_matching(K, f0, f1, 0, 1)
    with pytest.raises(ValueError):
        interval_matching(K, f0, f1, Fraction(1, 2), Fraction(1, 2))


def test_interval_matching_of_identical_functions_costs_nothing():
    # ties are fine here: the canonical tie-break serves both endpoints
    K = validate_complex(EDGE)
    f = FiltrationFunction(K, (0, 0, 1))
    cert, left, right = interval_matching(K, f, f, 0, 1)
    assert cert.cost == 0
    assert cert.bound == 0
    assert left.points == right.points


def test_breakpoint_matching_between_tie_break_orders():
    rng = random.Random(21)
    for seed in range(10):
        K = generate_complex(rng, GeneratorConfig(seed=seed, num_vertices=5))
        f = random_filtration(K, rng, unique=False)
        D_a = diagram_with_order(K, f, random_compatible_order(K, f, rng))
        D_b = diagram_with_order(K, f, random_compatible_order(K, f, rng))
        m = breakpoint_matching(D_a, D_b)
        assert fraction_matching_cost(D_a, D_b, m) == 0


def test_breakpoint_matching_rejects_different_functions():
    K = validate_complex(EDGE)
    D_a = diagram(K, FiltrationFunction(K, (0, 1, 2)))
    D_b = diagram(K, FiltrationFunction(K, (0, 1, 3)))
    with pytest.raises(InternalProofViolation):
        breakpoint_matching(D_a, D_b)


def test_compose_matchings():
    a = Matching(((0, 1), (1, 0)))
    b = Matching(((0, 0), (1, 1)))
    assert compose_matchings([a, b]).pairs == ((0, 1), (1, 0))
    assert compose_matchings([a, a]).pairs == ((0, 0), (1, 1))
    with pytest.raises(InternalProofViolation):
        compose_matchings([])
    with pytest.raises(InternalProofViolation):
        compose_matchings([a, Matching(((0, 0),))])


def test_verify_stability_single_crossing():
    K = validate_complex(EDGE)
    f0 = FiltrationFunction(K, (0, 1, 2))
    f1 = FiltrationFunction(K, (1, Fraction(1, 4), 2))
    report = verify_stability(K, f0, f1)
    assert report.sup_norm_value == 1
    assert report.schedule.times == (Fraction(4, 7),)
    assert len(report.certificates) == 2
    assert report.composed_cost == Fraction(1, 4)
    assert report.exact_bottleneck == Fraction(1, 4)
    assert report.left_diagram == diagram(K, f0)
    assert report.right_diagram == diagram(K, f1)


def test_verify_stability_shift_by_constant():
    """Adding a constant moves every diagram point by exactly that much."""
    rng = random.Random(22)
    K = generate_complex(rng, GeneratorConfig(seed=22, num_vertices=5))
    f0 = random_filtration(K, rng)
    c = Fraction(3, 8)
    f1 = FiltrationFunction(K, tuple(v + c for v in f0.values))
    report = verify_stability(K, f0, f1)
    assert report.sup_norm_value == c
    assert report.schedule.times == ()
    assert report.composed_cost == c
    assert report.exact_bottleneck <= c


def test_verify_stability_identical_functions():
    rng = random.Random(23)
    K = generate_complex(rng, GeneratorConfig(seed=23, num_vertices=4))
    f = random_filtration(K, rng)
    report = verify_stability(K, f, f)
    assert report.sup_norm_value == 0
    assert report.composed_cost == 0
    assert report.exact_bottleneck == 0


def test_verify_stability_demands_unique_values():
    K = validate_complex(EDGE)
    f0 = FiltrationFunction(K, (0, 0, 1))
    f1 = FiltrationFunction(K, (0, 1, 2))
    with pytest.raises(NonUniqueValues):
        verify_stability(K, f0, f1)


def test_verify_stability_demands_monotone_functions():
    K = validate_complex(EDGE)
    f0 = FiltrationFunction(K, (0, 1, 2))
    bad = FiltrationFunction(K, (0, 3, 2))
    with pytest.raises(InvalidFiltration):
        verify_stability(K, f0, bad)


def test_verify_stability_random_instances():
    for seed in range(20):
        inst = generate_instance(GeneratorConfig(seed=seed, num_vertices=5))
        report = verify_stability(inst.complex, *inst.functions)
        assert report.exact_bottleneck <= report.composed_cost
        assert report.composed_cost <= report.sup_norm_value
        for cert in report.certificates:
            assert cert.share == (cert.t_hi - cert.t_lo) * report.sup_norm_value
        # the composed matching is a genuine bijection with the stated cost
        assert (
            fraction_matching_cost(
                report.left_diagram, report.right_diagram, report.composed_matching
            )
            == report.composed_cost
        )


def _peak_bytes(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_verify_memory_does_not_grow_with_crossings_times_simplices():
    """Certificates keep no order or pair list, so verify's peak stays within
    a small multiple of the crossing schedule's own: about 2x here, while
    keeping both for every interval costs about 14x."""
    inst = generate_instance(
        GeneratorConfig(seed=3, num_vertices=10, fill_prob=0.5, max_dimension=2)
    )
    K, f0, f1 = inst.complex, *inst.functions
    schedule = _peak_bytes(lambda: crossing_times(f0, f1))
    verify = _peak_bytes(lambda: verify_stability(K, f0, f1))
    assert (len(K), len(crossing_times(f0, f1))) == (38, 205)
    assert verify < 5 * schedule


def _vertices(n):
    return validate_complex([(v,) for v in range(n)])


def _verified_as_reference(K, f0, f1):
    """The report, and the orders verify reduced, one per interval, after
    checking both against the from-scratch reference."""
    report, events = verify_recording(K, f0, f1)
    refs = interval_references(K, f0, f1, report.schedule)
    assert reference_differences(K, report, events, refs) == []
    return report, [order for order, _ in recorded_intervals(events)]


def test_three_way_tie_reverses_its_run():
    # three lines through (1/2, 1): all three pairs swap at once
    K = _vertices(3)
    f0 = FiltrationFunction(K, (0, 1, 2))
    f1 = FiltrationFunction(K, (2, 1, 0))
    report, orders = _verified_as_reference(K, f0, f1)
    assert report.schedule.times == (Fraction(1, 2),)
    assert report.schedule.pairs_at == (((0, 1), (0, 2), (1, 2)),)
    assert orders == [(0, 1, 2), (2, 1, 0)]


def test_two_disjoint_pairs_swap_at_one_time():
    K = _vertices(4)
    f0 = FiltrationFunction(K, (0, 1, 10, 11))
    f1 = FiltrationFunction(K, (1, 0, 11, 10))
    report, orders = _verified_as_reference(K, f0, f1)
    assert report.schedule.times == (Fraction(1, 2),)
    assert report.schedule.pairs_at == (((0, 1), (2, 3)),)
    assert orders[1] == (1, 0, 3, 2)


def test_three_way_tie_can_rotate_the_point_map():
    # at t = 47/48 vertices 1, 2 and 3 tie and so do edges {0,2} and {0,3}:
    # the points born at 3 and 2 are equal there and the tie-break by order
    # position matches them crosswise, so three points move in a cycle
    simplices = [(0,), (1,), (2,), (3,), (0, 2), (0, 3), (1, 3), (2, 3), (0, 2, 3)]
    K = validate_complex(simplices)
    f0 = FiltrationFunction(K, (1, 130, 83, 36, 85, 38, 135, 136, 137))
    f1 = FiltrationFunction(K, (129, 130, 131, 132, 133, 134, 135, 136, 137))
    report, _ = _verified_as_reference(K, f0, f1)
    assert report.schedule.times[-1] == Fraction(47, 48)
    assert report.composed_matching.pairs == (
        (0, 0), (1, 2), (2, 3), (3, 1), (4, 4)
    )


def _doctor_schedule(monkeypatch, schedule):
    monkeypatch.setattr(stability, "crossing_times", lambda f0, f1: schedule)


def test_schedule_disagreeing_with_the_tied_runs_is_a_violation(monkeypatch):
    K = _vertices(4)
    f0 = FiltrationFunction(K, (0, 1, 10, 11))
    f1 = FiltrationFunction(K, (1, 0, 11, 10))
    true = crossing_times(f0, f1)
    _doctor_schedule(monkeypatch, CrossingSchedule(true.times, (((0, 1),),)))
    with pytest.raises(InternalProofViolation) as ei:
        verify_stability(K, f0, f1)
    message = str(ei.value)
    assert "crossing 0" in message and "t = 1/2" in message
    assert "({2}, {3})" in message
    # a scheduled pair that does not tie there is named the same way
    extra = (((0, 1), (0, 2), (2, 3)),)
    _doctor_schedule(monkeypatch, CrossingSchedule(true.times, extra))
    with pytest.raises(InternalProofViolation, match=r"crossing 0 at t = 1/2: .*\(\{0\}, \{2\}\)"):
        verify_stability(K, f0, f1)


# {0} meets the edge {1,2} at t = 1/2, where {1} and {2} meet too, and {1}
# meets {0} at 6/7; in ACROSS only {0} and {1,2} meet, at 1/2
MIXED = ((3, 0, 1, 2), (1, Fraction(3, 2), Fraction(1, 2), 2))
ACROSS = ((3, 0, 1, 2), (1, 0, Fraction(1, 2), 2))
CROSS, SAME = (0, 3), (1, 2)
HALF = Fraction(1, 2)


@pytest.mark.parametrize(
    "values, times, pairs_at, message",
    [
        # a time of two dimensions only, moved to where nothing ties
        (
            ACROSS, (Fraction(1, 4),), ((CROSS,),),
            "crossing 0 at t = 1/4: scheduled simplices ({0}, {1,2}) do not tie",
        ),
        # that time dropped: the inversion count finds the pair it lacks
        (
            ACROSS, (), (),
            "interval 0 [0, 1]: carried order fails at t = 1: values decrease "
            "along the order: f(1,2) = 2 > 1 = f(0)",
        ),
        # a pair of two dimensions added where it does not tie
        (
            ACROSS, (HALF,), ((CROSS, (2, 3)),),
            "crossing 0 at t = 1/2: scheduled simplices ({2}, {1,2}) do not tie",
        ),
        # one listed twice, which the count alone would not tell
        (
            ACROSS, (HALF,), ((CROSS, CROSS),),
            "crossing 0 at t = 1/2: scheduled simplices ({0}, {1,2}) are listed "
            "twice or out of order",
        ),
        # one listed as (j, i), which the count alone would not tell
        (
            ACROSS, (HALF,), (((3, 0),),),
            "crossing 0 at t = 1/2: simplices ({0}, {1,2}) tie but are not "
            "scheduled",
        ),
        # a time listed twice, so a pair could be listed at two times
        (
            ACROSS, (HALF, HALF), ((CROSS,), (CROSS,)),
            "interval 1 [1/2, 1/2]: the crossing times do not increase",
        ),
        # the pair of two dimensions dropped from a time with two pairs
        (
            MIXED, (HALF, Fraction(6, 7)), ((SAME,), ((0, 1),)),
            "crossing 0 at t = 1/2: simplices ({0}, {1,2}) tie but are not "
            "scheduled",
        ),
        # the pair of one dimension dropped there: the runs tell
        (
            MIXED, (HALF, Fraction(6, 7)), ((CROSS,), ((0, 1),)),
            "crossing 0 at t = 1/2: simplices ({1}, {2}) tie but are not "
            "scheduled",
        ),
    ],
    ids=[
        "moved", "dropped", "added", "twice", "reversed", "time-twice",
        "dropped-across", "dropped-same",
    ],
)
def test_schedule_faults_across_dimensions_are_violations(
    monkeypatch, values, times, pairs_at, message
):
    # verify sweeps each dimension apart: a pair of a vertex and an edge is
    # no swap, and is checked by its tie and by the inversion count
    K = validate_complex([(0,), (1,), (2,), (1, 2)])
    f0, f1 = (FiltrationFunction(K, v) for v in values)
    true = crossing_times(f0, f1)
    want = ((CROSS,),) if values is ACROSS else ((CROSS, SAME), ((0, 1),))
    assert true.pairs_at == want
    assert verify_stability(K, f0, f1).schedule == true
    _doctor_schedule(monkeypatch, CrossingSchedule(times, pairs_at))
    with pytest.raises(InternalProofViolation, match="^" + re.escape(message) + "$"):
        verify_stability(K, f0, f1)


def test_a_class_that_is_no_block_is_raised_before_any_transposition(monkeypatch):
    # MIXED with {1} and {2} dropped from 1/2, so they never swap: at 6/7
    # {0} and {1} are no block of the carried order, and reversing the
    # block that starts at {1} would transpose {1} and {2}, which do not
    # tie there.  Every path to the violation names the missed pair; only
    # the transpositions tell whether it was raised before the vineyard
    # moved simplices that do not tie.
    K = validate_complex([(0,), (1,), (2,), (1, 2)])
    f0, f1 = (FiltrationFunction(K, v) for v in MIXED)
    transposed = []
    transpose = Vineyard.transpose

    def counted(self, i):
        transposed.append(i)
        transpose(self, i)

    monkeypatch.setattr(Vineyard, "transpose", counted)
    times = (HALF, Fraction(6, 7))
    _doctor_schedule(monkeypatch, CrossingSchedule(times, ((CROSS,), ((0, 1),))))
    message = "crossing 0 at t = 1/2: simplices ({1}, {2}) tie but are not scheduled"
    with pytest.raises(InternalProofViolation, match="^" + re.escape(message) + "$"):
        verify_stability(K, f0, f1)
    assert transposed == []


def test_missing_crossing_is_a_violation_naming_interval_t_and_pair(monkeypatch):
    K = _vertices(2)
    f0 = FiltrationFunction(K, (0, 1))
    f1 = FiltrationFunction(K, (1, 0))
    _doctor_schedule(monkeypatch, CrossingSchedule((), ()))
    with pytest.raises(InternalProofViolation) as ei:
        verify_stability(K, f0, f1)
    message = str(ei.value)
    assert "interval 0 [0, 1]" in message and "at t = 1:" in message
    assert "f(0) = 1 > 0 = f(1)" in message


def test_decreasing_values_print_as_reduced_fractions_at_a_non_dyadic_t(
    monkeypatch,
):
    # {0} and {1} cross at 1/5, {0} and {2} at 2/3; with 1/5 dropped, {0}
    # and {2} are no block of the order (0, 1, 2) at 2/3, where the ints
    # of {0} and {1}, 8 and 1, are over 3 * 2 = 6
    K = _vertices(3)
    f0 = FiltrationFunction(K, (0, Fraction(1, 2), 3))
    f1 = FiltrationFunction(K, (2, 0, Fraction(1, 2)))
    true = crossing_times(f0, f1)
    assert true.times == (Fraction(1, 5), Fraction(2, 3))
    doctored = CrossingSchedule(true.times[1:], true.pairs_at[1:])
    _doctor_schedule(monkeypatch, doctored)
    with pytest.raises(InternalProofViolation) as ei:
        verify_stability(K, f0, f1)
    assert str(ei.value) == (
        "interval 0 [0, 2/3]: carried order fails at t = 2/3: values "
        "decrease along the order: f(0) = 4/3 > 1/6 = f(1)"
    )


def test_identical_lines_are_never_scheduled(monkeypatch):
    # identical lines tie everywhere, so they cross nowhere: past the
    # uniqueness check, verify sweeps no crossing and bounds 0 by 0, and a
    # schedule that lists them is a violation naming crossing, t and pair
    K = _vertices(2)
    f = FiltrationFunction(K, (0, 0))
    _doctor_schedule(monkeypatch, CrossingSchedule((), ()))
    report = verify_stability(K, f, f)
    assert (report.exact_bottleneck, report.composed_cost, report.sup_norm_value) == (
        0, 0, 0
    )
    _doctor_schedule(monkeypatch, CrossingSchedule((Fraction(1, 2),), (((0, 1),),)))
    message = (
        "crossing 0 at t = 1/2: scheduled simplices ({0}, {1}) are equal at t = 0"
    )
    with pytest.raises(InternalProofViolation, match="^" + re.escape(message) + "$"):
        verify_stability(K, f, f)


def test_carried_order_that_misses_the_end_order_is_a_violation(monkeypatch):
    # f1's canonical order doctored to (1, 0): the carried order ends at (0, 1)
    K = _vertices(2)
    f0 = FiltrationFunction(K, (0, 1))
    f1 = FiltrationFunction(K, (0, 2))
    real = stability.total_order
    monkeypatch.setattr(
        stability,
        "total_order",
        lambda K, f: real(K, f)[::-1] if f is f1 else real(K, f),
    )
    with pytest.raises(
        InternalProofViolation,
        match="^the order carried to t = 1 is not the canonical order of f1$",
    ):
        verify_stability(K, f0, f1)


def _break_partition(monkeypatch, edit):
    """Make every pair list verify's vineyard lists pass through ``edit``
    first; the first of them is checked before anything else reads it."""

    class Doctored(Vineyard):
        def pairs(self):
            return edit(super().pairs())

    monkeypatch.setattr(stability, "Vineyard", Doctored)


@pytest.mark.parametrize(
    "edit, message",
    [
        # drop the essential pair of {0}: no pair uses {0} any more
        (lambda pairs: pairs[1:], r"simplex \{0\} is a coordinate of 0 pivot pairs"),
        # a second essential pair born at {0, 1}, which already dies
        (
            lambda pairs: pairs + (PivotPair(pairs[-1].death, None),),
            r"simplex \{0,1\} is a coordinate of 2 pivot pairs",
        ),
    ],
    ids=["dropped", "repeated"],
)
def test_pair_list_that_does_not_partition_is_a_violation(
    monkeypatch, tmp_path, edit, message
):
    K = validate_complex(EDGE)
    f0 = FiltrationFunction(K, (0, 1, 2))
    f1 = FiltrationFunction(K, (1, Fraction(1, 4), 2))
    _break_partition(monkeypatch, edit)
    where = r"interval 0 \[0, 4/7\]: "
    with pytest.raises(InternalProofViolation, match="^" + where + message):
        verify_stability(K, f0, f1)
    path = tmp_path / "edge.txt"
    path.write_text("0 : 0 1\n1 : 1 1/4\n0 1 : 2 2\n")
    status, text = run_command(["verify", str(path)])
    assert status == 2
    assert re.match("internal consistency failure: " + where + message, text)


def _label_key(dims, classes=None):
    """The crossing step's key of a pair (b, d) of labels: (dimension,
    class of the birth or its label, class of the death or its label or
    None); ``classes`` maps each tied label to its class, apart from every
    label."""
    run_of = classes or {}
    return lambda b, d: (dims[b], run_of.get(b, b), run_of.get(d, d))


def test_reidentify_rejects_pair_lists_of_different_functions():
    # f_a is born at {0}, f_b at {1}; keyed by label, as at a crossing
    # where nothing ties, the two pair lists give (0, -), (1, {0,1})
    # against (0, {0,1}), (1, -), so the first pair has no partner
    K = validate_complex(EDGE)
    f_a = FiltrationFunction(K, (0, 1, 2))
    f_b = FiltrationFunction(K, (1, 0, 2))
    key = _label_key([0, 0, 1])  # labels are complex positions here

    def pairs(f):
        return [(p.birth, p.death) for p in pivot_pairs(K, total_order(K, f))]

    t = Fraction(1, 2)
    assert _reidentify(pairs(f_a), pairs(f_a), key, 3, t) == [0, 1]
    assert _reidentify(pairs(f_a), pairs(f_b), key, 3, t) == []
    with pytest.raises(InternalProofViolation) as ei:
        _reidentify(pairs(f_a), pairs(f_a)[:1], key, 3, t)
    assert str(ei.value) == (
        "crossing 3 at t = 1/2: 2 pivot pairs with a tied simplex before "
        "vs 1 after"
    )
    # the message prints f_t at t = 1/2 from f0 and f1, with no crossing
    # between them: f_a itself, and f_a + 1, whose birth prints as the
    # value 1, not as its int 2 over the scale 2
    for f1, birth in ((f_a, "0"), (FiltrationFunction(K, (2, 3, 4)), "1")):
        schedule = crossing_times(f_a, f1)
        assert schedule.times == ()
        assert str(_no_partner(K, f_a, f1, schedule, 3, t, 0, None)) == (
            f"crossing 3 at t = 1/2: pivot pair ({{0}}, -) at dim 0 "
            f"({birth}, inf) has no partner with equal values"
        )


def test_reidentify_crosses_equal_points_of_one_class():
    # {0} and {1} tie at t = 1/2 and swap, so the essential pair and the
    # pair that dies at {0,1} trade births.  Both births lie in one class,
    # so each point keeps its key and goes to the pair of the other birth.
    # Keyed by label, as if the schedule lacked the tie, the first pair
    # finds no partner, and a schedule that lacks it is named as a missed
    # crossing.
    K = validate_complex(EDGE)
    f0 = FiltrationFunction(K, (0, 1, 2))
    f1 = FiltrationFunction(K, (1, 0, 2))
    schedule = crossing_times(f0, f1)
    t = Fraction(1, 2)
    assert schedule == CrossingSchedule((t,), (((0, 1),),))
    dims = [0, 0, 1]
    left, right = [(0, None), (1, 2)], [(1, None), (0, 2)]
    assert _reidentify(left, right, _label_key(dims, {0: 3, 1: 3}), 0, t) == [0, 1]
    assert _reidentify(left, right, _label_key(dims), 0, t) == []
    assert str(_no_partner(K, f0, f1, schedule, 0, t, 0, None)) == (
        "crossing 0 at t = 1/2: pivot pair ({0}, -) at dim 0 (0.5, inf) has "
        "no partner with equal values"
    )
    lacking = CrossingSchedule((), ())
    assert str(_no_partner(K, f0, f1, lacking, 0, t, 0, None)) == (
        "interval 0 [0, 1]: carried order fails at t = 1: values decrease "
        "along the order: f(0) = 1 > 0 = f(1)"
    )
    # without the edge both points are essential and equal: the tie-break
    # takes the first of their key before to the first after
    essential = [(0, None), (1, None)]
    crossed = _reidentify(
        essential, essential[::-1], _label_key([0, 0], {0: 2, 1: 2}), 0, t
    )
    assert crossed == [0, 1]


def test_a_pair_with_no_partner_is_named_by_its_simplices(monkeypatch):
    # a re-identification that stops at the second pair before the swaps,
    # ({1}, {0,1}), is a violation naming it with f_t's values there
    K = validate_complex(EDGE)
    f0 = FiltrationFunction(K, (0, 1, 2))
    f1 = FiltrationFunction(K, (1, 0, 2))
    monkeypatch.setattr(stability, "_reidentify", lambda *args: [0])
    with pytest.raises(InternalProofViolation) as ei:
        verify_stability(K, f0, f1)
    assert str(ei.value) == (
        "crossing 0 at t = 1/2: pivot pair ({1}, {0,1}) at dim 0 (0.5, 2) has "
        "no partner with equal values"
    )


def test_violation_exits_two_through_the_cli(monkeypatch, tmp_path):
    path = tmp_path / "swap.txt"
    path.write_text("0 : 0 1\n1 : 1 0\n")
    _doctor_schedule(monkeypatch, CrossingSchedule((), ()))
    status, text = run_command(["verify", str(path)])
    assert status == 2
    assert text.startswith("internal consistency failure: interval 0 [0, 1]")


@pytest.mark.parametrize(
    "text, message",
    [
        ("0 : 0 1\n1 : 0 2\n", "error: f0: simplices 0 and 1 share value 0"),
        ("0 : 0 1\n1 : 1 1\n", "error: f1: simplices 0 and 1 share value 1"),
        # f0 tied, f1 not monotone: both are validated before any tie check
        (
            "0 : 0 5\n1 : 0 1\n0 1 : 2 3\n",
            "error: face {0} has value 5 > 3 on coface {0,1}",
        ),
        # one function not monotone, then both: f0 is validated first
        (
            "0 : 5 0\n1 : 0 1\n0 1 : 1 2\n",
            "error: face {0} has value 5 > 1 on coface {0,1}",
        ),
        (
            "0 : 0 5\n1 : 1 0\n0 1 : 2 1\n",
            "error: face {0} has value 5 > 1 on coface {0,1}",
        ),
        (
            "0 : 0 5\n1 : 5 0\n0 1 : 1 1\n",
            "error: face {1} has value 5 > 1 on coface {0,1}",
        ),
    ],
)
def test_ties_exit_one_through_verify(tmp_path, text, message):
    # each function is validated once, by its total_order; the uniqueness
    # check runs once, inside crossing_times
    path = tmp_path / "tie.txt"
    path.write_text(text)
    assert run_command(["verify", str(path)]) == (1, message)
    assert run_command(["verify", str(path), "--machine"]) == (1, message)


def _wrong_witness(D0, D1, bound=None):
    """The exact distance with the matching reversed inside each dimension."""
    exact, witness = bottleneck_bijection(D0, D1, bound)
    reversed_pairs = []
    for d in dims(D0):
        idx0, idx1 = points_in_dim(D0, d), points_in_dim(D1, d)
        reversed_pairs.extend(zip(idx0, reversed(idx1)))
    return exact, Matching(tuple(sorted(reversed_pairs)))


def test_wrong_bottleneck_witness_is_a_violation(monkeypatch, tmp_path):
    # essential births 0, 1, 10 against 0, 2, 10: the exact distance is 1,
    # but pairing them in reverse moves the first point by 10
    K = _vertices(3)
    f0 = FiltrationFunction(K, (0, 1, 10))
    f1 = FiltrationFunction(K, (0, 2, 10))
    assert verify_stability(K, f0, f1).exact_bottleneck == 1
    monkeypatch.setattr(stability, "bottleneck_bijection", _wrong_witness)
    with pytest.raises(InternalProofViolation) as ei:
        verify_stability(K, f0, f1)
    message = str(ei.value)
    assert "exact bottleneck 1 != its witness's cost 10" in message
    assert "(0, inf) -> (10, inf)" in message and "({0}, -) -> ({2}, -)" in message
    path = tmp_path / "three.txt"
    path.write_text("0 : 0 0\n1 : 1 2\n2 : 10 10\n")
    status, text = run_command(["verify", str(path)])
    assert status == 2
    assert text.startswith("internal consistency failure: exact bottleneck 1")
    # a witness that leaves a point out is a violation too, not bad input
    monkeypatch.setattr(
        stability,
        "bottleneck_bijection",
        lambda D0, D1, bound=None: (1, Matching(((0, 0), (1, 1)))),
    )
    with pytest.raises(InternalProofViolation, match="witness is not a bijection"):
        verify_stability(K, f0, f1)


# f1 = f0 + (1/64)(g + offsets): both distances are one candidate cost
# above the bounds below, and dimension 1 is the first to exceed them
PERTURBED = str(Path(__file__).parent / "perturbed_seed8.txt")
BELOW_BIJECTION, BELOW_DIAGONAL = Fraction(66233, 835584), Fraction(63787, 835584)


def _bound_message(bound):
    return (
        "internal consistency failure: no matching of the dimension-1 "
        f"points costs at most the bound {bound.numerator}/{bound.denominator}"
    )


def test_a_composed_cost_below_the_exact_distance_exits_two(monkeypatch):
    # the matcher is bounded by the composed cost, so a composed map that
    # seemed cheaper than the optimum stops it
    assert run_command(["verify", PERTURBED, "--machine"])[1].endswith(
        "exact_bottleneck=66295/835584\nholds=true"
    )
    real = stability._bijection_cost

    def cheaper(D0, D1, m, what):
        cost = real(D0, D1, m, what)
        return BELOW_BIJECTION if what == "the composed point map" else cost

    monkeypatch.setattr(stability, "_bijection_cost", cheaper)
    for machine in ([], ["--machine"]):
        assert run_command(["verify", PERTURBED] + machine) == (
            2,
            _bound_message(BELOW_BIJECTION),
        )


def test_a_sup_norm_below_the_distance_exits_two(monkeypatch):
    # one file: both variants are bounded by the sup-norm of its columns
    for variant, bound in (([], BELOW_BIJECTION), (["--diagonal"], BELOW_DIAGONAL)):
        monkeypatch.setattr(cli, "sup_norm", lambda f0, f1: bound)
        for matching in ([], ["--matching"]):
            argv = ["bottleneck", PERTURBED] + variant + matching
            assert run_command(argv) == (2, _bound_message(bound))


def test_readme_library_example_uses_the_package_root_exports(capsys):
    """The README's one Python block runs, and the package root exports
    exactly the names it shows plus the two error bases."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    exec(compile(block, "README.md", "exec"), {})
    # sup-norm and exact distance, as the block's comments describe them
    assert capsys.readouterr().out.splitlines()[:2] == ["1", "1/4"]
    assert set(phstab.__all__) == {
        "FiltrationFunction",
        "InternalProofViolation",
        "PhstabError",
        "bottleneck_bijection",
        "diagram",
        "validate_complex",
        "verify_stability",
    }
    for name in phstab.__all__:
        assert getattr(phstab, name) is not None
        assert name in readme


# the boundary of a triangle: three dim-0 points, listed first, and the
# dim-1 point of its cycle, listed last
HOLLOW_TRIANGLE = "0 : 0 1\n1 : 1 0\n2 : 2 2\n0 1 : 3 3\n0 2 : 4 4\n1 2 : 5 6\n"


def _hollow_triangle(tmp_path):
    path = tmp_path / "hollow.txt"
    path.write_text(HOLLOW_TRIANGLE)
    return str(path)


def _reversed(D0, D1):
    """Point i of D0 with point n - 1 - i of D1: the first dim-0 point meets
    the dim-1 point."""
    n = len(D0.points)
    return Matching(tuple((i, n - 1 - i) for i in range(n)))


def _verify_violation(path, message):
    status, text = run_command(["verify", path])
    assert status == 2
    assert text == "internal consistency failure: " + message


def test_cross_dimension_witness_is_a_violation(monkeypatch, tmp_path):
    path = _hollow_triangle(tmp_path)
    monkeypatch.setattr(
        stability,
        "bottleneck_bijection",
        lambda D0, D1, bound=None: (
            bottleneck_bijection(D0, D1, bound)[0],
            _reversed(D0, D1),
        ),
    )
    _verify_violation(
        path,
        "the exact bottleneck witness is not a bijection: "
        "pair (0, 3) matches dim 0 with dim 1",
    )


def _doctor_track(monkeypatch, edit):
    """Make the carried point map pass through ``edit`` first."""
    real = stability._carried_certificates

    def doctored(*args):
        track, *ends = real(*args)
        return edit(track), *ends

    monkeypatch.setattr(stability, "_carried_certificates", doctored)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda track: track[::-1], "pair (0, 3) matches dim 0 with dim 1"),
        (lambda track: track[:1] + track[:-1], "right index 0 reused or out of range"),
    ],
    ids=["cross-dimension", "not-a-bijection"],
)
def test_bad_composed_point_map_is_a_violation(monkeypatch, tmp_path, edit, message):
    path = _hollow_triangle(tmp_path)
    _doctor_track(monkeypatch, edit)
    _verify_violation(path, "the composed point map is not a bijection: " + message)


def _doctor_transpose(monkeypatch, edit):
    """Make every transposition of a vineyard run ``edit`` on it after the
    swap, with the position swapped."""
    real = Vineyard.transpose

    def doctored(self, i):
        real(self, i)
        edit(self, i)

    monkeypatch.setattr(Vineyard, "transpose", doctored)


def test_transposition_that_breaks_the_pairing_is_a_violation(monkeypatch, tmp_path):
    # the vertices swap at t = 4/7 and the edge's death passes from {1} to
    # the essential {0}; with {0}'s owner dropped the edge is in no pair
    K = validate_complex(EDGE)
    f0 = FiltrationFunction(K, (0, 1, 2))
    f1 = FiltrationFunction(K, (1, Fraction(1, 4), 2))

    def drop_owner(vine, i):
        vine.owner[vine.perm[i + 1]] = None

    _doctor_transpose(monkeypatch, drop_owner)
    message = (
        "crossing 0 at t = 4/7: simplex {0,1} is a coordinate of 1 pivot pairs "
        "with a tied simplex before the swaps and of 0 after"
    )
    with pytest.raises(InternalProofViolation, match="^" + re.escape(message) + "$"):
        verify_stability(K, f0, f1)
    path = tmp_path / "edge.txt"
    path.write_text("0 : 0 1\n1 : 1 1/4\n0 1 : 2 2\n")
    _verify_violation(str(path), message)


def test_pairs_that_miss_the_end_pairs_are_a_violation(monkeypatch, tmp_path):
    # {1} and {3} swap at t = 1/2 and die at {0,1} and {2,3}; trading their
    # deaths keeps the simplices covered and the points equal there, since
    # the two births tie, but not the pairs of f1's order
    K = validate_complex([(0,), (1,), (2,), (3,), (0, 1), (2, 3)])
    f0 = FiltrationFunction(K, (0, 2, 1, 3, 4, 5))
    f1 = FiltrationFunction(K, (0, 3, 1, 2, 4, 5))

    def trade_deaths(vine, i):
        b, a = vine.perm[i : i + 2]
        k, l = vine.owner[a], vine.owner[b]
        vine.owner[a], vine.owner[b] = l, k
        vine.low[k], vine.low[l] = b, a

    _doctor_transpose(monkeypatch, trade_deaths)
    message = (
        "the pivot pairs carried to t = 1 are not those of the canonical "
        "order of f1"
    )
    with pytest.raises(InternalProofViolation, match="^" + re.escape(message) + "$"):
        verify_stability(K, f0, f1)
    path = tmp_path / "two-edges.txt"
    path.write_text("0 : 0 0\n1 : 2 3\n2 : 1 1\n3 : 3 2\n0 1 : 4 4\n2 3 : 5 5\n")
    _verify_violation(str(path), message)
