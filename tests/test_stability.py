import random
from fractions import Fraction

import pytest

from phstab import stability
from phstab.bottleneck import Matching, bottleneck_bijection, matching_cost
from phstab.cli import run_command
from phstab.complexes import FiltrationFunction, validate_complex
from phstab.errors import (
    ChainMismatch,
    InternalProofViolation,
    InvalidFiltration,
    MultisetMismatch,
    NonUniqueValues,
    OrderNotConstant,
)
from phstab.generate import (
    GeneratorConfig,
    generate_complex,
    generate_instance,
    random_compatible_order,
    random_filtration,
)
from phstab.interpolation import CrossingSchedule, crossing_times
from phstab.ordering import check_order_compatible
from phstab.persistence import diagram, diagram_with_order
from phstab.stability import (
    breakpoint_matching,
    compose_matchings,
    interval_matching,
    verify_stability,
)

EDGE = [(0,), (1,), (0, 1)]


def test_interval_certificate_on_half_interval():
    K = validate_complex(EDGE)
    f0 = FiltrationFunction(K, (0, 1, 2))
    f1 = FiltrationFunction(K, (1, Fraction(1, 4), 2))
    # vertices swap at t = 4/7; the left interval is certified in one piece
    cert = interval_matching(K, f0, f1, 0, Fraction(4, 7))
    # every simplex is a coordinate of some point, so cost == bound exactly
    assert cert.cost == cert.bound == Fraction(4, 7) * 1
    assert len(cert.matching) == len(cert.left.points)
    assert cert.left.points == diagram(K, f0).points
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
    cert = interval_matching(K, f, f, 0, 1)
    assert cert.cost == 0
    assert cert.bound == 0
    assert cert.left.points == cert.right.points


def test_breakpoint_matching_between_tie_break_orders():
    rng = random.Random(21)
    for seed in range(10):
        K = generate_complex(rng, GeneratorConfig(seed=seed, num_vertices=5))
        f = random_filtration(K, rng, unique=False)
        D_a = diagram_with_order(K, f, random_compatible_order(K, f, rng))
        D_b = diagram_with_order(K, f, random_compatible_order(K, f, rng))
        m = breakpoint_matching(D_a, D_b)
        assert matching_cost(D_a, D_b, m) == 0


def test_breakpoint_matching_rejects_different_functions():
    K = validate_complex(EDGE)
    D_a = diagram(K, FiltrationFunction(K, (0, 1, 2)))
    D_b = diagram(K, FiltrationFunction(K, (0, 1, 3)))
    with pytest.raises(MultisetMismatch):
        breakpoint_matching(D_a, D_b)


def test_compose_matchings():
    a = Matching(((0, 1), (1, 0)))
    b = Matching(((0, 0), (1, 1)))
    assert compose_matchings([a, b]).pairs == ((0, 1), (1, 0))
    assert compose_matchings([a, a]).pairs == ((0, 0), (1, 1))
    with pytest.raises(ChainMismatch):
        compose_matchings([])
    with pytest.raises(ChainMismatch):
        compose_matchings([a, Matching(((0, 0),))])


def test_verify_stability_single_crossing():
    K = validate_complex(EDGE)
    f0 = FiltrationFunction(K, (0, 1, 2))
    f1 = FiltrationFunction(K, (1, Fraction(1, 4), 2))
    report = verify_stability(K, f0, f1)
    assert report.holds
    assert report.sup_norm_value == 1
    assert report.schedule.times == (Fraction(4, 7),)
    assert len(report.certificates) == 2
    assert report.composed_cost == Fraction(1, 4)
    assert report.exact_bottleneck == Fraction(1, 4)
    assert report.left_diagram == diagram(K, f0, "f0")
    assert report.right_diagram == diagram(K, f1, "f1")


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
    assert report.holds


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
        assert report.holds
        assert report.exact_bottleneck <= report.composed_cost
        assert report.composed_cost <= report.sup_norm_value
        for cert in report.certificates:
            assert cert.cost <= cert.bound
            assert cert.bound == (cert.t_hi - cert.t_lo) * report.sup_norm_value
        # the composed matching is a genuine bijection with the stated cost
        assert (
            matching_cost(
                report.left_diagram, report.right_diagram, report.composed_matching
            )
            == report.composed_cost
        )


def _vertices(n):
    return validate_complex([(v,) for v in range(n)])


def _same_as_reference(K, f0, f1, report):
    for cert in report.certificates:
        ref = interval_matching(K, f0, f1, cert.t_lo, cert.t_hi)
        assert cert.order_used == ref.order_used
        assert cert.left == ref.left and cert.right == ref.right
        assert cert.matching == ref.matching
        assert (cert.cost, cert.bound) == (ref.cost, ref.bound)


def test_three_way_tie_reverses_its_run():
    # three lines through (1/2, 1): all three pairs swap at once
    K = _vertices(3)
    f0 = FiltrationFunction(K, (0, 1, 2))
    f1 = FiltrationFunction(K, (2, 1, 0))
    report = verify_stability(K, f0, f1)
    assert report.schedule.times == (Fraction(1, 2),)
    assert report.schedule.pairs_at == (((0, 1), (0, 2), (1, 2)),)
    first, second = report.certificates
    assert first.order_used.permutation == (0, 1, 2)
    assert second.order_used.permutation == (2, 1, 0)
    _same_as_reference(K, f0, f1, report)
    assert report.holds


def test_two_disjoint_pairs_swap_at_one_time():
    K = _vertices(4)
    f0 = FiltrationFunction(K, (0, 1, 10, 11))
    f1 = FiltrationFunction(K, (1, 0, 11, 10))
    report = verify_stability(K, f0, f1)
    assert report.schedule.times == (Fraction(1, 2),)
    assert report.schedule.pairs_at == (((0, 1), (2, 3)),)
    assert report.certificates[1].order_used.permutation == (1, 0, 3, 2)
    _same_as_reference(K, f0, f1, report)
    assert report.holds


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


def test_interior_tie_is_a_violation_naming_interval_t_and_pair(monkeypatch):
    # identical lines tie everywhere; reachable only past the uniqueness check
    K = _vertices(2)
    f = FiltrationFunction(K, (0, 0))
    _doctor_schedule(monkeypatch, CrossingSchedule((), ()))
    with pytest.raises(InternalProofViolation) as ei:
        verify_stability(K, f, f)
    message = str(ei.value)
    assert "interval 0 [0, 1]" in message and "t = 1/2" in message
    assert "({0}, {1})" in message


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
    ],
)
def test_ties_exit_one_through_verify(tmp_path, text, message):
    # the uniqueness check runs once, inside crossing_times
    path = tmp_path / "tie.txt"
    path.write_text(text)
    assert run_command(["verify", str(path)]) == (1, message)


def _wrong_witness(D0, D1):
    """The exact distance with the matching reversed inside each dimension."""
    exact, witness = bottleneck_bijection(D0, D1)
    reversed_pairs = []
    for d in D0.dims():
        idx0, idx1 = D0.points_in_dim(d), D1.points_in_dim(d)
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
        lambda D0, D1: (1, Matching(((0, 0), (1, 1)))),
    )
    with pytest.raises(InternalProofViolation, match="witness is not a bijection"):
        verify_stability(K, f0, f1)
