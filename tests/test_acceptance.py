"""Acceptance suite: one test per shipping criterion, all at zero tolerance.

Each test prints a single PASS/FAIL line (bypassing capture) so a plain
``pytest -v`` run shows the per-criterion verdicts inline.  The corpus
checks share two module fixtures: one generated corpus, each instance
verified once with its events recorded, and each interval of it certified
once from scratch.
"""

import random
import subprocess
import sys
from fractions import Fraction
from unittest import mock

import pytest

from phstab import bottleneck
from phstab.bottleneck import bottleneck_bijection, bottleneck_diagonal, matching_cost
from phstab.cli import run_command
from phstab.complexes import FiltrationFunction, common_scale, find_duplicate_value
from phstab.errors import PhstabError
from phstab.generate import (
    GeneratorConfig,
    generate_complex,
    generate_instance,
    random_filtration,
)
from phstab.instances import format_instance
from phstab.interpolation import interpolate, sup_norm
from phstab.ordering import total_order
from phstab.persistence import Diagram, diagram, pivot_pairs
from phstab.stability import verify_stability

from oracles import (
    brute_force_bottleneck,
    counts_by_dim,
    crossings_to_reidentify,
    diagram_rank_count,
    diagram_with_order,
    doctored_schedule_differences,
    fraction_interpolate,
    fraction_key_order,
    fraction_matching_cost,
    fraction_matrix_bottleneck,
    interval_references,
    inverse,
    persistent_betti,
    perturbed_instance,
    random_compatible_order,
    recorded_intervals,
    reference_differences,
    reidentify_calls,
    reidentify_differences,
    scan_crossing_times,
    set_pivot_pairs,
    value_grid,
    value_multiset,
    verify_recording,
)

CORPUS_SIZE = 500
SIZE_CAP = 40


def _announce(capsys, num, label, ok, detail):
    with capsys.disabled():
        print(f"\n[{num}] {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"[{num}] {label}: {detail}"


def _corpus_instances() -> list:
    """500 random instances, at most 40 simplices, dimension <= 3."""
    shapes = [(4, 0.65), (5, 0.5), (5, 0.7), (6, 0.4), (6, 0.6), (7, 0.5)]
    out = []
    seed = 0
    while len(out) < CORPUS_SIZE:
        vertices, prob = shapes[seed % len(shapes)]
        cfg = GeneratorConfig(seed=seed, num_vertices=vertices, fill_prob=prob)
        seed += 1
        inst = generate_instance(cfg)
        if len(inst.complex) <= SIZE_CAP:
            out.append(inst)
    return out


@pytest.fixture(scope="module")
def corpus():
    """The corpus instances, each verified, with its report and the events
    ``verify_recording`` recorded.  Where verify raises, the error takes
    the report's place and the events are empty, so the fixture does not
    error every test that uses it: a test that reads the reports or the
    events takes them through ``_verified``, and fails there on its own."""
    out = []
    for inst in _corpus_instances():
        try:
            out.append((inst, *verify_recording(inst.complex, *inst.functions)))
        except Exception as exc:
            out.append((inst, exc, []))
    return out


def _verified(corpus) -> list:
    """The corpus, once the calling test has asserted that verify raised
    on none of its instances."""
    raised = [(i, r) for i, (_, r, _) in enumerate(corpus) if isinstance(r, Exception)]
    assert not raised, (
        f"verify raised on {len(raised)} corpus instances, first on "
        f"instance {raised[0][0]}: {raised[0][1]!r}"
    )
    return corpus


def test_1_stability_bound_holds_everywhere(corpus, capsys):
    failures = 0
    for _, report, _ in _verified(corpus):
        if not (
            report.exact_bottleneck
            <= report.composed_cost
            <= report.sup_norm_value
        ):
            failures += 1
    _announce(
        capsys,
        1,
        "diagram distance bounded by function distance",
        failures == 0,
        f"{len(corpus)} instances, {failures} failures, exact rationals",
    )


@pytest.fixture(scope="module")
def references(corpus):
    """For each corpus instance, each interval certified from scratch, or
    the error that raised, and their chain composed (``interval_references``,
    which keeps no diagram); nothing for an instance where verify raised."""
    return [
        ([], None)
        if isinstance(report, Exception)
        else interval_references(inst.complex, *inst.functions, report.schedule)
        for inst, report, _ in corpus
    ]


def test_2_interval_certificates_stay_within_their_share(corpus, references, capsys):
    """Every interval of the corpus, certified from scratch
    (``interval_matching``: a fresh order, reduction and both endpoint
    diagrams): its pivot-identity matching, measured on those diagrams,
    costs at most the interval's share (hi - lo) * sup-norm.  A
    from-scratch certification that raised counts as a failure too."""
    intervals = 0
    failures = 0
    for (inst, report, _), (refs, _) in zip(_verified(corpus), references):
        gap = sup_norm(*inst.functions)
        bps = report.schedule.breakpoints()
        for lo, hi, ref in zip(bps, bps[1:], refs):
            intervals += 1
            if isinstance(ref, PhstabError) or ref.cost > (hi - lo) * gap:
                failures += 1
    _announce(
        capsys,
        2,
        "per-interval matchings within interval share",
        failures == 0,
        f"{intervals} intervals across {len(corpus)} instances, "
        f"{failures} over budget or not certified",
    )


def test_3_schedules_are_small_and_midpoints_untied(corpus, capsys):
    failures = 0
    for inst, report, _ in _verified(corpus):
        n = len(inst.complex)
        if len(report.schedule.times) > n * (n - 1) // 2:
            failures += 1
            continue
        f0, f1 = inst.functions
        bps = report.schedule.breakpoints()
        for lo, hi in zip(bps, bps[1:]):
            mid = fraction_interpolate(f0, f1, (lo + hi) / 2)
            if find_duplicate_value(mid) is not None:
                failures += 1
                break
    _announce(
        capsys,
        3,
        "crossing schedules bounded, interval midpoints tie-free",
        failures == 0,
        f"{len(corpus)} schedules, {failures} violations",
    )


def test_carried_certificates_equal_the_from_scratch_reference(corpus, references):
    """verify_stability carries one order and one point map across
    crossings; each interval's order and pivot pairs, its share and the
    composed matching must equal the from-scratch reference."""
    for (inst, report, events), refs in zip(_verified(corpus), references):
        differences = reference_differences(report, events, refs)
        assert not differences, f"{format_instance(inst)}{'; '.join(differences)}"


# generated at dimension <= 2, larger than the corpus complexes and with
# hundreds of crossings: (n, crossings) = (78, 672), (60, 468) and
# (66, 655).  Each fails if any one transposition case of the vineyard
# drops its column operations.
MID_SIZE = [(1, 12, 0.5, 78, 672), (2, 14, 0.4, 60, 468), (3, 16, 0.35, 66, 655)]


def _mid_size_instance(seed, vertices, prob):
    cfg = GeneratorConfig(
        seed=seed, num_vertices=vertices, fill_prob=prob, max_dimension=2
    )
    return generate_instance(cfg)


@pytest.mark.parametrize("seed, vertices, prob, n, crossings", MID_SIZE)
def test_carried_certificates_equal_the_reference_at_mid_size(
    seed, vertices, prob, n, crossings
):
    inst = _mid_size_instance(seed, vertices, prob)
    report, events = verify_recording(inst.complex, *inst.functions)
    assert (len(inst.complex), len(report.schedule)) == (n, crossings)
    refs = interval_references(inst.complex, *inst.functions, report.schedule)
    assert reference_differences(report, events, refs) == []


def test_a_doctored_schedule_is_a_violation_naming_crossing_t_and_pair(corpus):
    """verify checks the order by certificates of adjacent pairs, so a
    crossing it misses would be a certificate it never pops.  Five doctored
    copies of each schedule with at least two crossing times, on the corpus
    and at mid size, must each raise the violation they cause, naming the
    interval or crossing, t and a simplex pair (see
    ``doctored_schedule_differences``)."""
    instances = [
        inst for inst, report, _ in _verified(corpus) if len(report.schedule) > 1
    ]
    instances += [_mid_size_instance(*case[:3]) for case in MID_SIZE]
    assert len(instances) == 498
    for number, inst in enumerate(instances):
        rng = random.Random(number)
        differences = doctored_schedule_differences(
            inst.complex, *inst.functions, rng
        )
        assert not differences, f"{format_instance(inst)}{'; '.join(differences)}"


def test_int_recheck_equals_the_fraction_twin_on_the_corpus(corpus):
    """verify re-checks the composed map and the exact distance's witness
    on the diagrams' ints (``matching_cost``); on every corpus instance
    that cost, and the cost of the diagonal variant's witness, is the
    Fraction twin's, also with the right diagram held over three times its
    scale."""
    for inst, report, _ in _verified(corpus):
        D0, D1 = report.left_diagram, report.right_diagram
        stretched = Diagram(
            D1.dims,
            tuple(3 * b for b in D1.births),
            tuple(None if d is None else 3 * d for d in D1.deaths),
            3 * D1.scale,
            D1.pairs,
        )
        witnesses = (
            report.composed_matching,
            report.bottleneck_matching,
            bottleneck_diagonal(D0, D1)[1],
        )
        for m in witnesses:
            want = fraction_matching_cost(D0, D1, m)
            assert matching_cost(D0, D1, m) == want
            assert matching_cost(D0, stretched, m) == want


def test_integer_sort_equals_the_fraction_key_sort_on_the_corpus(corpus):
    """``total_order`` sorts int numerators over the complex's cached tie
    order; both functions of every corpus instance get the order of the
    (Fraction value, dimension, vertices) key sort."""
    for inst, _, _ in corpus:
        for f in inst.functions:
            assert total_order(inst.complex, f) == fraction_key_order(inst.complex, f)


def test_inversion_schedule_equals_the_all_pairs_scan_on_the_corpus(corpus):
    """``crossing_times`` visits only the pairs f0 and f1 order differently;
    its schedule must be the one found by testing every pair."""
    for inst, report, _ in _verified(corpus):
        assert report.schedule == scan_crossing_times(*inst.functions), (
            format_instance(inst)
        )


def test_bitset_reduction_equals_the_set_reduction_on_the_corpus(corpus):
    """Int bitset columns give the pair tuple of set columns under both
    canonical orders of every corpus instance and under every carried
    order verify reduces."""
    orders = 0
    for inst, _, events in _verified(corpus):
        K = inst.complex
        canonical = [total_order(K, f) for f in inst.functions]
        reduced = recorded_intervals(events)
        for order in canonical:
            assert pivot_pairs(K, order) == set_pivot_pairs(K, order)
        for order, pairs in reduced:
            assert pairs == set_pivot_pairs(K, order), format_instance(inst)
        orders += len(canonical) + len(reduced)
    assert orders > 10_000


def test_local_reidentification_equals_the_bucket_twin(corpus):
    """At every crossing of the corpus, re-identifying only the pairs with
    a tied simplex by value gives the map of bucketing every pair.  The
    corpus has over 200 crossings where two points of one pair list are
    equal, so the tie-break by list order decides the map there."""
    crossings = equal_points = 0
    for inst, _, events in _verified(corpus):
        c, e, differences = reidentify_differences(inst.complex, *inst.functions, events)
        assert not differences, f"{format_instance(inst)}{'; '.join(differences)}"
        crossings += c
        equal_points += e
    assert crossings > 10_000 and equal_points > 200


def test_reidentification_runs_only_where_a_pair_changes_or_points_are_equal():
    """A crossing where no pivot pair changes, and no two pairs with a tied
    simplex have equal points, keeps every point in place, so verify does
    not re-identify there.  On the corpus and at mid size,
    ``_reidentify`` runs at exactly the crossings where the recorded events
    show a changed pair or two such equal points.  This counts work
    without a clock: 2416 of the 18,531 crossings, 2197 of them with a
    changed pair.  It verifies the corpus itself, so a verify that raises
    fails this test, not the shared fixture."""
    instances = _corpus_instances()
    instances += [_mid_size_instance(*case[:3]) for case in MID_SIZE]
    called = crossings = 0
    for inst in instances:
        calls, events = reidentify_calls(inst.complex, *inst.functions)
        want = crossings_to_reidentify(inst.complex, *inst.functions, events)
        assert calls == want, format_instance(inst)
        called += len(calls)
        crossings += sum(kind == "crossing" for kind, *_ in events)
    assert (called, crossings) == (2416, 18_531)


def test_interpolate_is_the_convex_combination_at_every_breakpoint(corpus):
    # the ints at t = p/q are over q * L, L the functions' shared scale
    for inst, report, _ in _verified(corpus):
        f0, f1 = inst.functions
        a, b, L = common_scale(f0, f1)
        for t in report.schedule.breakpoints():
            want = [(1 - t) * x + t * y for x, y in zip(f0.values, f1.values)]
            got = interpolate(a, b, t)
            assert [Fraction(v, t.denominator * L) for v in got] == want


def test_4_point_counts_depend_only_on_the_complex(capsys):
    rng = random.Random(404)
    complexes = 0
    failures = 0
    for seed in range(10):
        K = generate_complex(
            rng, GeneratorConfig(seed=seed, num_vertices=5, fill_prob=0.6)
        )
        complexes += 1
        reference = None
        for _ in range(20):
            f = random_filtration(K, rng)
            counts = counts_by_dim(diagram(K, f))
            if reference is None:
                reference = counts
            elif counts != reference:
                failures += 1
    _announce(
        capsys,
        4,
        "per-dimension point counts constant per complex",
        failures == 0,
        f"{complexes} complexes x 20 filtrations, {failures} mismatches",
    )


def test_5_diagonal_matching_never_costs_more(corpus, capsys):
    pairs = 0
    failures = 0
    for _, report, _ in _verified(corpus):
        D0, D1 = report.left_diagram, report.right_diagram
        d_diag, _ = bottleneck_diagonal(D0, D1)
        pairs += 1
        if d_diag > report.exact_bottleneck:
            failures += 1
        # both variants equal their from-scratch twin on Fraction matrices
        assert report.exact_bottleneck == fraction_matrix_bottleneck(D0, D1)
        assert d_diag == fraction_matrix_bottleneck(D0, D1, diagonal=True)
    _announce(
        capsys,
        5,
        "diagonal-augmented distance at most bijection distance",
        failures == 0,
        f"{pairs} diagram pairs, {failures} violations, exact comparison",
    )


def _bounded_twin_differences(D0, D1, gap):
    """Both variants with bound = sup-norm and bound = exact distance
    against the unbounded run, the reference: their (cost, Matching)
    differences as text."""
    out = []
    for variant in (bottleneck_bijection, bottleneck_diagonal):
        reference = variant(D0, D1)
        for bound in (gap, reference[0]):
            got = variant(D0, D1, bound=bound)
            if got != reference:
                out.append(f"{variant.__name__} bound {bound}: {got} != {reference}")
    return out


def _edge_count(run):
    """Total edges the matcher core gets while ``run()`` runs."""
    count = 0
    real = bottleneck._min_max_matching

    def counting(rows):
        nonlocal count
        count += sum(map(len, rows))
        return real(rows)

    with mock.patch.object(bottleneck, "_min_max_matching", counting):
        run()
    return count


def test_bounded_matcher_equals_the_unbounded_run(corpus):
    """A bound of the sup-norm or of the exact distance changes neither
    cost nor witness, on the corpus and on perturbed instances, where the
    bound leaves each point few partners."""
    for inst, report, _ in _verified(corpus):
        D0, D1 = report.left_diagram, report.right_diagram
        differences = _bounded_twin_differences(D0, D1, report.sup_norm_value)
        assert not differences, f"{format_instance(inst)}{'; '.join(differences)}"
    unbounded = bounded = 0  # edges the bijection variant hands the core
    for seed in range(24):
        cfg = GeneratorConfig(
            seed=seed, num_vertices=7 + seed % 3, fill_prob=0.5, max_dimension=2
        )
        inst = perturbed_instance(cfg, Fraction(1, 16 << seed % 4))
        K, (f0, f1) = inst.complex, inst.functions
        D0, D1 = diagram(K, f0), diagram(K, f1)
        gap = sup_norm(f0, f1)
        differences = _bounded_twin_differences(D0, D1, gap)
        assert not differences, f"{format_instance(inst)}{'; '.join(differences)}"
        unbounded += _edge_count(lambda: bottleneck_bijection(D0, D1))
        bounded += _edge_count(lambda: bottleneck_bijection(D0, D1, bound=gap))
    # the window prunes: most pairs of points are farther apart than gap
    assert bounded * 3 < unbounded, (bounded, unbounded)


def test_6_tie_break_choice_never_changes_the_diagram(capsys):
    rng = random.Random(606)
    tied = 0
    failures = 0
    seed = 0
    while tied < 100:
        K = generate_complex(
            rng, GeneratorConfig(seed=seed, num_vertices=5, fill_prob=0.6)
        )
        seed += 1
        f = random_filtration(K, rng, unique=False)
        if find_duplicate_value(f) is None:
            continue
        tied += 1
        reference = value_multiset(diagram(K, f))
        for _ in range(5):
            order = random_compatible_order(K, f, rng)
            if value_multiset(diagram_with_order(K, f, order)) != reference:
                failures += 1
    _announce(
        capsys,
        6,
        "all tie-break orders give one diagram",
        failures == 0,
        f"{tied} tied filtrations x 5 sampled orders, {failures} mismatches",
    )


def test_7_independent_oracles_agree(capsys):
    # exact matcher vs exhaustive permutation search
    trials = 0
    seed = 0
    mismatches = 0
    while trials < 200:
        inst = generate_instance(
            GeneratorConfig(seed=7000 + seed, num_vertices=4, max_dimension=2, fill_prob=0.6)
        )
        seed += 1
        D0 = diagram(inst.complex, inst.functions[0])
        D1 = diagram(inst.complex, inst.functions[1])
        counts = list(counts_by_dim(D0).values()) + list(counts_by_dim(D1).values())
        if any(c > 7 for c in counts):
            continue
        trials += 1
        fast, _ = bottleneck_bijection(D0, D1)
        if fast != brute_force_bottleneck(D0, D1):
            mismatches += 1

    # pairing counts vs sublevel rank arithmetic
    rank_trials = 0
    seed = 0
    rank_failures = 0
    while rank_trials < 100:
        cfg = GeneratorConfig(
            seed=7500 + seed, num_vertices=4, max_dimension=2, fill_prob=0.5
        )
        seed += 1
        rng = random.Random(cfg.seed)
        K = generate_complex(rng, cfg)
        if len(K) > 12:
            continue
        f = random_filtration(K, rng)
        rank_trials += 1
        D = diagram(K, f)
        raw = [s.vertices for s in K.simplices]
        vals = list(f.values)
        grid = value_grid(vals)
        for i, a in enumerate(grid):
            for b in grid[i:]:
                for k in range(K.dim + 1):
                    if diagram_rank_count(D.points, k, a, b) != persistent_betti(
                        raw, vals, k, a, b
                    ):
                        rank_failures += 1
    _announce(
        capsys,
        7,
        "matcher equals brute force; pairing equals rank oracle",
        mismatches == 0 and rank_failures == 0,
        f"{trials} matcher trials ({mismatches} off), "
        f"{rank_trials} rank trials ({rank_failures} off)",
    )


def test_8_everything_is_deterministic(corpus, capsys, tmp_path, cli_env):
    stable = True
    # pair lists: recompute from scratch on a corpus slice
    for inst, _, _ in corpus[:20]:
        order = total_order(inst.complex, inst.functions[0])
        if pivot_pairs(inst.complex, order) != pivot_pairs(inst.complex, order):
            stable = False
    # reports: identical in-process CLI output
    path = tmp_path / "det.txt"
    path.write_text(format_instance(corpus[0][0]))
    for argv in (
        ["diagram", str(path)],
        ["crossings", str(path)],
        ["verify", str(path), "--machine"],
    ):
        if run_command(argv) != run_command(argv):
            stable = False
    # and byte-identical across separate processes
    cmd = [sys.executable, "-m", "phstab.cli", "verify", str(path), "--machine"]
    a = subprocess.run(cmd, capture_output=True, env=cli_env)
    b = subprocess.run(cmd, capture_output=True, env=cli_env)
    if a.stdout != b.stdout or a.returncode != 0:
        stable = False
    _announce(
        capsys,
        8,
        "repeated runs byte-identical",
        stable,
        "pair lists, CLI reports, separate processes",
    )


def test_9_tiny_perturbations_move_diagrams_no_farther(capsys):
    rng = random.Random(909)
    checked = 0
    failures = 0
    for eps in (Fraction(1, 10), Fraction(1, 100), Fraction(1, 1000)):
        for seed in range(5):
            K = generate_complex(
                rng, GeneratorConfig(seed=seed, num_vertices=5, fill_prob=0.6)
            )
            f0 = random_filtration(K, rng)
            order = total_order(K, f0)
            n = len(K)
            # distinct offsets, increasing along the order, peaking at 1
            offsets = [Fraction(pos + 1, n) for pos in inverse(order)]
            f1 = FiltrationFunction(
                K, tuple(v + eps * o for v, o in zip(f0.values, offsets))
            )
            if sup_norm(f0, f1) != eps:
                failures += 1
                continue
            report = verify_stability(K, f0, f1)
            checked += 1
            if report.exact_bottleneck > eps:
                failures += 1
    _announce(
        capsys,
        9,
        "eps-sized shifts move diagrams at most eps",
        failures == 0,
        f"{checked} instances over eps in {{1/10, 1/100, 1/1000}}, {failures} violations",
    )
