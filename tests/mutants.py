"""A mutation catalogue: small edits of ``src/`` that named tests must kill.

Each entry is (file, exact old text, new text, test node ids).  For each,
the runner copies ``src/`` to a temporary directory, replaces the old text
in the copy, and runs the node ids with pytest, ``PYTHONPATH`` set to the
copy.  Every named test must then fail on its own: only a FAILED outcome
is a kill.  A test that errors (ERROR, as when a fixture it shares with
other tests raises) is reported as errored, which is not a kill, since
its own assertion was never reached.  Each mutant's pytest run is cut at
``TIME_LIMIT`` seconds, far above the slowest entry's, and a run cut there
is reported as TIMED OUT, which is not a kill either: a mutant that makes
the code loop shows that no named test FAILED.  The catalogue fails
(exit 1) if an old text does not occur exactly once in its file, if
pytest does not run a named test, if a named test passes or errors under
its mutant, or if a run times out.  Standard library and pytest only; run
it from anywhere:

    python tests/mutants.py
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Seconds one mutant's pytest run may take; the slowest entry takes about 15 s.
TIME_LIMIT = 120
TIMED_OUT = "TIMED OUT"

# The crafted runs; "apart" and "across" hold equal points whose deaths tie
# in a run of edges, without and with a switch
CRAFTED = "tests/test_acceptance.py::test_crafted_runs_equal_the_reference_and_the_twins"
EQUAL_DEATHS = [CRAFTED + "[1-5-1-False-apart]", CRAFTED + "[2-6-1-False-across]"]
BUCKET_TWIN = "tests/test_acceptance.py::test_local_reidentification_equals_the_bucket_twin"
SWAPPING_PIN = "tests/test_cli.py::test_verify_machine_of_two_swapping_vertices_is_pinned"

CATALOGUE = [
    # a diagram reads each death from the birth simplex
    (
        "src/phstab/persistence.py",
        "tuple(None if d is None else nums[d] for d in death_simplices)",
        "tuple(None if d is None else nums[b] for b, d in zip(birth_simplices, death_simplices))",
        [
            "tests/test_acceptance.py::test_2_interval_certificates_stay_within_their_share",
            "tests/test_acceptance.py::test_carried_certificates_equal_the_from_scratch_reference",
        ],
    ),
    # re-identification at a crossing gives each point the last unused
    # equal point instead of the first
    (
        "src/phstab/stability.py",
        "step.append(bucket.pop())",
        "step.append(bucket.pop(0))",
        [BUCKET_TWIN, SWAPPING_PIN, *EQUAL_DEATHS],
    ),
]

# The three mid-size reference cases, which carry one vineyard across
# hundreds of crossings.
MID_SIZE = [
    "tests/test_acceptance.py::test_carried_certificates_equal_the_reference_at_mid_size"
    + case
    for case in ("[1-12-0.5-78-672]", "[2-14-0.4-60-468]", "[3-16-0.35-66-655]")
]

# Vineyard.transpose, one mutant per branch: each drops that branch's column
# operations or its pivot hand-over.
CATALOGUE += [
    ("src/phstab/persistence.py", old, new, MID_SIZE)
    for old, new in [
        # both give birth: V loses its entry at (a, b)
        (
            "            if a_in_vb:\n                V[b] ^= V[a]\n            k, l",
            "            k, l",
        ),
        # both give birth, a essential: b's death passes to a
        (
            "low[l], owner[a], owner[b] = a, l, None",
            "pass",
        ),
        # both give birth, k before l: l takes k's column
        (
            "                    R[l] ^= R[k]\n                    V[l] ^= V[k]\n",
            "                    pass\n",
        ),
        # both give birth, l before k: k takes l's column
        (
            "                    R[k] ^= R[l]\n                    V[k] ^= V[l]\n",
            "",
        ),
        # both die: b takes a's column
        (
            "                R[b] ^= R[a]\n                V[b] ^= V[a]\n                if",
            "                if",
        ),
        # both die, low of a after low of b: a takes b's column
        (
            "                    R[a] ^= R[b]\n                    V[a] ^= V[b]\n",
            "",
        ),
        # a dies, b gives birth: the two column additions
        (
            "                R[b] ^= R[a]\n                V[b] ^= V[a]\n"
            "                R[a] ^= R[b]\n                V[a] ^= V[b]\n",
            "",
        ),
        # a gives birth, b dies: V loses its entry at (a, b)
        (
            "        elif a_in_vb:  # a gives birth, b dies\n            V[b] ^= V[a]",
            "        elif a_in_vb:  # a gives birth, b dies\n            pass",
        ),
    ]
]

# matching_cost, the int cost that verify re-checks its matchings with
CATALOGUE += [
    # a matched pair costs its birth gap alone
    (
        "src/phstab/bottleneck.py",
        "cost = max(abs(b0 - b1), abs(d0 - d1))",
        "cost = abs(b0 - b1)",
        [
            "tests/test_bottleneck.py::test_matching_cost_pins_its_messages_and_equals_the_fraction_twin",
            "tests/test_stability.py::test_verify_stability_random_instances",
            "tests/test_acceptance.py::test_int_recheck_equals_the_fraction_twin_on_the_corpus",
        ],
    ),
    # a matching that leaves a point out is not rejected
    (
        "src/phstab/bottleneck.py",
        "if len(used0) != len(dims0) or len(used1) != len(dims1):",
        "if False:",
        [
            "tests/test_bottleneck.py::test_matching_cost_pins_its_messages_and_equals_the_fraction_twin",
        ],
    ),
]

# The diagonal variant's real-point search and the witness on demand
TWIN = "tests/test_bottleneck.py::test_diagonal_variant_equals_the_augmented_twin"
CATALOGUE += [
    # the points of D1 are never heavy, so a probe checks only the heavy
    # points of D0
    (
        "src/phstab/bottleneck.py",
        "(columns, halves1, len(pts0))]",
        "(columns, [0] * len(pts1), len(pts0))]",
        [TWIN],
    ),
    # a point is heavy when half its lifetime reaches the limit
    (
        "src/phstab/bottleneck.py",
        "cut = [u for u, c in enumerate(need) if c > limit]",
        "cut = [u for u, c in enumerate(need) if c >= limit]",
        [TWIN],
    ),
    # a carried matching is not cut to the limit: a row that lost its
    # edge is a root but still holds its column
    (
        "src/phstab/bottleneck.py",
        "                    trial_owner[trial[u]] = None\n                    trial[u] = None\n",
        "                    pass\n",
        [
            TWIN,
            "tests/test_bottleneck.py::"
            "test_carried_search_equals_the_from_scratch_twin_on_random_rows",
        ],
    ),
    # --matching prints without building the witness
    (
        "src/phstab/cli.py",
        "witness=args.matching",
        "witness=False",
        ["tests/test_acceptance.py::test_the_distance_alone_runs_no_witness_search"],
    ),
]

# The crossing step's skip of the re-identification, where no pair changes
# and no two points can be equal
WORK_COUNT = (
    "tests/test_acceptance.py::"
    "test_reidentification_runs_only_where_a_pair_changes_or_points_are_equal"
)
CATALOGUE += [
    # the snapshot reads each tied label's pivot row but not its owner, so
    # a death that passes between two births goes unseen
    (
        "src/phstab/stability.py",
        "return [(low[x], owner[x]) for x in tied]",
        "return [low[x] for x in tied]",
        [
            *MID_SIZE,
            WORK_COUNT,
            "tests/test_cli.py::test_verify_machine_of_a_ladder_instance_is_pinned",
        ],
    ),
    # the skip without the equal-point guard, so two equal points are
    # never crossed
    (
        "src/phstab/stability.py",
        "if held != links() or len(points) != len(born):",
        "if held != links():",
        [*MID_SIZE, WORK_COUNT, BUCKET_TWIN, SWAPPING_PIN],
    ),
    # a tied death keyed by its own label, not by its class, so two points
    # whose deaths tie are taken as distinct, in the skip and the buckets
    (
        "src/phstab/stability.py",
        "run_of.get(y, y)",
        "y",
        [WORK_COUNT, BUCKET_TWIN, *EQUAL_DEATHS],
    ),
    # a tied birth keyed by its own label, not by its class, so no two
    # points are ever equal and a pair whose birth moves has no partner
    (
        "src/phstab/stability.py",
        "run_of.get(x, x)",
        "x",
        [WORK_COUNT, BUCKET_TWIN, SWAPPING_PIN, *EQUAL_DEATHS],
    ),
    # a re-identification that stops at a pair with no partner is not
    # raised, so the point map silently loses the pairs after it
    (
        "src/phstab/stability.py",
        "if len(step) < len(left):",
        "if False:",
        ["tests/test_stability.py::test_a_pair_with_no_partner_is_named_by_its_simplices"],
    ),
]

# The schedule drives the sweep: each scheduled pair is checked at its
# time, the pairs of one dimension are reversed as blocks of the order, and
# the inversion count stands in for a check of the order per interval
ACROSS = "tests/test_stability.py::test_schedule_faults_across_dimensions_are_violations"
DOCTORED = (
    "tests/test_acceptance.py::"
    "test_a_doctored_schedule_is_a_violation_naming_crossing_t_and_pair"
)
CATALOGUE += [
    # pairs of two dimensions join the classes too, so a vertex and an
    # edge can swap and the order is no longer by dimension
    (
        "src/phstab/stability.py",
        "if dim_of[i] == dim_of[j]:",
        "if True:",
        [
            "tests/test_stability.py::test_verify_stability_random_instances",
            "tests/test_acceptance.py::test_transpositions_are_the_same_dimension_crossing_pairs",
            MID_SIZE[0],
        ],
    ),
    # a scheduled pair need not tie at its time
    (
        "src/phstab/stability.py",
        " and v == w):",
        "):",
        [ACROSS + "[moved]", ACROSS + "[added]", DOCTORED],
    ),
    # the schedule's pair count is not checked against the inversions, so
    # a pair of two dimensions may be missing
    (
        "src/phstab/stability.py",
        "if count != inversions:",
        "if False:",
        [ACROSS + "[dropped]", ACROSS + "[dropped-across]", DOCTORED],
    ),
    # a pair may be listed twice at one time
    (
        "src/phstab/stability.py",
        "previous < pair and i < j",
        "i < j",
        [ACROSS + "[twice]"],
    ),
    # a pair may be listed as (j, i), so one inversion could count twice
    (
        "src/phstab/stability.py",
        "and i < j and a[i] != a[j]",
        "and a[i] != a[j]",
        [ACROSS + "[reversed]"],
    ),
    # a pair's lines need not differ at 0, so identical lines can be
    # scheduled and swapped
    (
        "src/phstab/stability.py",
        "and a[i] != a[j] and v == w",
        "and v == w",
        ["tests/test_stability.py::test_identical_lines_are_never_scheduled"],
    ),
    # a class need not be a block of the order, so a missed crossing
    # reverses simplices that do not tie; the key check after the swaps
    # then names the same missed pair, so only the transpositions tell
    (
        "src/phstab/stability.py",
        "if max(at) - start >= len(at):",
        "if False:",
        [
            "tests/test_stability.py::"
            "test_a_class_that_is_no_block_is_raised_before_any_transposition"
        ],
    ),
    # the crossing times need not increase, so a pair may be listed twice
    (
        "src/phstab/stability.py",
        "if p * lo.denominator <= lo.numerator * q:",
        "if False:",
        [ACROSS + "[time-twice]"],
    ),
]

# A run of four or more reversed only in part: the corpus has no run longer
# than three, so only the crafted runs can tell
CATALOGUE += [
    (
        "src/phstab/persistence.py",
        "for last in range(end - 1, start, -1):",
        "for last in range(min(end - 1, start + 2), start, -1):",
        [
            CRAFTED + case
            for case in (
                "[4-4-1-False]", "[5-5-2-True]", "[6-6-1-True]", "[7-7-2-False]",
                "[8-8-1-True]", "[0-5-2-False]", "[0-5-2-True]",
                "[1-5-1-False-apart]", "[2-6-1-False-across]",
            )
        ],
    ),
]

# The key scale of the crossing times: distinct times must get keys at
# least one apart, which span alone does not give
CATALOGUE += [
    (
        "src/phstab/interpolation.py",
        "return span * span",
        "return span",
        [
            "tests/test_interpolation.py::test_the_closest_crossing_times_get_adjacent_keys",
            "tests/test_interpolation.py::"
            "test_keys_one_apart_at_the_largest_span_are_two_times[101]",
            "tests/test_interpolation.py::"
            "test_time_keys_are_exact_for_huge_values_over_large_denominators",
        ],
    ),
]

# The reader: the parse loop, the value reader and the simplex and complex
# checks it calls, each against the fuzzed reference twin and a pinned test
FUZZ = (
    "tests/test_instances.py::"
    "test_the_reader_equals_the_reference_parse_on_fuzzed_files"
)
CATALOGUE += [
    # a simplex accepts a vertex twice
    (
        "src/phstab/complexes.py",
        '            if len(set(verts)) != len(verts):\n'
        '                raise ValueError(f"duplicate vertex in {verts}")\n',
        "",
        [FUZZ, "tests/test_complexes.py::test_simplex_rejects_bad_vertices"],
    ),
    # validate_complex misses a duplicate simplex
    (
        "src/phstab/complexes.py",
        "for pos, t in canon if len(K.index) < len(K) else ():",
        "for pos, t in ():",
        [
            FUZZ,
            "tests/test_complexes.py::test_validate_complex_collects_every_issue",
            "tests/test_instances.py::test_a_duplicate_is_reported_at_its_own_line",
        ],
    ),
    # the faces of a simplex listed in combinations order, so its missing
    # faces are reported in another order
    (
        "src/phstab/complexes.py",
        "tuple(combinations(vertices, len(vertices) - 1))[::-1]",
        "tuple(combinations(vertices, len(vertices) - 1))",
        [
            "tests/test_complexes.py::test_facets_of_triangle",
            "tests/test_complexes.py::test_validate_complex_collects_every_issue",
        ],
    ),
    # a line whose width differs from the first data line's is kept
    (
        "src/phstab/instances.py",
        "if len(row) != width:",
        "if False:",
        [
            FUZZ,
            "tests/test_instances.py::test_parse_collects_all_problems_with_line_numbers",
        ],
    ),
    # read_value drops the sign of a p/q value
    (
        "src/phstab/rational.py",
        "return int(numerator), d",
        "return abs(int(numerator)), d",
        [FUZZ, "tests/test_rational.py::test_read_value_equals_to_fraction"],
    ),
]

# The lean pass that reads a valid file, and the reduction without V that
# diagrams and pivot pairs use: each against its twin
LINE_BY_LINE = (
    "tests/test_instances.py::test_only_a_file_with_a_problem_is_read_line_by_line"
)
BAD_VERTEX = (
    "tests/test_instances.py::test_a_bad_vertex_is_named_though_every_face_is_listed"
)
V_FREE = "tests/test_acceptance.py::test_the_v_free_reduction_equals_the_vineyard_"
CATALOGUE += [
    # the lean pass accepts a duplicate simplex
    (
        "src/phstab/instances.py",
        "        or len(K.index) < len(tuples)  # a duplicate simplex\n",
        "",
        [
            FUZZ,
            LINE_BY_LINE,
            "tests/test_instances.py::test_a_duplicate_is_reported_at_its_own_line",
        ],
    ),
    # the lean pass accepts a missing face
    (
        "src/phstab/instances.py",
        "        or None in chain.from_iterable(K.facet_positions)  # a missing face\n",
        "",
        [
            FUZZ,
            LINE_BY_LINE,
            "tests/test_instances.py::test_parse_reports_missing_faces_with_lines",
        ],
    ),
    # the lean pass accepts a negative vertex, which a file can list with
    # every face of its simplices
    (
        "src/phstab/instances.py",
        "        or lowest[0] < 0\n",
        "",
        [BAD_VERTEX],
    ),
    # the lean pass accepts a vertex listed twice in a simplex
    (
        "src/phstab/instances.py",
        "        or sum(map(len, tuples)) != sum(map(len, vertex_tokens))  # a vertex twice\n",
        "",
        [BAD_VERTEX],
    ),
    # the reduction without V clears a column's pivot row instead of
    # adding the pivot's column
    (
        "src/phstab/persistence.py",
        "            col ^= R[k]\n",
        "            col ^= R[k] if V else 1 << r\n",
        [
            V_FREE + "on_the_corpus",
            "tests/test_persistence.py::"
            "test_bitset_reduction_equals_the_set_reduction_on_tied_instances",
            "tests/test_acceptance.py::test_7_independent_oracles_agree",
        ],
    ),
    # a diagram's pivot pairs swap birth and death
    (
        "src/phstab/persistence.py",
        "return tuple(map(PivotPair, self.birth_simplices, self.death_simplices))",
        "return tuple(map(PivotPair, self.death_simplices, self.birth_simplices))",
        [
            V_FREE + "on_the_corpus",
            "tests/test_persistence.py::test_edge_diagram_records_pivot_simplices",
            "tests/test_cli.py::test_diagram_of_every_literal_form_is_pinned",
        ],
    ),
]

_OUTCOME = re.compile(r"(PASSED|FAILED|ERROR) (\S+)")


def survivors(file: str, old: str, new: str, tests: list) -> list:
    """What keeps one mutant alive, as text; empty if every test kills it."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp, "src")
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        path = Path(tmp, file)
        text = path.read_text()
        if text.count(old) != 1:
            return [f"old text occurs {text.count(old)} times in {file}"]
        path.write_text(text.replace(old, new))
        env = {**os.environ, "PYTHONPATH": str(src)}
        # pyproject's pythonpath would put the checkout's src/ first
        cmd = [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider"]
        cmd += ["-o", "pythonpath=", *tests]
        try:
            done = subprocess.run(
                cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                timeout=TIME_LIMIT,
            )
        except subprocess.TimeoutExpired:
            return [f"{TIMED_OUT} after {TIME_LIMIT} s: no named test FAILED"]
    outcomes: dict = {}
    for line in done.stdout.splitlines():
        m = _OUTCOME.match(line)
        if m:
            outcomes.setdefault(m[2], set()).add(m[1])
    out = []
    for test in tests:
        got = outcomes.get(test)
        if not got:
            out.append(f"{test} did not run")
        elif "FAILED" not in got:
            out.append(f"{test} {'errored' if 'ERROR' in got else 'passed'}")
    return out


def main() -> int:
    failed = 0
    for file, old, new, tests in CATALOGUE:
        start = time.perf_counter()
        problems = survivors(file, old, new, tests)
        took = time.perf_counter() - start
        verdict = "killed" if not problems else "SURVIVED"
        if problems and problems[0].startswith(TIMED_OUT):
            verdict = TIMED_OUT
        print(f"{verdict} ({took:.1f} s): {file}: {old!r} -> {new!r}")
        for line in problems or tests:
            print(f"    {line}")
        failed += bool(problems)
    print(f"{len(CATALOGUE) - failed} of {len(CATALOGUE)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
