import random
import re
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from phstab import generate
from phstab.bottleneck import bottleneck_bijection, bottleneck_diagonal
from phstab.cli import run_command
from phstab.complexes import Simplex
from phstab.generate import GeneratorConfig
from phstab.instances import format_instance, parse_instance
from phstab.persistence import PivotPair, Vineyard, diagram

from oracles import diagonal_cost, is_essential, pair_cost, perturbed_instance

EDGE_TWO = "0 : 0 1\n1 : 1 0.25\n0 1 : 2 2\n"
EDGE_ONE = "0 : 0\n1 : 1\n0 1 : 2\n"


@pytest.fixture
def instance(tmp_path):
    p = tmp_path / "edge.txt"
    p.write_text(EDGE_TWO)
    return str(p)


def _ok(argv):
    status, text = run_command(argv)
    assert status == 0, text
    return text


def test_validate(instance):
    text = _ok(["validate", instance])
    assert "3 simplices" in text
    assert "f0: monotone" in text and "f1: monotone" in text


def test_validate_rejects_non_monotone(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("0 : 5\n1 : 0\n0 1 : 1\n")
    status, text = run_command(["validate", str(p)])
    assert status == 1
    assert "f0" in text and ">" in text


def test_order(instance):
    text = _ok(["order", instance])
    assert text.splitlines() == ["0 0 0", "1 1 1", "2 0,1 2"]
    swapped = _ok(["order", instance, "--function", "1"])
    assert swapped.splitlines()[0] == "0 1 0.25"


def test_diagram_output(instance):
    text = _ok(["diagram", instance])
    assert text.splitlines() == ["0 0 inf 0 -", "0 1 2 1 0,1"]
    assert _ok(["diagram", instance, "--dim", "1"]) == ""
    other = _ok(["diagram", instance, "--function", "1"])
    assert other.splitlines() == ["0 0.25 inf 1 -", "0 1 2 0 0,1"]


def test_diagram_function_out_of_range(instance):
    status, text = run_command(["diagram", instance, "--function", "2"])
    assert status == 1
    assert "no f2" in text


def test_bottleneck_one_file(instance):
    # essentials (0, inf) vs (0.25, inf) are 0.25 apart; the finite
    # points coincide, and folding anything onto the diagonal only hurts
    assert _ok(["bottleneck", instance]) == "distance 0.25"
    with_matching = _ok(["bottleneck", instance, "--matching"])
    assert with_matching.splitlines()[0] == "distance 0.25"
    assert "->" in with_matching
    diag = _ok(["bottleneck", instance, "--diagonal"])
    assert diag == "distance 0.25"


def test_bottleneck_two_files(tmp_path, instance):
    other = tmp_path / "other.txt"
    other.write_text(EDGE_ONE)
    text = _ok(["bottleneck", instance, str(other)])
    assert text == "distance 0"


def test_bottleneck_diagonal_matching(tmp_path):
    # (2, 4) has no partner in the one-vertex file and folds onto the
    # diagonal at cost 1; the essentials match each other for free
    long = tmp_path / "long.txt"
    long.write_text("0 : 0\n1 : 2\n0 1 : 4\n")
    single = tmp_path / "single.txt"
    single.write_text("0 : 0\n")
    text = _ok(["bottleneck", str(long), str(single), "--diagonal", "--matching"])
    assert text.splitlines() == [
        "distance 1",
        "0 (0, inf) -> (0, inf)",
        "0 (2, 4) -> diagonal",
    ]
    text = _ok(["bottleneck", str(single), str(long), "--diagonal", "--matching"])
    assert text.splitlines() == [
        "distance 1",
        "0 (0, inf) -> (0, inf)",
        "0 diagonal -> (2, 4)",
    ]


# ``gen --seed 4 --vertices 5``: finite points in dimensions 0 and 1, and
# in each dimension more than one matching reaches the witness's cost
WITNESS = """\
0 : 2.765625 2.515625
1 : 2.03125 3.03125
2 : 1.296875 4.046875
3 : 0.8125 1.8125
4 : 2.078125 1.328125
0 1 : 2.84375 3.09375
0 2 : 2.859375 4.109375
0 3 : 2.875 2.625
0 4 : 2.890625 2.640625
1 2 : 2.15625 4.15625
1 3 : 2.171875 3.171875
3 4 : 2.4375 2.4375
0 1 2 : 2.953125 4.203125
0 1 3 : 2.96875 4.21875
0 3 4 : 2.984375 2.734375
"""

WITNESS_BIJECTION = """\
distance 1.28125
0 (0.8125, inf) -> (1.328125, inf)
0 (1.296875, 2.171875) -> (2.515625, 2.625)
0 (2.03125, 2.15625) -> (3.03125, 3.09375)
0 (2.078125, 2.4375) -> (1.8125, 2.4375)
0 (2.765625, 2.84375) -> (4.046875, 4.109375)
1 (2.859375, 2.953125) -> (3.171875, 4.21875)
1 (2.875, 2.96875) -> (2.640625, 2.734375)
1 (2.890625, 2.984375) -> (4.15625, 4.203125)"""

WITNESS_DIAGONAL = """\
distance 0.5234375
0 (0.8125, inf) -> (1.328125, inf)
0 (1.296875, 2.171875) -> diagonal
0 (2.03125, 2.15625) -> (1.8125, 2.4375)
0 (2.078125, 2.4375) -> diagonal
0 (2.765625, 2.84375) -> (2.515625, 2.625)
1 (2.859375, 2.953125) -> diagonal
1 (2.875, 2.96875) -> diagonal
1 (2.890625, 2.984375) -> diagonal
1 diagonal -> (2.640625, 2.734375)
0 diagonal -> (3.03125, 3.09375)
1 diagonal -> (3.171875, 4.21875)
0 diagonal -> (4.046875, 4.109375)
1 diagonal -> (4.15625, 4.203125)"""


def _tied_swaps(D0, D1, matching):
    """Per dimension of finite points: how many ways of swapping the
    partners of two entries keep that dimension's cost."""

    def cost(i, j):
        if i is None:
            return diagonal_cost(D1.points[j])
        if j is None:
            return diagonal_cost(D0.points[i])
        return pair_cost(D0.points[i], D1.points[j])

    by_dim = {}
    for i, j in matching.pairs:
        p = D1.points[j] if i is None else D0.points[i]
        if not is_essential(p):
            by_dim.setdefault(p.dim, []).append((i, j))
    swaps = {}
    for d, entries in by_dim.items():
        worst = max(cost(*e) for e in entries)
        swaps[d] = sum(
            (a, e) != (None, None)
            and (c, b) != (None, None)
            and max(cost(a, e), cost(c, b)) <= worst
            for (a, b), (c, e) in combinations(entries, 2)
        )
    return swaps


def test_bottleneck_witness_that_is_not_forced_is_pinned(tmp_path):
    assert _ok(["gen", "--seed", "4", "--vertices", "5"]) + "\n" == WITNESS
    path = tmp_path / "witness.txt"
    path.write_text(WITNESS)
    assert _ok(["bottleneck", str(path), "--matching"]) == WITNESS_BIJECTION
    diag = _ok(["bottleneck", str(path), "--diagonal", "--matching"])
    assert diag == WITNESS_DIAGONAL
    inst = parse_instance(str(path))
    D0, D1 = (diagram(inst.complex, f) for f in inst.functions)
    for distance in (bottleneck_bijection, bottleneck_diagonal):
        swaps = _tied_swaps(D0, D1, distance(D0, D1)[1])
        assert sorted(swaps) == [0, 1]
        assert all(swaps.values())


def test_bottleneck_function_option_needs_two_files(tmp_path, instance):
    # one file compares its two columns, so K would be ignored
    for k in ("0", "7"):
        assert run_command(["bottleneck", instance, "--function", k]) == (
            1,
            "error: --function needs two files",
        )
    other = tmp_path / "other.txt"
    other.write_text(EDGE_ONE)
    assert _ok(["bottleneck", instance, str(other), "--function", "0"]) == (
        "distance 0"
    )


def test_bottleneck_needs_two_functions(tmp_path):
    p = tmp_path / "one.txt"
    p.write_text(EDGE_ONE)
    status, text = run_command(["bottleneck", str(p)])
    assert status == 1
    assert "two functions" in text


def test_crossings(instance):
    text = _ok(["crossings", instance])
    lines = text.splitlines()
    assert lines[0] == "crossings 1"
    assert lines[1].startswith("t = 4/7")
    assert "{0}={1}" in lines[1]


def test_verify_human_and_machine(instance):
    human = _ok(["verify", instance])
    assert "sup norm: 1" in human
    assert "HOLDS" in human
    machine = _ok(["verify", instance, "--machine"])
    entries = dict(line.split("=", 1) for line in machine.splitlines())
    assert entries["sup_norm"] == "1"
    assert entries["crossings"] == "1"
    assert entries["intervals"] == "2"
    assert entries["exact_bottleneck"] == "0.25"
    assert entries["holds"] == "true"


# Three vertices tie at t = 1/2, and the other two crossings (8/11, 6/7)
# do not terminate in decimal, so every form of an interval line shows.
GOLDEN = "0 : 0 2\n1 : 1 1\n2 : 2 0\n3 : 4 1/2\n0 1 : 5 3\n2 3 : 6 4\n"
GOLDEN_VERIFY = """\
sup norm: 3.5
crossings: 3
interval [0, 0.5]: cost 1.75 <= bound 1.75
interval [0.5, 8/11 (~0.727273)]: cost 35/44 <= bound 35/44
interval [8/11 (~0.727273), 6/7 (~0.857143)]: cost 5/11 <= bound 5/11
interval [6/7 (~0.857143), 1]: cost 0.5 <= bound 0.5
composed matching cost: 3.5
exact bottleneck: 3
HOLDS: exact bottleneck 3 <= sup norm 3.5"""
GOLDEN_MACHINE = """\
sup_norm=3.5
crossings=3
intervals=4
composed_cost=3.5
exact_bottleneck=3
holds=true"""


def test_verify_output_is_pinned_in_full(tmp_path):
    path = tmp_path / "golden.txt"
    path.write_text(GOLDEN)
    assert run_command(["verify", str(path)]) == (0, GOLDEN_VERIFY)
    assert run_command(["verify", str(path), "--machine"]) == (0, GOLDEN_MACHINE)
    assert _ok(["crossings", str(path)]).splitlines()[1] == (
        "t = 0.5: {0}={1} {0}={2} {1}={2}"
    )


def test_verify_machine_of_two_swapping_vertices_is_pinned(tmp_path):
    # Both essential points are (0.5, inf) at the one crossing, t = 0.5.
    # Re-identification gives each point, in order of birth, the first
    # unused equal point after the swap, so the point born at {0} goes on
    # as the one born at {1} and the composed map costs 0; keeping each
    # point on its birth simplex would cost 1.
    path = tmp_path / "two.txt"
    path.write_text("0 : 0 1\n1 : 1 0\n")
    assert run_command(["verify", str(path), "--machine"]) == (0, """\
sup_norm=1
crossings=1
intervals=2
composed_cost=0
exact_bottleneck=0
holds=true""")


def test_verify_random_batch():
    text = _ok(["verify", "--random", "--trials", "3", "--seed", "5"])
    lines = text.splitlines()
    assert len(lines) == 4
    assert all("HOLDS" in line for line in lines[:3])
    assert lines[-1] == "3 trial(s): all hold"


def test_verify_random_seed3_is_pinned(cli_env):
    # CI's smoke runs diff the same command against the same file
    cmd = [sys.executable, "-m", "phstab.cli", "verify", "--random"]
    cmd += ["--trials", "5", "--seed", "3"]
    done = subprocess.run(cmd, capture_output=True, env=cli_env)
    assert (done.returncode, done.stderr) == (0, b"")
    pinned = Path(__file__).parent / "verify_random_seed3.txt"
    assert done.stdout == pinned.read_bytes()


def test_diagram_of_every_literal_form_is_pinned(cli_env):
    # CI's smoke runs diff the same commands against the same file on every
    # Python version: the reader leans on int() and Fraction, whose literal
    # grammars differ between versions
    here = Path(__file__).parent
    cmd = [sys.executable, "-m", "phstab.cli", "diagram", str(here / "literals.txt")]
    out = b""
    for column in ("0", "1"):
        done = subprocess.run(
            cmd + ["--function", column], capture_output=True, env=cli_env
        )
        assert (done.returncode, done.stderr) == (0, b"")
        out += done.stdout
    assert out == (here / "diagram_literals.txt").read_bytes()


def test_crossings_of_a_generated_three_way_tie_is_pinned(cli_env, tmp_path):
    # CI's smoke runs diff the same commands against the same file; at
    # t = 0.96875 simplices {5}, {0,4} and {2,3} tie pairwise
    path = tmp_path / "gen50.txt"
    cli = [sys.executable, "-m", "phstab.cli"]
    gen = ["gen", "--seed", "50", "--vertices", "6", "--max-dim", "2"]
    done = subprocess.run(
        cli + gen + ["--out", str(path)], capture_output=True, env=cli_env
    )
    assert (done.returncode, done.stderr) == (0, b"")
    done = subprocess.run(
        cli + ["crossings", str(path)], capture_output=True, env=cli_env
    )
    assert (done.returncode, done.stderr) == (0, b"")
    pinned = Path(__file__).parent / "crossings_gen_seed50.txt"
    assert done.stdout == pinned.read_bytes()


def test_verify_of_a_dense_generated_instance_is_pinned(cli_env, tmp_path):
    # CI's smoke runs diff the same commands against the same file: 149
    # crossings, 17 of them times where several pairs swap at once
    path = tmp_path / "gen2.txt"
    cli = [sys.executable, "-m", "phstab.cli"]
    gen = ["gen", "--seed", "2", "--vertices", "10", "--prob", "0.5"]
    gen += ["--max-dim", "2", "--out", str(path)]
    done = subprocess.run(cli + gen, capture_output=True, env=cli_env)
    assert (done.returncode, done.stderr) == (0, b"")
    done = subprocess.run(
        cli + ["verify", str(path)], capture_output=True, env=cli_env
    )
    assert (done.returncode, done.stderr) == (0, b"")
    pinned = Path(__file__).parent / "verify_gen_seed2.txt"
    assert done.stdout == pinned.read_bytes()


@pytest.mark.parametrize(
    "flags, pin", [([], "gen_seed1_v9.txt"), (["--ties"], "gen_ties_seed1_v9.txt")]
)
def test_gen_output_is_pinned(cli_env, flags, pin):
    # CI's smoke runs diff the same commands against the same files
    cmd = [sys.executable, "-m", "phstab.cli", "gen", "--seed", "1"]
    cmd += ["--vertices", "9", "--prob", "0.5", "--max-dim", "2", *flags]
    done = subprocess.run(cmd, capture_output=True, env=cli_env)
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout == (Path(__file__).parent / pin).read_bytes()


def _machine_verify_of_a_ladder_rung(cli_env, path, vertices):
    """``verify --machine`` output of ``gen --seed 1 --vertices V --prob
    0.3 --max-dim 2``, written to ``path``."""
    cli = [sys.executable, "-m", "phstab.cli"]
    gen = ["gen", "--seed", "1", "--vertices", str(vertices), "--prob", "0.3"]
    gen += ["--max-dim", "2", "--out", str(path)]
    done = subprocess.run(cli + gen, capture_output=True, env=cli_env)
    assert (done.returncode, done.stderr) == (0, b"")
    done = subprocess.run(
        cli + ["verify", "--machine", str(path)], capture_output=True, env=cli_env
    )
    assert (done.returncode, done.stderr) == (0, b"")
    return done.stdout


def test_verify_machine_of_a_ladder_instance_is_pinned(cli_env, tmp_path):
    # CI's smoke runs diff the same commands against the same file: 114
    # simplices and 1611 crossings, so the carried reduction runs at scale
    got = _machine_verify_of_a_ladder_rung(cli_env, tmp_path / "gen1.txt", 20)
    pinned = Path(__file__).parent / "verify_machine_gen_seed1.txt"
    assert got == pinned.read_bytes()


def test_verify_machine_of_a_larger_ladder_instance_is_pinned(cli_env, tmp_path):
    # the same at 339 simplices and 8788 crossings, pinned before the
    # order was checked by certificates; CI's smoke runs diff it too
    got = _machine_verify_of_a_ladder_rung(cli_env, tmp_path / "gen32.txt", 32)
    pinned = Path(__file__).parent / "verify_machine_gen_seed1_v32.txt"
    assert got == pinned.read_bytes()


def test_bottleneck_of_a_perturbed_instance_is_pinned(cli_env):
    # CI's smoke runs diff the same commands against the same files.  f1 is
    # f0 + (1/64)(g + offsets), so the sup-norm bound leaves each point few
    # partners (41 of 260 pair edges); both outputs were pinned before the
    # matcher took a bound; --diagonal sends twelve points to the diagonal
    here = Path(__file__).parent
    path = here / "perturbed_seed8.txt"
    cfg = GeneratorConfig(seed=8, num_vertices=9, fill_prob=0.5, max_dimension=2)
    inst = perturbed_instance(cfg, Fraction(1, 64))
    assert path.read_text() == format_instance(inst)
    cmd = [sys.executable, "-m", "phstab.cli", "bottleneck", str(path), "--matching"]
    for extra, pinned in (
        ([], "bottleneck_matching_perturbed_seed8.txt"),
        (["--diagonal"], "bottleneck_diagonal_matching_perturbed_seed8.txt"),
    ):
        done = subprocess.run(cmd + extra, capture_output=True, env=cli_env)
        assert (done.returncode, done.stderr) == (0, b"")
        assert done.stdout == (here / pinned).read_bytes()


def test_two_file_diagonal_bottleneck_is_pinned(tmp_path):
    # CI's smoke runs diff the same commands against the same file: two
    # complexes with equal essential counts, 22 points against 29, so no
    # bound and a finite surplus for the diagonal; the distance alone,
    # which builds no witness, is the pin's first line
    here = Path(__file__).parent
    other = tmp_path / "gen123.txt"
    argv = ["gen", "--seed", "123", "--vertices", "7", "--prob", "0.5"]
    _ok(argv + ["--max-dim", "2", "--out", str(other)])
    argv = ["bottleneck", str(other), str(here / "perturbed_seed8.txt"), "--diagonal"]
    pinned = (here / "bottleneck_diagonal_matching_two_files.txt").read_text()
    assert _ok(argv + ["--matching"]) + "\n" == pinned
    assert _ok(argv) == pinned.splitlines()[0]
    assert sum("diagonal" in line for line in pinned.splitlines()) == 11


def test_a_complex_past_the_generator_limit_exits_one_at_once(cli_env):
    # all 200 vertices joined, dimension 3: 66 million simplices if built
    cmd = [sys.executable, "-m", "phstab.cli", "gen", "--seed", "1"]
    cmd += ["--vertices", "200", "--max-dim", "3", "--prob", "1"]
    done = subprocess.run(
        cmd, capture_output=True, text=True, env=cli_env, timeout=60
    )
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == (
        "error: the complex has more than 100000 simplices, the generator's "
        "limit; use fewer vertices, a lower dimension or a lower edge "
        "probability\n"
    )
    argv = ["verify", "--random", "--trials", "1", "--vertices", "200"]
    status, text = run_command(argv + ["--prob", "1"])
    assert (status, text) == (1, done.stderr.rstrip("\n"))


def test_bottleneck_builds_no_simplex_pivot_pair_or_vineyard(tmp_path, monkeypatch):
    """``bottleneck`` without --matching reads the files and reduces on ints
    and tuples: with every construction of a Simplex, a PivotPair and a
    Vineyard made to fail, a single-file and a two-file run, with and
    without --diagonal, print what they print unguarded."""
    here = Path(__file__).parent
    other = tmp_path / "gen123.txt"
    argv = ["gen", "--seed", "123", "--vertices", "7", "--prob", "0.5"]
    _ok(argv + ["--max-dim", "2", "--out", str(other)])
    commands = [
        ["bottleneck", str(here / "perturbed_seed8.txt"), *extra]
        for extra in ([], ["--diagonal"])
    ]
    commands.append(
        ["bottleneck", str(other), str(here / "perturbed_seed8.txt"), "--diagonal"]
    )
    unguarded = [_ok(argv) for argv in commands]

    def refuse(*args, **kwargs):
        raise AssertionError("built by a command that prints only ints")

    for cls, name in (
        (Simplex, "__init__"),
        (PivotPair, "__new__"),
        (Vineyard, "__init__"),
    ):
        monkeypatch.setattr(cls, name, refuse)
    assert [_ok(argv) for argv in commands] == unguarded
    # the guard bites: a diagram prints its simplices, and --matching
    # prints points, which carry their pivot pairs
    for argv in (["diagram", commands[0][1]], commands[0] + ["--matching"]):
        with pytest.raises(AssertionError, match="prints only ints"):
            run_command(argv)


def test_a_vertex_count_past_the_generator_limit_exits_one_before_any_coin():
    """100000 vertices would take minutes of coin flips for their pairs;
    ``gen`` and ``verify --random`` refuse them at once."""
    for argv in (
        ["gen", "--vertices", "100000", "--prob", "0"],
        ["verify", "--random", "--trials", "1", "--vertices", "100000"],
    ):
        start = time.perf_counter()
        assert run_command(argv) == (
            1,
            "error: 100000 vertices are more than 3000, the generator's "
            "limit: it flips a coin for every pair of them",
        )
        assert time.perf_counter() - start < 1


def test_the_vertex_limit_is_checked_before_the_first_coin(monkeypatch):
    """At the limit the complex is built as before; past it the rng is
    untouched, so a pre-check changes no generated output."""
    monkeypatch.setattr(generate, "MAX_VERTICES", 12)
    for vertices in (11, 12):
        cfg = GeneratorConfig(seed=3, num_vertices=vertices, fill_prob=0.3)
        assert len(generate.generate_complex(random.Random(3), cfg)) > vertices
    rng = random.Random(3)
    state = rng.getstate()
    cfg = GeneratorConfig(seed=3, num_vertices=13, fill_prob=0.3)
    with pytest.raises(generate.ComplexTooLarge, match="more than 12, the generator"):
        generate.generate_complex(rng, cfg)
    assert rng.getstate() == state


def test_verify_needs_input():
    status, text = run_command(["verify"])
    assert status == 1
    assert "instance file" in text


def test_gen_roundtrip(tmp_path):
    out = tmp_path / "gen.txt"
    status, text = run_command(
        ["gen", "--seed", "3", "--vertices", "4", "--out", str(out)]
    )
    assert status == 0
    assert out.exists()
    assert run_command(["validate", str(out)])[0] == 0
    assert run_command(["verify", str(out)])[0] == 0


def test_gen_to_stdout_and_ties():
    text = _ok(["gen", "--seed", "3", "--vertices", "4"])
    assert ":" in text
    tied = _ok(["gen", "--seed", "3", "--vertices", "4", "--ties"])
    assert tied != text


def test_usage_errors_exit_one():
    status, text = run_command(["nosuchcommand"])
    assert status == 1
    assert "usage" in text
    status, _ = run_command(["diagram"])  # missing file argument
    assert status == 1


def test_missing_file_exits_one():
    status, text = run_command(["diagram", "/no/such/file"])
    assert status == 1
    assert "error" in text


def test_parse_error_exits_one(tmp_path):
    p = tmp_path / "broken.txt"
    p.write_text("0 1 : 1\n")
    status, text = run_command(["diagram", str(p)])
    assert status == 1
    assert "missing face" in text


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "BAD"],
        ["order", "BAD"],
        ["diagram", "BAD"],
        ["crossings", "BAD"],
        ["verify", "BAD"],
        ["verify", "BAD", "--machine"],
        ["bottleneck", "BAD"],
        ["bottleneck", "BAD", "GOOD"],
        ["bottleneck", "GOOD", "BAD"],
    ],
)
def test_non_utf8_file_exits_one_naming_the_line(tmp_path, instance, argv):
    bad = tmp_path / "bin.txt"
    bad.write_bytes(b"0 : 0 1\n\xff\xfe\n")
    files = {"BAD": str(bad), "GOOD": instance}
    assert run_command([files.get(a, a) for a in argv]) == (
        1,
        f"error: {bad}: line 2: not UTF-8 text (byte 0xff)",
    )


def test_non_utf8_file_leaves_no_traceback_in_a_process(tmp_path, cli_env):
    bad = tmp_path / "bin.txt"
    bad.write_bytes(b"\xff\xfe\n")
    cmd = [sys.executable, "-m", "phstab.cli", "verify", str(bad)]
    done = subprocess.run(cmd, capture_output=True, text=True, env=cli_env)
    assert done.returncode == 1
    assert done.stderr == f"error: {bad}: line 1: not UTF-8 text (byte 0xff)\n"


def test_help_exits_zero():
    status, text = run_command(["--help"])
    assert status == 0
    assert "validate" in text and "verify" in text


def _pinned_help():
    """(argv, text) for each block of cli_help.txt; a block starts with a
    ``$ phstab ...`` line and runs to the next one."""
    pinned = (Path(__file__).parent / "cli_help.txt").read_text()
    blocks = re.split(r"^\$ phstab (.*)\n", pinned, flags=re.M)
    return [
        (argv.split(), text.rstrip("\n"))
        for argv, text in zip(blocks[1::2], blocks[2::2])
    ]


def test_help_output_is_pinned(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal width
    pinned = _pinned_help()
    commands = ("validate", "order", "diagram", "bottleneck", "crossings", "verify", "gen")
    assert [argv[:-1] for argv, _ in pinned] == [[]] + [[c] for c in commands]
    for _ in range(2):  # the second round runs on the parser the first built
        for argv, text in pinned:
            assert run_command(argv) == (0, text)


def test_flags_do_not_carry_over_to_the_next_call(instance):
    plain = run_command(["bottleneck", instance])
    flagged = run_command(["bottleneck", instance, "--diagonal", "--matching"])
    assert flagged[1].startswith("distance 0.25\n")
    assert run_command(["bottleneck", instance]) == plain == (0, "distance 0.25")


def test_repeated_runs_are_identical(instance):
    for argv in (
        ["diagram", instance],
        ["verify", instance, "--machine"],
        ["crossings", instance],
    ):
        assert run_command(argv) == run_command(argv)


def test_console_entry_point(instance, cli_env):
    """End to end through a real process, twice, byte for byte."""
    cmd = [sys.executable, "-m", "phstab.cli", "verify", instance, "--machine"]
    a = subprocess.run(cmd, capture_output=True, text=True, env=cli_env)
    b = subprocess.run(cmd, capture_output=True, text=True, env=cli_env)
    assert a.returncode == 0
    assert a.stdout == b.stdout
    assert "holds=true" in a.stdout


@pytest.mark.parametrize(
    "argv, option",
    [
        (["gen", "--vertices", "-3"], "--vertices"),
        (["gen", "--vertices", "0"], "--vertices"),
        (["gen", "--prob", "7"], "--prob"),
        (["gen", "--prob", "-0.5"], "--prob"),
        (["gen", "--prob", "nan"], "--prob"),
        (["gen", "--max-dim", "-1"], "--max-dim"),
        (["gen", "--value-range", "0"], "--value-range"),
        (["verify", "--random", "--trials", "0"], "--trials"),
        (["verify", "--random", "--vertices", "-1"], "--vertices"),
        (["verify", "--random", "--prob", "1.5"], "--prob"),
    ],
)
def test_out_of_range_generator_arguments_exit_one(argv, option):
    status, text = run_command(argv)
    assert status == 1
    assert len(text.splitlines()) == 1
    assert text.startswith(f"error: {option} must be")


def test_generator_argument_limits_are_accepted():
    assert _ok(["gen", "--vertices", "1", "--max-dim", "0", "--prob", "0"])
    assert _ok(["gen", "--vertices", "2", "--prob", "1", "--value-range", "1"])
    text = _ok(["verify", "--random", "--trials", "1", "--vertices", "1"])
    assert text.splitlines()[-1] == "1 trial(s): all hold"


# 1e5000 has more digits than str(int) converts by default (4300); the
# second file's values are smaller, but its costs and crossing time are not.
BIG_TIED = "0 : 0 1\n1 : 1e5000 0.25\n0 1 : 1e5000 2e5000\n"
BIG_DERIVED = "0 : 0 3e3000\n1 : 1e3000 7/3\n0 1 : 4e3000 5e3000\n"


@pytest.fixture
def big_files(tmp_path):
    tied, derived = tmp_path / "tied.txt", tmp_path / "derived.txt"
    tied.write_text(BIG_TIED)
    derived.write_text(BIG_DERIVED)
    return str(tied), str(derived)


def test_values_past_the_int_string_limit_print_in_full(big_files):
    tied, derived = big_files
    big = "1" + "0" * 5000
    assert run_command(["verify", tied]) == (
        1,
        f"error: f0: simplices 1 and 0,1 share value {big}",
    )
    assert run_command(["diagram", tied]) == (0, f"0 0 inf 0 -\n0 {big} {big} 1 0,1")
    status, text = run_command(["verify", derived])
    assert status == 0
    assert text.splitlines()[0] == "sup norm: 3" + "0" * 3000
    assert text.splitlines()[-1].startswith("HOLDS")
    assert max(len(token) for token in text.split()) > 4300
    assert run_command(["diagram", derived])[0] == 0


def test_values_past_the_int_string_limit_in_a_process(big_files, cli_env):
    tied, derived = big_files
    for argv, status in (
        (["verify", tied], 1),
        (["diagram", tied], 0),
        (["verify", derived], 0),
        (["diagram", derived], 0),
    ):
        cmd = [sys.executable, "-m", "phstab.cli", *argv]
        done = subprocess.run(cmd, capture_output=True, text=True, env=cli_env)
        assert done.returncode == status
        assert "Traceback" not in done.stderr
        expected = run_command(argv)[1] + "\n"
        assert (done.stdout if status == 0 else done.stderr) == expected
        if status == 1:
            assert len(done.stderr.splitlines()) == 1


def _readme_session():
    """The README's example session as (argv, shown output lines) pairs."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8"
    )
    (block,) = re.findall(r"Example session:\n\n```\n(.*?)```", readme, re.S)
    session = []
    for line in block.splitlines():
        if line.startswith("$ phstab "):
            session.append((line[len("$ phstab "):].split(), []))
        else:
            session[-1][1].append(line)
    return session


def test_readme_example_session(tmp_path, monkeypatch):
    """Every line the README shows is printed; ``...`` stands for any run
    of lines."""
    monkeypatch.chdir(tmp_path)
    session = _readme_session()
    assert [argv[0] for argv, _ in session] == ["gen", "verify"]
    for argv, shown in session:
        status, text = run_command(argv)
        assert status == 0, text
        pattern = "".join(
            r"(?:.*\n)*" if line == "..." else re.escape(line) + r"\n"
            for line in shown
        )
        assert re.fullmatch(pattern, text + "\n"), (argv, text)


# Seven simplices, two crossing functions.  Every token has at most three
# characters and at most three edits are made, so no exponent gets past a
# few digits and every value stays cheap to read.
FUZZ_BASE = (
    "0 : 0 1\n1 : 1 3\n2 : 2 2\n0 1 : 3 4\n0 2 : 4 5\n1 2 : 5 6\n"
    "0 1 2 : 6 7.5\n"
)
FUZZ_ALPHABET = list("0123456789e/.:-#") + [
    "\r", "\n", "\x0c", "\x85", "\u2028", "\ufeff", "\x00",
]
FUZZ_FILES = 150


def _fuzzed(rng, text):
    """``text`` after one to three single-character edits."""
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(("insert", "delete", "replace"))
        if kind == "insert":
            i = rng.randrange(len(text) + 1)
            text = text[:i] + rng.choice(FUZZ_ALPHABET) + text[i:]
        elif text:
            i = rng.randrange(len(text))
            keep = rng.choice(FUZZ_ALPHABET) if kind == "replace" else ""
            text = text[:i] + keep + text[i + 1:]
    return text


def test_malformed_instance_files_never_escape_run_command(tmp_path):
    """Seeded fuzzing of every file-reading subcommand: a malformed file
    ends in exit 0 or 1 with a message, never an exception or exit 2."""
    rng = random.Random(2021)
    path = tmp_path / "fuzz.txt"
    f = str(path)
    commands = [
        ["validate", f],
        ["order", f],
        ["order", f, "--function", "1"],
        ["diagram", f, "--function", "1", "--dim", "0"],
        ["crossings", f],
        ["bottleneck", f],
        ["bottleneck", f, "--diagonal", "--matching"],
        ["bottleneck", f, f, "--function", "1"],
        ["verify", f],
        ["verify", f, "--machine"],
    ]
    path.write_text(FUZZ_BASE)
    assert all(run_command(argv)[0] == 0 for argv in commands)
    for _ in range(FUZZ_FILES):
        text = _fuzzed(rng, FUZZ_BASE)
        path.write_bytes(text.encode("utf-8"))
        for argv in commands:
            try:
                status, out = run_command(argv)
            except Exception as exc:  # any escape is the failure
                pytest.fail(f"{argv[0]} on {text!r} raised {exc!r}")
            assert status in (0, 1), (argv, text, out)
            assert out or status == 0, (argv, text)


# Every option of every subcommand, a few that belong to none, and stray
# tokens; numbers include ones argparse or the range checks refuse.
ARG_FLAGS = [
    "--function", "--dim", "--diagonal", "--matching", "--machine", "--random",
    "--trials", "--seed", "--vertices", "--max-dim", "--prob", "--value-range",
    "--ties", "--out", "--mach", "--bogus", "-h", "--help", "--", "-",
]
ARG_NUMBERS = [
    "-1", "0", "1", "2", "3", "8", "2.5", "1e3", "nan", "inf", "x", "", "0x10",
    "-99", "99999999999999999999",
]
ARG_VALUED = {
    "--function", "--dim", "--trials", "--seed", "--vertices", "--max-dim",
    "--prob", "--value-range",
}
# --vertices and --trials are capped so that no case starts a large run
ARG_CAPPED = {"--vertices": 8, "--trials": 8}
ARG_CASES = 40  # per base command line


def _mutated_argv(rng, argv, paths):
    """``argv`` after one to three edits: a number after an option
    replaced, a file replaced (by a missing, malformed or directory path
    among others), a flag inserted, a token dropped or an extra positional
    inserted.  Numbers past a cap in ``ARG_CAPPED`` are lowered to it."""
    argv = list(argv)
    for _ in range(rng.randint(1, 3)):
        numbers = [i for i in range(1, len(argv)) if argv[i - 1] in ARG_VALUED]
        files = [i for i, token in enumerate(argv) if token in paths]
        kind = rng.choice(("number", "number", "file", "flag", "drop", "extra"))
        if kind == "number" and numbers:
            argv[rng.choice(numbers)] = rng.choice(ARG_NUMBERS)
        elif kind == "file" and files:
            argv[rng.choice(files)] = rng.choice(paths)
        elif kind == "flag":
            argv.insert(rng.randint(1, len(argv)), rng.choice(ARG_FLAGS))
        elif kind == "drop" and len(argv) > 1:
            del argv[rng.randrange(len(argv))]
        else:
            extra = rng.choice(paths + ARG_NUMBERS)
            argv.insert(rng.randint(1, len(argv)), extra)
    for i, token in enumerate(argv[:-1]):
        cap = ARG_CAPPED.get(token)
        try:
            too_big = cap is not None and int(argv[i + 1]) > cap
        except ValueError:
            too_big = False
        if too_big:
            argv[i + 1] = str(cap)
    return argv


def test_mutated_command_lines_never_escape_run_command(tmp_path, monkeypatch):
    """Seeded fuzzing of every subcommand's arguments: flags, numbers,
    missing files and extra positionals end in exit 0, 1 or 2 with a
    message for a failure, never an exception.  Runs in ``tmp_path``, so
    a number taken as an output path writes there."""
    monkeypatch.chdir(tmp_path)
    rng = random.Random(415)
    one, two, bad, out = "one.txt", "two.txt", "bad.txt", "out.txt"
    paths = [one, two, bad, out, "missing.txt", "."]
    bases = [
        ["validate", one],
        ["order", one, "--function", "1"],
        ["diagram", one, "--function", "0", "--dim", "1"],
        ["bottleneck", one, "--diagonal", "--matching"],
        ["bottleneck", one, two, "--function", "0"],
        ["crossings", one],
        ["verify", one, "--machine"],
        ["verify", "--random", "--trials", "2", "--vertices", "4", "--seed", "1",
         "--prob", "0.5", "--max-dim", "2"],
        ["gen", "--vertices", "4", "--seed", "2", "--value-range", "3", "--ties",
         "--out", out],
    ]
    statuses = Counter()
    for base in bases:
        for _ in range(ARG_CASES):
            Path(one).write_text(FUZZ_BASE)
            Path(two).write_text(EDGE_TWO)
            Path(bad).write_text("0 : 0\n0 1 : 1\n")
            argv = _mutated_argv(rng, base, paths)
            try:
                status, text = run_command(argv)
            except Exception as exc:  # any escape is the failure
                pytest.fail(f"{argv} raised {exc!r}")
            assert status in (0, 1, 2), (argv, status, text)
            assert text or status == 0, argv
            statuses[status] += 1
    assert statuses[0] >= 30 and statuses[1] >= 200
