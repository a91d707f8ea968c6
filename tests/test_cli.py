import subprocess
import sys

import pytest

from phstab.cli import run_command

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


def test_verify_random_batch():
    text = _ok(["verify", "--random", "--trials", "3", "--seed", "5"])
    lines = text.splitlines()
    assert len(lines) == 4
    assert all("HOLDS" in line for line in lines[:3])
    assert lines[-1] == "3 trial(s): all hold"


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


def test_help_exits_zero():
    status, text = run_command(["--help"])
    assert status == 0
    assert "validate" in text and "verify" in text


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
