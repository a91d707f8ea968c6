import time
from fractions import Fraction

import pytest

from phstab.cli import run_command
from phstab.errors import ParseError
from phstab.generate import GeneratorConfig, generate_instance
from phstab.instances import format_instance, parse_instance, parse_instance_text

GOOD = """\
# a single edge, two functions
0 :    0     1
1 :    0.5   0.25
0 1 :  2     2      # inline comment

"""


def test_parse_basic_file():
    inst = parse_instance_text(GOOD)
    assert len(inst.complex) == 3
    assert [s.vertices for s in inst.complex.simplices] == [(0,), (1,), (0, 1)]
    assert len(inst.functions) == 2
    assert inst.functions[0].values == (0, Fraction(1, 2), 2)
    assert inst.functions[1].values == (1, Fraction(1, 4), 2)


def test_parse_accepts_fractions_and_scientific():
    inst = parse_instance_text("0 : 1/3\n1 : 2.5e-2\n0 1 : 7\n")
    assert inst.functions[0].values == (Fraction(1, 3), Fraction(1, 40), 7)


def test_parse_single_function():
    inst = parse_instance_text("0 : 1\n")
    assert len(inst.functions) == 1


def _problems(text):
    with pytest.raises(ParseError) as ei:
        parse_instance_text(text)
    return ei.value.problems


def test_parse_collects_all_problems_with_line_numbers():
    text = "0 : 1\nbogus line\n1 : x\n2 : 1 2\n0 3 : 1\n"
    problems = _problems(text)
    lines = [ln for ln, _ in problems]
    # missing colon, unreadable value, and inconsistent width all surface
    # in one pass instead of one per run
    assert 2 in lines and 3 in lines and 4 in lines
    assert any("missing ':'" in msg for _, msg in problems)
    assert any("unreadable value" in msg for _, msg in problems)
    assert any("values" in msg and "earlier" in msg for _, msg in problems)


def test_parse_reports_missing_faces_with_lines():
    problems = _problems("0 : 1\n0 1 : 2\n")
    assert problems == ((2, "simplex {0,1} is missing face {1}"),)


def test_a_duplicate_is_reported_at_its_own_line(tmp_path):
    path = tmp_path / "dup.txt"
    path.write_text("0 : 1\n1 : 2\n0 : 3\n0 : 4\n")
    assert run_command(["validate", str(path)]) == (
        1,
        f"error: {path}: line 3: duplicate simplex {{0}}; "
        "line 4: duplicate simplex {0}",
    )
    assert _problems("0 1 : 2\n0 : 0\n1 : 1\n1 0 : 3\n") == (
        (4, "duplicate simplex {0,1}"),
    )


def test_parse_rejects_duplicates_and_junk_vertices():
    assert any("duplicate" in msg for _, msg in _problems("0 : 1\n0 : 2\n"))
    assert any("not integers" in msg for _, msg in _problems("a b : 1\n"))
    assert any("no vertices" in msg for _, msg in _problems(" : 1\n"))
    assert any("no values" in msg for _, msg in _problems("0 :\n"))
    assert any("1 or 2" in msg for _, msg in _problems("0 : 1 2 3\n"))


@pytest.mark.parametrize("text", ["", "# empty\n", "\n  \n"])
def test_a_file_without_simplices_names_no_line(tmp_path, text):
    assert _problems(text) == ((None, "no simplices in file"),)
    path = tmp_path / "empty.txt"
    path.write_text(text)
    assert run_command(["validate", str(path)]) == (
        1,
        f"error: {path}: no simplices in file",
    )


def test_parse_error_mentions_path(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("0 :\n")
    with pytest.raises(ParseError) as ei:
        parse_instance(str(p))
    assert "bad.txt" in str(ei.value)


def test_round_trip_is_identity(tmp_path):
    inst = generate_instance(GeneratorConfig(seed=14, num_vertices=5))
    text = format_instance(inst)
    again = parse_instance_text(text)
    assert again.complex.simplices == inst.complex.simplices
    for f, g in zip(inst.functions, again.functions):
        assert f.values == g.values
    assert format_instance(again) == text

    p = tmp_path / "inst.txt"
    p.write_text(text)
    from_file = parse_instance(str(p))
    assert from_file.path == str(p)
    assert format_instance(from_file) == text


def test_format_renders_non_terminating_values_as_fractions():
    inst = parse_instance_text("0 : 1/3\n1 : 0.5\n0 1 : 2\n")
    text = format_instance(inst)
    assert "1/3" in text and "0.5" in text
    assert parse_instance_text(text).functions[0].values == inst.functions[0].values


@pytest.mark.parametrize(
    "mark", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
)
def test_only_line_feeds_and_carriage_returns_end_a_line(tmp_path, mark):
    # str.splitlines would also break at these, making the comment's tail
    # a data line and shifting every later line number
    path = tmp_path / "mark.txt"
    path.write_bytes(f"0 : 0 1\n# note{mark}more\n1 : 1 x\n".encode())
    assert run_command(["validate", str(path)]) == (
        1,
        f"error: {path}: line 3: unreadable value 'x'",
    )


@pytest.mark.parametrize(
    "literal",
    [
        "1e100000000",
        "1e9999999999",
        pytest.param("1e" + "9" * 5000, id="past-the-int-digit-limit"),
    ],
)
def test_a_huge_exponent_is_rejected_at_once(tmp_path, literal):
    # Fraction alone would expand the exponent for minutes
    path = tmp_path / "huge.txt"
    path.write_text(f"0 : 0 1\n1 : {literal} 2\n")
    start = time.perf_counter()
    assert run_command(["validate", str(path)]) == (
        1,
        f"error: {path}: line 2: unreadable value '{literal}': "
        "exponent exceeds 100000 in magnitude",
    )
    assert time.perf_counter() - start < 1


def test_lines_end_at_lf_cr_and_crlf(tmp_path):
    path = tmp_path / "mixed.txt"
    path.write_bytes(b"0 : 0 1\r1 : 1 0\r\n# \x0c\r\n0 1 : 2 2\rbad\n")
    assert run_command(["validate", str(path)]) == (
        1,
        f"error: {path}: line 5: missing ':' between vertices and values",
    )
    path.write_bytes(b"0 : 0 1\r\n# \x0c\r1 : \xff 0\r")
    assert run_command(["validate", str(path)]) == (
        1,
        f"error: {path}: line 3: not UTF-8 text (byte 0xff)",
    )


def test_a_utf8_byte_order_mark_is_accepted(tmp_path):
    path = tmp_path / "bom.txt"
    path.write_bytes(b"\xef\xbb\xbf" + GOOD.encode())
    assert run_command(["validate", str(path)]) == (
        0,
        "complex: 3 simplices, dimension 1\n"
        "f0: monotone, all values distinct\n"
        "f1: monotone, all values distinct",
    )
    assert parse_instance(str(path)).complex == parse_instance_text(GOOD).complex
