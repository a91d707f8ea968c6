import random
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from phstab.cli import run_command
from phstab.errors import ParseError
from phstab.generate import GeneratorConfig, generate_instance
from phstab.instances import format_instance, parse_instance, parse_instance_text

from oracles import reference_parse

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
    assert format_instance(parse_instance(str(p))) == text


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


# Value literals of every form the reader takes, and tokens it must reject.
_LITERALS = (
    "0 7 -3 +12 00012 -0 5. .5 +.5 -.25 0.50 007.700 3/4 -3/6 +7/3 1/03 "
    "1e3 2.5e-2 1E-2 1_0 1_0/3 ٣ ١٢ ２"
).split()
_UNREADABLE = "x 1/0 3/-4 1.2.3 . - +-5 1__0 _1 0x10 inf 1e100000000".split()


def _fuzz_file(rng) -> str:
    """An instance file of a random closed complex and one or two value
    columns of literals of every form, in random order, with comments,
    blank lines and LF, CR or CRLF line ends; most files then get one to
    three bad lines of every kind: no ':', junk, negative or duplicate
    vertices, 0 or 3 values, unreadable values, a width unlike the first
    line's, a missing face or a duplicate simplex."""
    vertices = list(range(rng.randint(1, 5)))
    simplices = {(v,) for v in vertices}
    for _ in range(rng.randint(0, 4)):
        size = rng.randint(1, min(3, len(vertices)))
        top = tuple(sorted(rng.sample(vertices, size)))
        simplices |= {f for k in range(1, len(top) + 1) for f in combinations(top, k)}
    simplices = sorted(simplices, key=lambda s: (len(s), s))
    if rng.random() < 0.3:
        rng.shuffle(simplices)
    width = rng.choice((1, 2))

    def line(verts, values) -> str:
        verts = list(verts)
        rng.shuffle(verts)
        sep = rng.choice((" ", "  ", "\t"))
        text = f"{sep.join(map(str, verts))}{rng.choice(('', ' '))}:{sep}"
        text += sep.join(values)
        return text + rng.choice(("", " ", "  # note", "#c:1"))

    lines = [line(s, [rng.choice(_LITERALS) for _ in range(width)]) for s in simplices]
    for _ in range(rng.randint(0, 3) if rng.random() < 0.6 else 0):
        at = rng.randrange(len(lines) + 1)
        simplex = rng.choice(simplices)
        values = [rng.choice(_LITERALS) for _ in range(width)]
        kind = rng.randrange(10)
        if kind == 0:  # no ':'
            bad = line(simplex, values).replace(":", " ", 1)
        elif kind == 1:  # a vertex that is no integer
            bad = line(simplex + (rng.choice(("a", "1.5", "0x1", "٣")),), values)
        elif kind == 2:  # a negative vertex
            bad = line(simplex + (-rng.randint(1, 3),), values)
        elif kind == 3:  # a vertex twice
            bad = line(simplex + (simplex[0],), values)
        elif kind == 4:  # no values, or three
            bad = line(simplex, rng.choice(([], ["1", "2", "3"])))
        elif kind == 5:  # an unreadable value
            values[rng.randrange(width)] = rng.choice(_UNREADABLE)
            bad = line(simplex, values)
        elif kind == 6:  # a width unlike the first line's
            bad = line(simplex, values[:1] if width == 2 else values * 2)
        elif kind == 7 and len(lines) > 1:  # a missing face
            del lines[rng.randrange(len(lines))]
            continue
        elif kind == 8:  # a duplicate simplex
            bad = line(simplex, values)
        else:  # no vertices
            bad = line((), values)
        lines.insert(at, bad)
    for _ in range(rng.randint(0, 3)):
        extra = rng.choice(("", "  ", "# comment : 1 2", "\t# x"))
        lines.insert(rng.randrange(len(lines) + 1), extra)
    if rng.random() < 0.02:
        lines = [ln for ln in lines if ln.lstrip().startswith("#") or not ln.strip()]
    end = rng.choice(("\n", "\r\n", "\r"))
    return end.join(lines) + rng.choice(("", end))


def _read(parse, text):
    """What a reader makes of ``text``: ("read", vertex tuples, numerator
    columns, scale), or ("error", the problems of its ParseError)."""
    try:
        return ("read", *parse(text))
    except ParseError as exc:
        return ("error", exc.problems)


def _library_parse(text):
    inst = parse_instance_text(text)
    columns = tuple(f.numerators for f in inst.functions)
    scale = inst.functions[0].scale
    return [s.vertices for s in inst.complex.simplices], columns, scale


_PROBLEMS = (
    "missing ':'", "vertices are not integers", "no vertices", "no values",
    "expected 1 or 2 values", "unreadable value", "line has", "negative vertex",
    "duplicate vertex", "duplicate simplex", "is missing face", "no simplices",
)


def test_the_reader_equals_the_reference_parse_on_fuzzed_files():
    """2,000 seeded files, about half of them valid: the reader gives the
    same complex, numerators and scale as ``oracles.reference_parse``, or
    a ParseError with the same problems, and every kind of problem occurs."""
    rng = random.Random(30)
    valid = 0
    kinds = Counter()
    for _ in range(2000):
        text = _fuzz_file(rng)
        want = _read(reference_parse, text)
        assert _read(_library_parse, text) == want, repr(text)
        if want[0] == "error":
            kinds.update(next(k for k in _PROBLEMS if k in msg) for _, msg in want[1])
        else:
            valid += 1
            kinds[f"{len(want[2])} columns"] += 1
    assert valid > 500
    assert set(kinds) == {*_PROBLEMS, "1 columns", "2 columns"}, kinds
