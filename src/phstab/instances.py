"""Reading and writing instance files.

An instance file lists one simplex per line followed by one or two values:

    # vertices            f0      f1
    0 :                   0       1/4
    1 :                   0.5     0.5
    0 1 :                 1       0.75

Lines end at a line feed, a carriage return, or the two together.  Blank
lines and ``#`` comments are skipped.  Every data line must carry the
same number of values (one or two).  Values may be written as integers,
decimals, scientific notation, or ``p/q`` fractions; they are read exactly,
each as an int numerator and denominator (``rational.read_value``), and
every value of a file is held as an int over one scale, the lcm of its
denominators.  A valid file is read in one lean pass; only a file with a
problem is read again, line by line, to name every problem.  Writing uses
the shortest exact form, so a parse/format round trip is the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import lcm

from .complexes import (
    FiltrationFunction,
    Simplex,
    SimplicialComplex,
    validate_complex,
)
from .errors import InvalidComplex, ParseError
from .rational import ExponentTooLarge, format_value, read_value


@dataclass(frozen=True)
class InstanceFile:
    complex: SimplicialComplex
    functions: "tuple[FiltrationFunction, ...]"


def _lines(text: str) -> list:
    """``text`` split at line feeds, carriage returns and their pairs only.

    ``str.splitlines`` also breaks at a form feed, NEL or a Unicode line
    separator, so one of them inside a comment would start a data line.
    """
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def parse_instance_text(text: str, path: "str | None" = None) -> InstanceFile:
    """Parse instance file content, collecting every problem before failing.

    A file with no problem is read once, on ints and tuples
    (``_read_lean``); any other is read again line by line
    (``_read_lines``), which names every problem in a ParseError.
    """
    lines = _lines(text)
    return _read_lean(lines) or _read_lines(lines, path)


def _read_lean(lines: list) -> "InstanceFile | None":
    """The instance that ``lines`` hold if they hold no problem, else None.

    Each data line is split into its vertex ids and value tokens, read
    with the same ``int()`` and ``read_value`` as ``_read_lines``; the
    widths, vertex ids, duplicate simplices and missing faces are then
    checked for all lines at once, on the tokens and the canonical tuples.
    """
    vertex_tokens, value_tokens = [], []
    for raw in lines:
        left, colon, right = raw.partition("#")[0].partition(":")
        if colon:
            vertex_tokens.append(left.split())
            value_tokens.append(right.split())
        elif left.strip():
            return None  # a line with no ':'
    widths = set(map(len, value_tokens))
    width = min(widths, default=0)
    if len(widths) != 1 or not 0 < width <= 2:
        return None  # no simplices, or lines of no, three or unlike widths
    try:
        tuples = [
            (int(t[0]),) if len(t) == 1 else tuple(sorted(set(map(int, t))))
            for t in vertex_tokens
        ]
        values = list(map(read_value, chain.from_iterable(value_tokens)))
    except (ValueError, ZeroDivisionError):
        return None
    K = SimplicialComplex(tuple(tuples))
    lowest = min(K.index)  # () before any simplex, else one of the least vertex
    if (
        not lowest
        or lowest[0] < 0
        or len(K.index) < len(tuples)  # a duplicate simplex
        or sum(map(len, tuples)) != sum(map(len, vertex_tokens))  # a vertex twice
        or None in chain.from_iterable(K.facet_positions)  # a missing face
    ):
        return None
    return _instance(K, [values[k::width] for k in range(width)])


def _read_lines(lines: list, path: "str | None") -> InstanceFile:
    """Read ``lines`` one at a time; every line, good or bad, takes the
    same checks in the same order, and a ParseError names every problem:
    each line's first (each of its unreadable values), then, once every
    line reads, the duplicate simplices and missing faces."""
    problems: "list[tuple[int | None, str]]" = []
    line_nos, simplices, rows = [], [], []  # per data line; rows of (n, d)
    width = None
    for line_no, raw in enumerate(lines, start=1):
        left, colon, right = raw.partition("#")[0].partition(":")
        if not colon:
            if left.strip():
                problems.append((line_no, "missing ':' between vertices and values"))
            continue
        try:
            vertices = tuple(map(int, left.split()))
        except ValueError:
            problems.append((line_no, f"vertices are not integers: {left.strip()!r}"))
            continue
        if not vertices:
            problems.append((line_no, "no vertices before ':'"))
            continue
        tokens = right.split()
        if not tokens:
            problems.append((line_no, "no values after ':'"))
            continue
        if len(tokens) > 2:
            problems.append((line_no, f"expected 1 or 2 values, got {len(tokens)}"))
            continue
        row = []
        for tok in tokens:
            try:
                row.append(read_value(tok))
            except (ValueError, ZeroDivisionError) as exc:
                why = f": {exc}" if isinstance(exc, ExponentTooLarge) else ""
                problems.append((line_no, f"unreadable value {tok!r}{why}"))
        if len(row) < len(tokens):
            continue
        width = width or len(row)
        if len(row) != width:
            problems.append(
                (line_no, f"line has {len(row)} values but earlier lines have {width}")
            )
            continue
        try:
            simplices.append(Simplex(vertices))
        except ValueError as exc:
            problems.append((line_no, str(exc)))
            continue
        line_nos.append(line_no)
        rows.append(row)

    if not rows and not problems:
        problems.append((None, "no simplices in file"))
    if problems:
        raise ParseError(problems, path)

    try:
        K = validate_complex(simplices)
    except InvalidComplex as exc:
        raise ParseError(
            [(line_nos[issue.index], issue.message) for issue in exc.issues], path
        ) from None
    return _instance(K, list(zip(*rows)))


def _instance(K: SimplicialComplex, columns: list) -> InstanceFile:
    """The functions of value columns of (numerator, denominator) pairs,
    over one scale for the whole file, so its columns compare as they are."""
    scale = lcm(*{d for column in columns for _, d in column})
    return InstanceFile(
        K,
        tuple(
            FiltrationFunction.over_scale(
                K, tuple([n * (scale // d) for n, d in column]), scale
            )
            for column in columns
        ),
    )


def parse_instance(path: str) -> InstanceFile:
    """Read and parse an instance file, which may start with a UTF-8 byte
    order mark; bytes that are not UTF-8 are a ParseError naming their
    line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        line_no = len(_lines(data[: exc.start].decode("utf-8-sig")))
        raise ParseError(
            [(line_no, f"not UTF-8 text (byte 0x{data[exc.start]:02x})")], path
        ) from None
    return parse_instance_text(text, path)


def format_instance(instance: InstanceFile) -> str:
    """Render an instance back to file text, values in exact shortest form."""
    lines = []
    for i, vertices in enumerate(instance.complex.vertex_tuples):
        verts = " ".join(map(str, vertices))
        vals = " ".join(format_value(f.values[i]) for f in instance.functions)
        lines.append(f"{verts} : {vals}")
    return "\n".join(lines) + "\n"
