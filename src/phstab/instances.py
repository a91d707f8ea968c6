"""Reading and writing instance files.

An instance file lists one simplex per line followed by one or two values:

    # vertices            f0      f1
    0 :                   0       1/4
    1 :                   0.5     0.5
    0 1 :                 1       0.75

Lines end at a line feed, a carriage return, or the two together.  Blank
lines and ``#`` comments are skipped.  Every data line must carry the
same number of values (one or two).  Values may be written as integers,
decimals, scientific notation, or ``p/q`` fractions; they are read exactly.
Writing uses the shortest exact form, so a parse/format round trip is the
identity.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import (
    FiltrationFunction,
    Simplex,
    SimplicialComplex,
    validate_complex,
)
from .errors import InvalidComplex, ParseError
from .rational import ExponentTooLarge, format_value, to_fraction


@dataclass(frozen=True)
class InstanceFile:
    complex: SimplicialComplex
    functions: "tuple[FiltrationFunction, ...]"
    path: "str | None" = None


def _lines(text: str) -> list:
    """``text`` split at line feeds, carriage returns and their pairs only.

    ``str.splitlines`` also breaks at a form feed, NEL or a Unicode line
    separator, so one of them inside a comment would start a data line.
    """
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def parse_instance_text(text: str, path: "str | None" = None) -> InstanceFile:
    """Parse instance file content, collecting every problem before failing."""
    problems: "list[tuple[int | None, str]]" = []
    rows = []  # (line_no, vertices, values)
    expected_width = None
    for line_no, raw in enumerate(_lines(text), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            problems.append((line_no, "missing ':' between vertices and values"))
            continue
        left, right = line.split(":", 1)
        try:
            vertices = tuple(int(tok) for tok in left.split())
        except ValueError:
            problems.append((line_no, f"vertices are not integers: {left.strip()!r}"))
            continue
        if not vertices:
            problems.append((line_no, "no vertices before ':'"))
            continue
        value_tokens = right.split()
        if not value_tokens:
            problems.append((line_no, "no values after ':'"))
            continue
        if len(value_tokens) > 2:
            problems.append(
                (line_no, f"expected 1 or 2 values, got {len(value_tokens)}")
            )
            continue
        values = []
        bad = False
        for tok in value_tokens:
            try:
                values.append(to_fraction(tok))
            except (ValueError, ZeroDivisionError) as exc:
                why = f": {exc}" if isinstance(exc, ExponentTooLarge) else ""
                problems.append((line_no, f"unreadable value {tok!r}{why}"))
                bad = True
        if bad:
            continue
        if expected_width is None:
            expected_width = len(values)
        elif len(values) != expected_width:
            problems.append(
                (
                    line_no,
                    f"line has {len(values)} values but earlier lines have "
                    f"{expected_width}",
                )
            )
            continue
        try:
            simplex = Simplex(vertices)
        except ValueError as exc:
            problems.append((line_no, str(exc)))
            continue
        rows.append((line_no, simplex, tuple(values)))

    if not rows and not problems:
        problems.append((None, "no simplices in file"))
    if problems:
        raise ParseError(problems, path)

    try:
        K = validate_complex([simplex for _, simplex, _ in rows])
    except InvalidComplex as exc:
        raise ParseError(
            [(rows[issue.index][0], issue.message) for issue in exc.issues], path
        ) from None

    functions = tuple(
        FiltrationFunction(K, [values[k] for _, _, values in rows])
        for k in range(len(rows[0][2]))
    )
    return InstanceFile(K, functions, path)


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
    K = instance.complex
    lines = []
    for i, simplex in enumerate(K.simplices):
        verts = " ".join(str(v) for v in simplex.vertices)
        vals = " ".join(format_value(f.values[i]) for f in instance.functions)
        lines.append(f"{verts} : {vals}")
    return "\n".join(lines) + "\n"
