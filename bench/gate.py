"""Correctness gate: what each operation's output must satisfy.

Each check returns a list of problems; an empty list means the operation
passed.  Values are compared exactly, as Fractions.
"""

from __future__ import annotations

from fractions import Fraction

MACHINE_KEYS = (
    "sup_norm",
    "crossings",
    "intervals",
    "composed_cost",
    "exact_bottleneck",
    "holds",
)


def _number(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"not an exact number: {text!r}") from None


def parse_machine(text: str) -> dict:
    """``verify --machine`` output as a dict; ValueError when malformed."""
    fields = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if not sep or key in fields:
            raise ValueError(f"bad line {line!r}")
        fields[key] = value
    if tuple(fields) != MACHINE_KEYS:
        raise ValueError(f"keys {tuple(fields)} != {MACHINE_KEYS}")
    out = {k: _number(fields[k]) for k in MACHINE_KEYS if k != "holds"}
    if fields["holds"] not in ("true", "false"):
        raise ValueError(f"holds={fields['holds']!r}")
    out["holds"] = fields["holds"] == "true"
    return out


def parse_distance(text: str) -> Fraction:
    """The value on the first line of ``bottleneck`` output."""
    first = text.splitlines()[0] if text else ""
    word, _, value = first.partition(" ")
    if word != "distance":
        raise ValueError(f"no distance line in {first!r}")
    return _number(value)


def check_verify(status: int, text: str, expect: dict) -> list:
    if status != 0:
        return [f"exit {status}"]
    try:
        got = parse_machine(text)
    except ValueError as exc:
        return [str(exc)]
    problems = []
    if not got["holds"]:
        problems.append("holds=false")
    if got["sup_norm"] != expect["sup_norm"]:
        problems.append(f"sup_norm {got['sup_norm']} != {expect['sup_norm']}")
    if got["crossings"] != expect["crossings"]:
        problems.append(f"crossings {got['crossings']} != {expect['crossings']}")
    if got["intervals"] != got["crossings"] + 1:
        problems.append(f"intervals {got['intervals']} != crossings + 1")
    if not got["exact_bottleneck"] <= got["composed_cost"] <= got["sup_norm"]:
        problems.append(
            f"not exact {got['exact_bottleneck']} <= composed "
            f"{got['composed_cost']} <= sup {got['sup_norm']}"
        )
    return problems


def check_distance(status: int, text: str, expect: dict, distances: dict) -> list:
    """Shift rungs must hit ``distance`` exactly; generated pairs must stay
    within ``sup_norm``, and a diagonal distance within its bijection twin
    (looked up by op name in ``distances``) when that one has run."""
    if status != 0:
        return [f"exit {status}"]
    try:
        got = parse_distance(text)
    except ValueError as exc:
        return [str(exc)]
    problems = []
    if "distance" in expect and got != expect["distance"]:
        problems.append(f"distance {got} != {expect['distance']}")
    if "sup_norm" in expect and got > expect["sup_norm"]:
        problems.append(f"distance {got} > sup norm {expect['sup_norm']}")
    twin = distances.get(expect.get("at_most"))
    if twin is not None and got > twin:
        problems.append(f"diagonal {got} > bijection {twin}")
    return problems


def check(op, status: int, text: str, distances: dict) -> list:
    if op.kind == "verify":
        return check_verify(status, text, op.expect)
    problems = check_distance(status, text, op.expect, distances)
    if not problems:
        distances[op.name] = parse_distance(text)
    return problems
