"""Exact rational values: coercion, parsing, and deterministic formatting.

All function values, interpolation parameters, and costs in this package are
exact ``fractions.Fraction`` instances; ``math.inf`` is the single sentinel
for an infinite death time or an infeasible matching cost.  Floats are
accepted on input only when finite and are converted to their exact binary
value.
"""

from __future__ import annotations

import math
from fractions import Fraction

INF = math.inf


def to_fraction(value) -> Fraction:
    """Coerce an int, str, float, or Fraction to an exact Fraction.

    Strings are parsed as exact decimal literals (``0.25``, ``7e-3``) or as
    rationals (``3/7``).  Non-finite floats are rejected.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError(f"not a number: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"non-finite value: {value!r}")
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational literal: {value!r}") from exc
    raise TypeError(f"cannot convert {type(value).__name__} to Fraction")


def common_denominator(*columns) -> int:
    """Least common multiple of the denominators of every value in
    ``columns``; 1 when there are none."""
    return math.lcm(*(x.denominator for col in columns for x in col))


def common_numerators(*columns, scale: "int | None" = None) -> list[list[int]]:
    """Each column of Fractions as integer numerators over one shared
    positive denominator: ``scale`` if given (a multiple of every
    denominator), else the least one.

    Scaling by a positive constant keeps every sign of a difference and
    every ratio of differences, so exact comparisons can run on ints.
    """
    if scale is None:
        scale = common_denominator(*columns)
    return [[x.numerator * (scale // x.denominator) for x in col] for col in columns]


def is_terminating(x: Fraction) -> bool:
    """True iff x has a finite decimal expansion (denominator 2^a * 5^b)."""
    d = x.denominator
    for p in (2, 5):
        while d % p == 0:
            d //= p
    return d == 1


def decimal_string(x: Fraction) -> str:
    """Exact decimal expansion of a terminating rational, no trailing zeros."""
    if not is_terminating(x):
        raise ValueError(f"{x} has no finite decimal expansion")
    sign = "-" if x < 0 else ""
    x = abs(x)
    d = x.denominator
    two = five = 0
    while d % 2 == 0:
        d //= 2
        two += 1
    while d % 5 == 0:
        d //= 5
        five += 1
    k = max(two, five)
    scaled = x.numerator * 10**k // x.denominator
    if k == 0:
        return f"{sign}{scaled}"
    whole, frac = divmod(scaled, 10**k)
    return f"{sign}{whole}.{str(frac).zfill(k)}"


def format_value(x) -> str:
    """Deterministic single-token rendering: exact decimal when terminating,
    ``p/q`` otherwise, ``inf`` for the infinite sentinel."""
    if x == INF:
        return "inf"
    x = to_fraction(x)
    if is_terminating(x):
        return decimal_string(x)
    return f"{x.numerator}/{x.denominator}"


def approx_string(x, digits: int = 6) -> str:
    """Rounded decimal companion for logs; never used in comparisons."""
    if x == INF:
        return "inf"
    return f"{float(x):.{digits}g}"
