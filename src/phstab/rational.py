"""Exact rational values: reading, coercion and deterministic formatting.

Values are stored only as ints over one positive denominator, the scale:
an instance file's values are all over the lcm of its denominators, read
token by token with ``read_value``, and a function built from values
(``to_fraction``) puts them over the lcm of theirs, so comparing,
subtracting and maximising values is int arithmetic.
A ``fractions.Fraction`` is a view built when a value is read: for
output, for messages and for callers that ask for values; every
interpolation parameter and every cost a function returns is one.
``math.inf`` is the single sentinel for an infinite death time or an
infeasible matching cost.  Floats are accepted on input only when finite
and are converted to their exact binary value.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

INF = math.inf

# Fraction expands a decimal exponent in full ("1e100000" parses in about
# 0.01 s, "1e100000000" takes minutes), so to_fraction rejects a larger one
# first, read as Fraction reads it: e or E, a sign, digits and underscores.
# It counts the digits before calling int(), which refuses an exponent past
# the interpreter's digit limit, and hands Fraction the exponent without
# its leading zeros, which alone can carry it past that limit.
MAX_EXPONENT = 100_000
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\Z")


class ExponentTooLarge(ValueError):
    """A decimal literal whose exponent exceeds ``MAX_EXPONENT`` in magnitude."""


def to_fraction(value) -> Fraction:
    """Coerce an int, str, float, or Fraction to an exact Fraction.

    Strings are parsed as exact decimal literals (``0.25``, ``7e-3``) or as
    rationals (``3/7``).  Non-finite floats, and literals whose decimal
    exponent exceeds ``MAX_EXPONENT`` in magnitude, are rejected.
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
        text = value.strip()
        exponent = ("e" in text or "E" in text) and _EXPONENT.search(text)
        if exponent:
            sign = exponent[1][0] if exponent[1][0] in "+-" else ""
            digits = exponent[1].lstrip("+-").replace("_", "").lstrip("0")
            too_long = len(digits) > len(str(MAX_EXPONENT))
            if too_long or int(digits or 0) > MAX_EXPONENT:
                raise ExponentTooLarge(
                    f"exponent exceeds {MAX_EXPONENT} in magnitude"
                )
            text = f"{text[:exponent.start()]}e{sign}{digits or 0}"
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational literal: {value!r}") from exc
    raise TypeError(f"cannot convert {type(value).__name__} to Fraction")


def read_value(token) -> tuple[int, int]:
    """One value of an instance file as ints (numerator, denominator), the
    denominator positive, not necessarily in lowest terms.

    A plain ASCII literal, that is an integer, ``p/q`` with q > 0 or a
    decimal such as ``-0.25``, ``5.`` or ``.5``, is read with ``int()``.
    Any other token (an exponent, underscores, non-ASCII digits, a zero
    denominator, more digits than ``int()`` reads, anything not a ``str``)
    goes to ``to_fraction``, with its exceptions and messages.  The ASCII
    test comes first: ``'²'.isdigit()`` holds, but ``int('²')`` raises.
    """
    if type(token) is str and token.isascii():
        sign = -1 if token.startswith("-") else 1
        body = token[1:] if token.startswith(("+", "-")) else token
        whole, _, decimals = body.partition(".")
        numerator, _, denominator = body.partition("/")
        try:
            if (whole + decimals).isdigit():
                return sign * int(whole + decimals), 10 ** len(decimals)
            if numerator.isdigit() and denominator.isdigit() and int(denominator):
                return sign * int(numerator), int(denominator)
        except ValueError:  # past the interpreter's int digit limit
            pass
    x = to_fraction(token)
    return x.numerator, x.denominator


def _decimal_places(x: Fraction) -> "int | None":
    """Digits after the point in x's finite decimal expansion, or None if
    it has none (its denominator is not 2^a * 5^b)."""
    d = x.denominator
    places = 0
    for p in (2, 5):
        k = 0
        while d % p == 0:
            d //= p
            k += 1
        places = max(places, k)
    return places if d == 1 else None


# Below 2000 bits (602 digits) str(int) is safe: the interpreter's int -> str
# limit (3.10.7 and later) cannot be set under 640 digits.
_STR_SAFE_BITS = 2000


def int_string(n: int) -> str:
    """``str(n)``, also for ints past the interpreter's int -> str limit.

    A large ``n`` is split by a power of ten into two halves of about equal
    length, so no single conversion reaches the limit.
    """
    if n.bit_length() <= _STR_SAFE_BITS:
        return str(n)
    if n < 0:
        return "-" + int_string(-n)
    k = n.bit_length() * 3 // 20  # about half of its log10(2) * bits digits
    high, low = divmod(n, 10**k)
    return int_string(high) + int_string(low).zfill(k)


def fraction_string(x) -> str:
    """``str(x)`` for an int, a Fraction (``p`` or ``p/q``) or INF (``inf``),
    without the int -> str limit; for values in messages."""
    if x == INF:
        return "inf"
    if x.denominator == 1:
        return int_string(x.numerator)
    return f"{int_string(x.numerator)}/{int_string(x.denominator)}"


def format_value(x) -> str:
    """Deterministic single-token rendering: exact decimal when terminating,
    ``p/q`` otherwise (so it holds a ``/`` exactly then), ``inf`` for the
    infinite sentinel."""
    if x == INF:
        return "inf"
    x = to_fraction(x)
    places = _decimal_places(x)
    if places is None:
        return fraction_string(x)
    sign = "-" if x < 0 else ""
    scaled = abs(x.numerator) * 10**places // x.denominator
    if places == 0:
        return f"{sign}{int_string(scaled)}"
    whole, frac = divmod(scaled, 10**places)
    return f"{sign}{int_string(whole)}.{int_string(frac).zfill(places)}"


def approx_string(x) -> str:
    """Rounded decimal companion, six significant digits, for logs; never
    used in comparisons."""
    if x == INF:
        return "inf"
    return f"{float(x):.6g}"
