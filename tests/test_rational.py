import math
import random
from fractions import Fraction

import pytest

from phstab.rational import (
    INF,
    MAX_EXPONENT,
    ExponentTooLarge,
    approx_string,
    format_value,
    fraction_string,
    int_string,
    read_value,
    to_fraction,
)


def test_to_fraction_exact_inputs():
    assert to_fraction(3) == Fraction(3)
    assert to_fraction(Fraction(2, 7)) == Fraction(2, 7)
    assert to_fraction("0.1") == Fraction(1, 10)
    assert to_fraction(" 0.25 ") == Fraction(1, 4)
    assert to_fraction("7e-3") == Fraction(7, 1000)
    assert to_fraction("3/7") == Fraction(3, 7)
    assert to_fraction("-.125") == Fraction(-1, 8)
    # floats convert to their exact binary value, not a decimal reading
    assert to_fraction(0.5) == Fraction(1, 2)
    assert to_fraction(0.1) == Fraction(0.1)


def test_to_fraction_rejects_junk():
    with pytest.raises(ValueError):
        to_fraction(math.inf)
    with pytest.raises(ValueError):
        to_fraction(math.nan)
    with pytest.raises(ValueError):
        to_fraction("abc")
    with pytest.raises(ValueError):
        to_fraction("1/0")
    with pytest.raises(TypeError):
        to_fraction(True)
    with pytest.raises(TypeError):
        to_fraction(None)


def test_to_fraction_bounds_the_decimal_exponent():
    # exponents are read as Fraction reads them: e or E, a sign, underscores
    assert to_fraction("1e1_0") == 10**10
    assert to_fraction("2E-3") == Fraction(1, 500)
    assert to_fraction(f"1e{MAX_EXPONENT}") == 10**MAX_EXPONENT
    assert to_fraction(f"1e-{MAX_EXPONENT}") == Fraction(1, 10**MAX_EXPONENT)
    assert to_fraction("1e0_0_05") == 10**5
    for text in (
        f"1e{MAX_EXPONENT + 1}",
        f"1E-{MAX_EXPONENT + 1}",
        "1e100000000",
        "1e9999999999",
        "5e+1_000_000",
        "1e" + "9" * 5000,  # past int()'s digit limit: counted, not read
    ):
        with pytest.raises(ExponentTooLarge):
            to_fraction(text)
    # a long exponent with a small value is read without its leading zeros,
    # which alone would carry it past int()'s digit limit
    assert to_fraction("1e" + "0" * 5000 + "5") == Fraction(100000)
    assert to_fraction("-2.5E-" + "0" * 5000 + "1_0") == Fraction(-1, 4 * 10**9)
    with pytest.raises(ValueError):
        to_fraction("1.2.3e" + "0" * 5000 + "5")


def test_format_value_holds_a_slash_exactly_when_not_terminating():
    for x in (Fraction(1, 2), Fraction(3, 40), Fraction(7), Fraction(-1, 8)):
        assert "/" not in format_value(x)
    for x in (Fraction(1, 3), Fraction(5, 6), Fraction(-22, 7)):
        assert "/" in format_value(x)


def test_format_value_table():
    assert format_value(INF) == "inf"
    assert format_value(Fraction(1, 2)) == "0.5"
    assert format_value(Fraction(1, 3)) == "1/3"
    assert format_value(Fraction(-7, 6)) == "-7/6"
    assert format_value(0) == "0"
    assert format_value("0.625") == "0.625"


def test_decimal_string_exact():
    # a terminating value renders as its exact decimal, no trailing zeros
    assert format_value(Fraction(1, 2)) == "0.5"
    assert format_value(Fraction(-1, 8)) == "-0.125"
    assert format_value(Fraction(1, 50)) == "0.02"
    assert format_value(Fraction(5, 4)) == "1.25"
    assert format_value(Fraction(3)) == "3"
    assert format_value(Fraction(1, 3)) == "1/3"


def test_format_round_trips_through_parser():
    for x in [Fraction(1, 3), Fraction(-5, 7), Fraction(9, 40), Fraction(0), Fraction(123, 8)]:
        assert to_fraction(format_value(x)) == x


def test_approx_string():
    assert approx_string(INF) == "inf"
    assert approx_string(Fraction(1, 3)) == "0.333333"
    assert approx_string(Fraction(1, 2)) == "0.5"


def test_int_string_matches_str_and_passes_the_limit():
    rng = random.Random(5)
    # up to 4000 digits str() still works, so both routes must agree
    for digits in (1, 602, 603, 700, 1500, 4000):
        for n in (10 ** (digits - 1), 10**digits - 1, rng.randrange(10**digits)):
            assert int_string(n) == str(n)
            assert int_string(-n) == str(-n)
    # past the limit: read the digits back in 1000-digit chunks
    n = 7 * 10**6000 + rng.randrange(10**6000)
    text = int_string(n)
    assert len(text) == 6001
    back = 0
    for k in range(0, len(text), 1000):
        chunk = text[k : k + 1000]
        back = back * 10 ** len(chunk) + int(chunk)
    assert back == n


def test_fraction_string_is_str_without_the_limit():
    for x in (Fraction(0), Fraction(-3), Fraction(1, 3), Fraction(-22, 7)):
        assert fraction_string(x) == str(x)
    assert fraction_string(5) == "5"
    assert fraction_string(math.inf) == "inf"
    big = Fraction(10**5000 + 1, 3)
    assert fraction_string(big) == "1" + "0" * 4999 + "1/3"
    assert format_value(big) == fraction_string(big)
    assert format_value(Fraction(10**5000, 4)) == "25" + "0" * 4998
    assert format_value(Fraction(1, 2**5000)).startswith("0." + "0" * 1500)


def _read(read, token):
    """What ``read`` gives for ``token``: its value as a Fraction, or the
    type and message of what it raises."""
    try:
        value = read(token)
    except Exception as exc:  # the comparison is of any exception
        return type(exc), str(exc)
    if isinstance(value, tuple):  # read_value: (numerator, denominator)
        numerator, denominator = value
        assert type(numerator) is int and type(denominator) is int
        assert denominator > 0
        return Fraction(numerator, denominator)
    return value


READER_CASES = (
    "٣ ² １ 1_0 1_0/3 5. .5 . +.5 -0 0/5 1/0 3/-4 1e3 1E-2 1.5e2 00012 1/03 "
    "0x10 inf nan - + -5 +7/3 -.25 1.2.3 1/2/3 +-5 /4 4/ 1/00 -0.0 007.700"
).split() + [
    "",
    f"1e{MAX_EXPONENT}",
    f"1e{MAX_EXPONENT + 1}",
    "1e" + "9" * 5000,
    "1" * 5000,  # past int()'s digit limit
    "1" * 3000 + "." + "2" * 3000,  # each part within it, not both
    "7" * 4400 + "/3",
    "2" * 2000 + "/" + "3" * 2500,
    True,
    3,
    Fraction(-2, 6),
]


def _fuzz_tokens(rng, count):
    """Tokens near the plain forms (a sign, digits, a point or a slash)
    and tokens of any characters an instance file might hold."""
    alphabet = "0123456789" * 3 + "+-./eE_x ٣１²"
    for _ in range(count):
        if rng.random() < 0.5:
            sign = rng.choice(["", "", "+", "-"])
            head = "".join(rng.choices("0123456789", k=rng.randrange(4)))
            tail = "".join(rng.choices("0123456789", k=rng.randrange(4)))
            yield sign + head + rng.choice([".", "/", "", "e"]) + tail
        else:
            yield "".join(rng.choices(alphabet, k=rng.randrange(1, 9)))


def test_read_value_equals_to_fraction():
    """The fast reader is ``to_fraction`` as ints: the same value up to
    reduction, or the same exception with the same message."""
    rng = random.Random(22)
    tokens = list(READER_CASES) + list(_fuzz_tokens(rng, 20_000))
    valid = 0
    for token in tokens:
        want = _read(to_fraction, token)
        assert _read(read_value, token) == want, repr(token)
        valid += isinstance(want, Fraction)
    assert valid > 5_000
    assert read_value("0.25") == (25, 100)  # not reduced: one lcm does that
    assert read_value("-3/6") == (-3, 6)
