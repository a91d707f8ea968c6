import math
from fractions import Fraction

import pytest

from phstab.rational import (
    INF,
    approx_string,
    common_denominator,
    common_numerators,
    decimal_string,
    format_value,
    is_terminating,
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


def test_is_terminating():
    assert is_terminating(Fraction(1, 2))
    assert is_terminating(Fraction(3, 40))
    assert is_terminating(Fraction(7))
    assert not is_terminating(Fraction(1, 3))
    assert not is_terminating(Fraction(5, 6))


def test_decimal_string_exact():
    assert decimal_string(Fraction(1, 2)) == "0.5"
    assert decimal_string(Fraction(-1, 8)) == "-0.125"
    assert decimal_string(Fraction(1, 50)) == "0.02"
    assert decimal_string(Fraction(5, 4)) == "1.25"
    assert decimal_string(Fraction(3)) == "3"
    with pytest.raises(ValueError):
        decimal_string(Fraction(1, 3))


def test_format_value_table():
    assert format_value(INF) == "inf"
    assert format_value(Fraction(1, 2)) == "0.5"
    assert format_value(Fraction(1, 3)) == "1/3"
    assert format_value(Fraction(-7, 6)) == "-7/6"
    assert format_value(0) == "0"
    assert format_value("0.625") == "0.625"


def test_format_round_trips_through_parser():
    for x in [Fraction(1, 3), Fraction(-5, 7), Fraction(9, 40), Fraction(0), Fraction(123, 8)]:
        assert to_fraction(format_value(x)) == x


def test_approx_string():
    assert approx_string(INF) == "inf"
    assert approx_string(Fraction(1, 3)) == "0.333333"
    assert approx_string(Fraction(1, 2)) == "0.5"


def test_common_numerators_over_a_chosen_scale():
    column = [Fraction(1, 3), Fraction(-2, 7), 5]
    assert common_denominator(column) == 21
    assert common_denominator() == 1
    assert common_numerators(column) == [[7, -6, 105]]
    assert common_numerators(column, [Fraction(1, 2)], scale=84) == [
        [28, -24, 420],
        [42],
    ]
