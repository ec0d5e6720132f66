"""The interval check that configs, ``.ort`` files and protocols share."""

import math

import pytest

from ortus.errors import bound_error


@pytest.mark.parametrize(
    "interval,value,inside",
    [
        ("[0, 1]", 0.0, True),  # closed ends hold their bound
        ("[0, 1]", 1.0, True),
        ("[0, 1)", 1.0, False),  # open ends do not
        ("(0, 1]", 0.0, False),
        ("[0, 1)", 0.9999999999999999, True),
        ("[0, 1]", -0.0, True),  # -0.0 == 0.0
        ("[-1, 1]", -1.0000000000000002, False),
        ("[0, 1]", math.nan, False),  # NaN lies in no interval
        ("(-inf, inf)", math.nan, False),
        ("[0, inf)", 1e308, True),  # inf as a bound
        ("[0, inf)", math.inf, False),
        ("[0, inf]", math.inf, True),
        ("(-inf, 4]", -math.inf, False),
        ("[1, inf)", 0, False),  # integers as well as floats
        ("[1, 7]", 7, True),
    ],
)
def test_bound_error(interval, value, inside):
    message = bound_error("x", value, interval)
    assert message == (None if inside else f"x must lie in {interval}, got {value!r}")
