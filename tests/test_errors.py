"""The number reader and the interval check that configs, ``.ort`` files and
protocols share."""

import math
import re

import pytest

from ortus.cli import Configs, apply_overrides
from ortus.errors import OrtusError, bound_error, read_number
from ortus.protocol import parse_protocol


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


def _read_or_none(read):
    try:
        return read()
    except OrtusError:
        return None


@pytest.mark.parametrize(
    "text,count,value",
    [
        # counts, as a protocol's steps and as run.weight_snapshot_every
        ("10", True, 10),
        ("\u0664", True, 4),  # an Arabic-Indic four is a decimal digit
        ("+4", True, None),  # digits only
        ("1_0", True, None),  # int() reads it as 10
        ("0_01", True, None),  # int() reads it as 1
        ("2.5", True, None),
        # amounts, as an injection's amplitude and as plasticity.rapid_rate
        (".5", False, 0.5),
        ("1e-1", False, 0.1),
        ("+0.5", False, 0.5),
        ("\u0660.\u0665", False, 0.5),  # Arabic-Indic digits
        ("0_5", False, None),  # float() reads it as 5.0
        ("0_01", False, None),  # float() reads it as 1.0: 100 times the default rate
    ],
)
def test_a_number_reads_the_same_in_a_protocol_and_in_set(organism_net, text, count, value):
    if count:
        line, ns, key = f"steps {text}\n", "run", "weight_snapshot_every"
    else:
        line, ns, key = f"steps 5\nat 1..2 inject sH2O {text}\n", "plasticity", "rapid_rate"
    protocol = _read_or_none(lambda: parse_protocol(line, organism_net))
    in_protocol = protocol and (protocol.total_steps if count else protocol.events[0].value)
    in_set = _read_or_none(lambda: getattr(apply_overrides(Configs(), [f"{ns}.{key}={text}"]).sections()[ns], key))
    assert (in_protocol, in_set) == (value, value)
    assert type(in_protocol) is type(in_set) is type(value)


@pytest.mark.parametrize("text,count", [(" 0.5", False), ("0.5 ", False), ("0.5\n", False), (" 5", True)])
def test_a_number_with_spaces_around_it_is_refused(text, count):
    with pytest.raises(ValueError, match=f"^bad number {re.escape(repr(text))}$"):
        read_number(text, count)
