"""Shared exception hierarchy, the one reader of input text, and the one interval check of
every bounded number: configs, ``.ort`` files and protocols share it and the bounds below."""

import dataclasses
import math
import numbers
from pathlib import Path

ACTIVATION = "[-1, 1]"  # activation levels: the reversal range
WEIGHT = "[0, 1]"  # synaptic weights and mutability
THRESHOLD = "[0, 1)"  # transmission thresholds


class OrtusError(Exception):
    """Base class for every error this package raises on purpose."""


class ConfigError(OrtusError):
    """A configuration value is invalid or inconsistent with another."""


def bound_error(name: str, value, interval: str) -> str | None:
    """The refusal of `value` as `name` where it lies outside `interval`,
    written ``[lo, hi]`` with ``(`` or ``)`` for an open end and ``inf`` for
    no bound; else None.  NaN lies in no interval."""
    lo, hi = map(float, interval[1:-1].split(","))
    above = lo < value if interval[0] == "(" else lo <= value
    below = value < hi if interval[-1] == ")" else value <= hi
    return None if above and below else f"{name} must lie in {interval}, got {value!r}"


def require_numbers(cfg, **intervals: str) -> None:
    """Raise ``ConfigError`` naming the first field of the dataclass instance
    `cfg` that holds no number (a bool is none), NaN or an infinity where its
    default is a float, or no integer where its default is an int; then the
    first of `intervals`' fields that lies outside its interval."""
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(f.default, float) and (isinstance(value, bool) or not isinstance(value, numbers.Real)):
            raise ConfigError(f"{f.name} must be a number, got {value!r}")
        if isinstance(f.default, float) and not math.isfinite(value):
            raise ConfigError(f"{f.name} must be finite, got {value!r}")
        if type(f.default) is int and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
            raise ConfigError(f"{f.name} must be an integer, got {value!r}")
    for name, interval in intervals.items():
        message = bound_error(name, getattr(cfg, name), interval)
        if message is not None:
            raise ConfigError(message)


def read_utf8(path: Path, refuse) -> str:
    """The text of the file at `path`, decoded as UTF-8 whatever the locale; the first byte
    that is no UTF-8 raises ``refuse(message, line, col)``, at its 1-based line and column."""
    data = path.read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        *above, head = data[: exc.start].decode("utf-8").split("\n")
        raise refuse(f"byte {data[exc.start]:#04x} is not UTF-8", len(above) + 1, len(head) + 1) from None
