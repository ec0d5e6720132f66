"""Shared exception hierarchy, and the number check of the config classes."""

import dataclasses
import math
import numbers


class OrtusError(Exception):
    """Base class for every error this package raises on purpose."""


class ConfigError(OrtusError):
    """A configuration value is invalid or inconsistent with another."""


def require_numbers(cfg) -> None:
    """Raise ``ConfigError`` naming the first field of the dataclass instance
    `cfg` that holds NaN or an infinity where its default is a float, or no
    integer where its default is an int."""
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(f.default, float) and not math.isfinite(value):
            raise ConfigError(f"{f.name} must be finite, got {value!r}")
        if type(f.default) is int and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
            raise ConfigError(f"{f.name} must be an integer, got {value!r}")
