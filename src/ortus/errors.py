"""Shared exception hierarchy, and the finiteness check of the config classes."""

import dataclasses
import math


class OrtusError(Exception):
    """Base class for every error this package raises on purpose."""


class ConfigError(OrtusError):
    """A configuration value is invalid or inconsistent with another."""


def require_finite(cfg) -> None:
    """Raise ``ConfigError`` naming the first float field of the dataclass
    instance `cfg` that holds NaN or an infinity."""
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(f.default, float) and not math.isfinite(value):
            raise ConfigError(f"{f.name} must be finite, got {value!r}")
