"""Metabolic gas drive and lung exchange around the simulation loop.

Gas levels live directly in the gas sensor activations.  Metabolism pushes
the CO2 sensor up and pulls the O2 sensor down by fixed amounts every step.
When the lung muscle is active above its threshold, breathing moves both
back, proportionally to lung activation, unless the corresponding half of
respiration is blocked.  Without breathing a gas settles where production
balances decay (production / decay fraction).  Both add their amounts in
place into a step's external injection array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .connectome import Connectome
from .errors import ACTIVATION, ConfigError, require_numbers


@dataclass
class PhysioConfig:
    co2_production: float = 0.01
    o2_consumption: float = 0.01
    lung_threshold: float = 0.5
    exchange_gain: float = 0.12
    initial_co2: float = 0.0
    initial_o2: float = 0.0
    co2_name: str = "sCO2"
    o2_name: str = "sO2"
    lung_name: str = "LUNG"
    enabled: bool = True

    def __post_init__(self) -> None:
        require_numbers(  # initial levels in the range injections and clamps are held to
            self, co2_production="[0, inf)", o2_consumption="[0, inf)", lung_threshold="[0, inf)",
            exchange_gain="[0, inf)", initial_co2=ACTIVATION, initial_o2=ACTIVATION,
        )
        for gas in ("co2_production", "o2_consumption"):
            if self.exchange_gain <= getattr(self, gas):
                raise ConfigError(f"exchange_gain must exceed {gas} or breathing can never win")


@dataclass(frozen=True)
class PhysioBinding:
    co2: int
    o2: int
    lung: int


def bind(net: Connectome, cfg: PhysioConfig) -> PhysioBinding:
    """Resolve the three distinct gas and lung elements against a connectome."""
    names = (cfg.co2_name, cfg.o2_name, cfg.lung_name)
    for name in names:
        if name not in net.name_to_id:
            raise ConfigError(f"physiology needs an element named {name!r}")
    if len(set(names)) < 3:
        raise ConfigError(f"physiology roles need three distinct elements, got {' '.join(names)}")
    return PhysioBinding(*(net.name_to_id[name] for name in names))


def metabolic_step(inject: np.ndarray, cfg: PhysioConfig, binding: PhysioBinding) -> None:
    """Add this step's metabolic gas drive to `inject`."""
    inject[binding.co2] += cfg.co2_production
    inject[binding.o2] -= cfg.o2_consumption


def lung_exchange(
    inject: np.ndarray,
    lung: float,
    cfg: PhysioConfig,
    binding: PhysioBinding,
    block_exhale: bool,
    block_inhale: bool,
) -> None:
    """Add this step's breathing to `inject`, given the lung activation,
    except for the blocked halves."""
    if lung > cfg.lung_threshold:
        amount = cfg.exchange_gain * lung
        if not block_inhale:
            inject[binding.o2] += amount
        if not block_exhale:
            inject[binding.co2] -= amount
