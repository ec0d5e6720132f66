"""Metabolic gas drive and lung exchange.

The closed-form equilibrium is the key invariant: with no breathing, a gas
sensor driven at rate r and decaying by fraction d settles at exactly r/d.
"""

import math

import numpy as np
import pytest

from ortus.errors import ConfigError
from ortus.kernel import NetView, SimConfig, step
from ortus.physiology import PhysioConfig, bind, lung_exchange, metabolic_step

BLOCKS = [(False, False), (True, False), (False, True), (True, True)]


@pytest.fixture()
def bound(organism_net):
    cfg = PhysioConfig()
    return organism_net, cfg, bind(organism_net, cfg)


# ---------------------------------------------------------------------------
# per-step gas drive, added in place
# ---------------------------------------------------------------------------


def test_metabolism_adds_co2_and_removes_o2_in_place(bound):
    net, cfg, binding = bound
    inject = np.linspace(-0.3, 0.3, net.n)
    before = inject.copy()
    assert metabolic_step(inject, cfg, binding) is None
    assert inject[binding.co2] == before[binding.co2] + cfg.co2_production
    assert inject[binding.o2] == before[binding.o2] - cfg.o2_consumption
    others = np.ones(net.n, dtype=bool)
    others[[binding.co2, binding.o2]] = False
    np.testing.assert_array_equal(inject[others], before[others])


@pytest.mark.parametrize("block_exhale,block_inhale", BLOCKS)
def test_idle_lung_adds_nothing(bound, block_exhale, block_inhale):
    net, cfg, binding = bound
    inject = np.linspace(-0.3, 0.3, net.n)
    before = inject.copy()
    # the threshold is strict: a lung exactly at it does not breathe
    lung_exchange(inject, cfg.lung_threshold, cfg, binding, block_exhale, block_inhale)
    np.testing.assert_array_equal(inject, before)


@pytest.mark.parametrize("block_exhale,block_inhale", BLOCKS)
def test_breathing_moves_each_unblocked_gas(bound, block_exhale, block_inhale):
    net, cfg, binding = bound
    inject = np.linspace(-0.3, 0.3, net.n)
    before = inject.copy()
    assert lung_exchange(inject, 0.75, cfg, binding, block_exhale, block_inhale) is None
    amount = cfg.exchange_gain * 0.75
    want = before.copy()
    if not block_exhale:
        want[binding.co2] -= amount
    if not block_inhale:
        want[binding.o2] += amount
    np.testing.assert_array_equal(inject, want)


def test_bind_requires_the_named_neurons(organism_net):
    with pytest.raises(ConfigError):
        bind(organism_net, PhysioConfig(lung_name="GILL"))


@pytest.mark.parametrize(
    "names", [("sCO2", "sCO2", "sCO2"), ("sCO2", "sCO2", "LUNG"), ("sCO2", "sO2", "sO2"), ("LUNG", "sO2", "LUNG")]
)
def test_bind_requires_three_distinct_elements(organism_net, names):
    cfg = PhysioConfig(co2_name=names[0], o2_name=names[1], lung_name=names[2])
    with pytest.raises(ConfigError, match="three distinct elements"):
        bind(organism_net, cfg)


def test_names_are_remappable(organism_net):
    cfg = PhysioConfig(co2_name="sO2", o2_name="sCO2", lung_name="LUNG")
    binding = bind(organism_net, cfg)
    assert binding.co2 == organism_net.name_to_id["sO2"]
    assert binding.o2 == organism_net.name_to_id["sCO2"]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "name", ["co2_production", "o2_consumption", "lung_threshold", "exchange_gain", "initial_co2", "initial_o2"]
)
def test_config_rejects_non_finite_numbers(name, value):
    with pytest.raises(ConfigError, match=f"^{name} must be finite"):
        PhysioConfig(**{name: value})


@pytest.mark.parametrize("value", ["x", None, False])
@pytest.mark.parametrize("name", ["co2_production", "initial_o2"])
def test_config_rejects_what_is_no_number(name, value):
    with pytest.raises(ConfigError, match=f"^{name} must be a number, got {value!r}$"):
        PhysioConfig(**{name: value})


def test_config_validation():
    with pytest.raises(ConfigError):
        PhysioConfig(co2_production=-0.01)
    with pytest.raises(ConfigError):
        PhysioConfig(o2_consumption=-1.0)
    with pytest.raises(ConfigError):
        # exchange too weak to ever beat production: the loop could never close
        PhysioConfig(exchange_gain=0.01, co2_production=0.01)
    with pytest.raises(ConfigError, match="^exchange_gain must exceed o2_consumption or breathing can never win$"):
        # likewise for the O2 that metabolism uses up: at o2_consumption 0.12
        # sO2 never rose above -0.12 in a 700-step bundled run
        PhysioConfig(exchange_gain=0.12, o2_consumption=0.12)
    assert PhysioConfig(co2_production=0.0).co2_production == 0.0


@pytest.mark.parametrize("value", [-5.0, -1.0000000000000002, 1.0000000000000002, 5.0])
@pytest.mark.parametrize("name", ["initial_co2", "initial_o2"])
def test_initial_gas_levels_stay_in_the_activation_range(name, value):
    # the range protocol injections and clamps are held to; a level of 5
    # once ran and reported a probe ratio near 1
    with pytest.raises(ConfigError, match=f"^{name} must lie in \\[-1, 1\\]"):
        PhysioConfig(**{name: value})
    for edge in (-1.0, 1.0):
        assert getattr(PhysioConfig(**{name: edge}), name) == edge


# ---------------------------------------------------------------------------
# closed-form equilibrium
# ---------------------------------------------------------------------------


def test_gas_equilibrium_without_breathing(organism_net):
    """Suffocation pins CO2 at production/decay = 0.05 (and O2 at -0.05)."""
    cfg = PhysioConfig()
    binding = bind(organism_net, cfg)
    view = NetView.of(organism_net)
    sim = SimConfig()
    a = np.zeros(organism_net.n)
    for _ in range(200):
        inject = np.zeros(organism_net.n)
        metabolic_step(inject, cfg, binding)
        # never any lung stroke: clamp the muscle itself at rest
        mask = np.zeros(organism_net.n, dtype=bool)
        mask[binding.lung] = True
        a = step(a, view.syn_w0, view, inject, sim, mask, np.zeros(organism_net.n))
    assert a[binding.co2] == pytest.approx(cfg.co2_production / sim.decay_fraction, abs=1e-6)
    assert a[binding.o2] == pytest.approx(-0.05, abs=1e-6)
