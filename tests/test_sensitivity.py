"""Does fear conditioning survive a small parameter neighbourhood?

The bundled experiment is run with ``decay_fraction``, ``rapid_rate`` and
``eei_initial_weight`` each moved by ±10%, one at a time and in pairs (19
experiments with the defaults).  Each must keep the probe's eFEAR peak at
least twice the control's and the per-burst eFEAR peaks strictly growing.

Raising ``decay_fraction`` to 0.22, alone or with either other move, does
not: fear never builds (every burst peaks at about 0.1) and the probe ratio
falls to 0.9998.  Those points are expected failures, kept strict so that a
change which makes them pass has to say so; the defaults are not retuned to
hide them.  The ratio falls off a cliff between ``decay_fraction`` 0.217288
(2.78) and 0.217289 (1.03), which is pinned on both sides.  See the README's
"Parameter neighbourhood" tables.
"""

import itertools

import pytest

from ortus import BuildConfig, build
from ortus.cli import BURST_TAIL
from ortus.kernel import SimConfig
from ortus.plasticity import PlasticityConfig
from ortus.protocol import EventKind, RunConfig, control_variant, load_protocol, run

DEFAULTS = {"decay_fraction": 0.20, "rapid_rate": 0.01, "eei_initial_weight": 0.05}
MOVES = (0.9, 1.1)


def neighbourhood():
    yield {}
    for name in DEFAULTS:
        for f in MOVES:
            yield {name: f}
    for a, b in itertools.combinations(DEFAULTS, 2):
        for fa, fb in itertools.product(MOVES, MOVES):
            yield {a: fa, b: fb}


def case(moves):
    values = {name: DEFAULTS[name] * moves.get(name, 1.0) for name in DEFAULTS}
    label = ",".join(f"{name}={values[name]:.4g}" for name in moves) or "defaults"
    collapses = moves.get("decay_fraction") == 1.1
    marks = [pytest.mark.xfail(strict=True, reason="fear never builds")] if collapses else []
    return pytest.param(values, id=label, marks=marks)


CASES = [case(moves) for moves in neighbourhood()]


def test_the_neighbourhood_has_nineteen_points():
    assert len(CASES) == 19


def experiment(values, organism_spec, conditioning_protocol_path):
    """The bundled experiment's probe ratio and per-burst eFEAR peaks."""
    net = build(organism_spec, BuildConfig(eei_initial_weight=values["eei_initial_weight"]))
    protocol = load_protocol(conditioning_protocol_path, net)
    cfg = RunConfig(
        sim=SimConfig(decay_fraction=values["decay_fraction"]),
        plasticity=PlasticityConfig(rapid_rate=values["rapid_rate"]),
    )
    fear = run(net, protocol, cfg).column("eFEAR")
    control = run(net, control_variant(protocol), cfg).column("eFEAR")

    *bursts, probe = [ev for ev in protocol.events if ev.kind is EventKind.INJECT]
    peaks = [float(fear[ev.start:min(ev.end + BURST_TAIL, protocol.total_steps)].max()) for ev in bursts]
    return float(fear[probe.start:probe.end].max() / control[probe.start:probe.end].max()), peaks


@pytest.mark.parametrize("values", CASES)
def test_conditioning_survives_the_neighbourhood(values, organism_spec, conditioning_protocol_path):
    ratio, peaks = experiment(values, organism_spec, conditioning_protocol_path)
    assert ratio >= 2.0
    assert all(later > earlier for earlier, later in zip(peaks, peaks[1:])), peaks


@pytest.mark.parametrize("decay_fraction, conditions", [(0.217288, True), (0.217289, False)])
def test_the_decay_fraction_cliff_lies_between_0_217288_and_0_217289(
    decay_fraction, conditions, organism_spec, conditioning_protocol_path
):
    values = {**DEFAULTS, "decay_fraction": decay_fraction}
    ratio, _ = experiment(values, organism_spec, conditioning_protocol_path)
    assert (ratio >= 2.0) is conditions, ratio
