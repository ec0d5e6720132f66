"""Does fear conditioning survive more sensors?

The bundled experiment is run on the bundled organism widened to 3..10
sensors, the extra ones declared unconnected after sH2O as the benchmark's
``wide`` workload does, so the SCI layer expands over them: one SCI and one
EEI per emotion for each of the 2^s - 1 sensor subsets.  At 3 and 4 sensors
the probe's eFEAR peak is well over twice the control's.  From 5 sensors on
no weight moves and the ratio stays below 1.1: each EEI's gap weight to its
emotion is 0.8 / (2^s - 1), too little to lift the peaking EEI over the 0.2
activity threshold.  Those sizes are expected failures, kept strict so that
a change which makes them pass has to say so.  See the README's "Sensor
count" table.
"""

from pathlib import Path

import pytest

from ortus import build, parse_source
from ortus.protocol import experiment, parse_protocol

REPO = Path(__file__).resolve().parents[1]

# measured probe ratios of the sizes at which no weight moves
NO_LEARNING = {
    5: 1.000012842265057,
    6: 1.0840969767022488,
    7: 1.0913317913300067,
    8: 1.0000528756928335,
    9: 1.0000556554196256,
    10: 1.0000585885118312,
}


def case(sensors):
    marks = []
    if sensors in NO_LEARNING:
        reason = f"no weight moves; probe ratio {NO_LEARNING[sensors]!r}"
        marks = [pytest.mark.xfail(strict=True, reason=reason)]
    return pytest.param(sensors, id=f"s{sensors}", marks=marks)


@pytest.mark.parametrize("sensors", [case(s) for s in range(3, 11)])
def test_probe_ratio_against_sensor_count(sensors, load_perfbench, monkeypatch):
    monkeypatch.chdir(REPO)  # the benchmark's inputs read the bundled assets by relative path
    inputs = load_perfbench("inputs")
    net = build(parse_source(inputs.organism(inputs.extra_sensor_names(0)[:sensors - 3])))
    assert experiment(net, parse_protocol(inputs.bundled_protocol(), net)).ratio >= 2.0
