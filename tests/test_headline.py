"""What the headline probe ratio measures on the bundled organism.

``ortus experiment`` reports the eFEAR peak over the probe window (590..630)
after conditioning, divided by the same peak in a control run that holds only
the probe.  These tests pin what that number is made of, with default
settings.  Conditioning lifts eFEAR even where nothing is injected: with the
probe line deleted the peak is still 4.69 times the control's.  Pairing water
with an O2 injection in place of the respiration block gives the same ratio
bit for bit, because the O2 injection blocks the inhale and CO2 builds up
anyway.  Two tests of a specific association are strict expected failures:
the ratio of the water response to that of a never-paired sensor, and the
growth of the response the probe itself evokes.  See the README's "What the
headline measures".
"""

from pathlib import Path

import pytest

from ortus import build, parse_source
from ortus.protocol import parse_protocol, run

REPO = Path(__file__).resolve().parents[1]
PROBE = "at 590..630 inject sH2O 0.8\n"
CONTROL = "steps 700\n" + PROBE
HEADLINE_RATIO = 4.7824580767148515


def probe_peak(net, text):
    """eFEAR's peak over the probe window of a run of protocol ``text``."""
    return float(run(net, parse_protocol(text, net)).column("eFEAR")[590:630].max())


@pytest.fixture(scope="module")
def conditioning(conditioning_protocol_path):
    text = conditioning_protocol_path.read_text()
    assert text.count(PROBE) == 1
    return text


def test_the_conditioned_window_is_raised_without_the_probe(organism_net, conditioning):
    no_probe = probe_peak(organism_net, conditioning.replace(PROBE, ""))
    control = probe_peak(organism_net, CONTROL)
    assert no_probe >= 4.5 * control  # measured 0.52411 / 0.11168 = 4.69


def test_pairing_water_with_o2_gives_the_headline_ratio_bit_for_bit(organism_net, conditioning):
    paired_with_o2 = conditioning.replace("block respiration exhale inhale", "inject sO2 0.8")
    assert paired_with_o2.count("inject sO2 0.8") == 4
    ratio = probe_peak(organism_net, paired_with_o2) / probe_peak(organism_net, CONTROL)
    assert ratio == HEADLINE_RATIO


@pytest.mark.xfail(
    strict=True,
    reason="no discrimination: CS+ 0.50833 / CS- 0.51554 = 0.986, and 14 of the 15 fear-EEI weights saturate",
)
def test_the_paired_sensor_evokes_twice_the_fear_of_an_unpaired_one(conditioning, load_perfbench, monkeypatch):
    monkeypatch.chdir(REPO)  # the benchmark's inputs read the bundled assets by relative path
    inputs = load_perfbench("inputs")
    (unpaired,) = inputs.extra_sensor_names(0, count=1)
    net = build(parse_source(inputs.organism([unpaired])))
    cs_plus = probe_peak(net, conditioning)
    cs_minus = probe_peak(net, conditioning.replace(PROBE, PROBE.replace("sH2O", unpaired)))
    assert cs_plus >= 2.0 * cs_minus


@pytest.mark.xfail(
    strict=True,
    reason="the probe adds 0.53413 - 0.52411 after conditioning and 0.11168 - 0.10441 before: 1.377",
)
def test_conditioning_doubles_the_response_the_probe_evokes(organism_net, conditioning):
    conditioned = probe_peak(organism_net, conditioning) - probe_peak(organism_net, conditioning.replace(PROBE, ""))
    naive = probe_peak(organism_net, CONTROL) - probe_peak(organism_net, "steps 700\n")
    assert conditioned >= 2.0 * naive
