"""Protocol parsing, the closed-loop runner, trace logging, and metrics."""

import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import ortus
from ortus.connectome import BuildError, ChemicalSynapse
from ortus.dsl import Layer
from ortus.errors import ConfigError
from ortus.kernel import NetView, SimConfig
from ortus.physiology import PhysioBinding, PhysioConfig
from ortus.protocol import (
    EventKind,
    Protocol,
    ProtocolError,
    ProtocolEvent,
    Query,
    QueryError,
    RunConfig,
    TraceLog,
    WeightSnapshots,
    control_variant,
    load_protocol,
    metrics_csv,
    parse_protocol,
    peak_indices,
    probe_event,
    run,
    schedule,
    summarize,
)
from oracles import make_net, run_every_step, scan_events
from strategies import random_specs

GOOD = """
# conditioning-style schedule
steps 100
at 10..20 inject sH2O 0.8
at 10..20 block respiration exhale inhale
at 30..40 clamp eFEAR 0.5
at 50..60 block respiration
at 70..80 inject sH2O 0.4
"""


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_happy_path(organism_net):
    proto = parse_protocol(GOOD, organism_net)
    assert proto.total_steps == 100
    kinds = [ev.kind for ev in proto.events]
    assert kinds == [
        EventKind.INJECT,
        EventKind.BLOCK,
        EventKind.CLAMP,
        EventKind.BLOCK,
        EventKind.INJECT,
    ]
    inject = proto.events[0]
    assert (inject.start, inject.end) == (10, 20)
    assert inject.element == "sH2O"
    assert inject.element_id == organism_net.name_to_id["sH2O"]
    assert inject.value == 0.8


def test_block_with_no_flags_blocks_both(organism_net):
    proto = parse_protocol("steps 10\nat 0..5 block respiration\n", organism_net)
    (ev,) = proto.events
    assert ev.block_exhale and ev.block_inhale


def test_block_single_flag(organism_net):
    proto = parse_protocol("steps 10\nat 0..5 block respiration exhale\n", organism_net)
    (ev,) = proto.events
    assert ev.block_exhale and not ev.block_inhale


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("at 0..5 inject sH2O 0.5\n", "steps must be declared before"),
        ("steps 10\nsteps 20\n", "declared twice"),
        ("steps ten\n", "expected: steps <N>"),
        ("steps ²\n", "expected: steps <N>"),
        ("steps 0\n", "<protocol>:1: steps must lie in [1, inf), got 0"),
        ("steps 10\nat 5..5 inject sH2O 0.5\n", "0 <= start < end"),
        ("steps 10\nat 5..20 inject sH2O 0.5\n", "0 <= start < end"),
        ("steps 10\nat 0..5 inject sH2O 1.5\n", "<protocol>:2: amplitude must lie in [-1, 1], got 1.5"),
        # NaN lies in no interval, and the infinities lie outside this one
        ("steps 10\nat 0..5 inject sH2O nan\n", "<protocol>:2: amplitude must lie in [-1, 1], got nan"),
        ("steps 10\nat 0..5 inject sH2O inf\n", "<protocol>:2: amplitude must lie in [-1, 1], got inf"),
        ("steps 10\nat 0..5 inject sH2O -inf\n", "<protocol>:2: amplitude must lie in [-1, 1], got -inf"),
        ("steps 10\nat 0..5 clamp eFEAR NaN\n", "<protocol>:2: clamp value must lie in [-1, 1], got nan"),
        ("steps 10\nat 0..5 clamp eFEAR inf\n", "<protocol>:2: clamp value must lie in [-1, 1], got inf"),
        ("steps 10\nat 0..5 clamp eFEAR -inf\n", "<protocol>:2: clamp value must lie in [-1, 1], got -inf"),
        ("steps 10\nat 0..5 clamp eFEAR -1.5\n", "<protocol>:2: clamp value must lie in [-1, 1], got -1.5"),
        ("steps 10\nat 0..5 inject sGHOST 0.5\n", "unknown element"),
        ("steps 10\nat 0..5 clamp eFEAR high\n", "bad number"),
        ("steps 30\nat 0..5 clamp sO2 1_0e-1\n", "<protocol>:2: bad number '1_0e-1'"),
        ("steps 30\nat 0..5 inject sH2O 0_5\n", "<protocol>:2: bad number '0_5'"),
        # a step range takes decimal digits only, as steps does
        ("steps 30\nat 1_0..+20 inject sH2O 0.5\n", "<protocol>:2: bad step range '1_0..+20'"),
        ("steps 30\nat -0..5 inject sH2O 0.5\n", "<protocol>:2: bad step range '-0..5'"),
        ("steps 30\nat 0..+5 inject sH2O 0.5\n", "<protocol>:2: bad step range '0..+5'"),
        ("steps 30\nat 0..²5 inject sH2O 0.5\n", "<protocol>:2: bad step range '0..²5'"),
        ("steps 30\nat 0.. inject sH2O 0.5\n", "<protocol>:2: bad step range '0..'"),
        ("steps 10\nat 0..5 block respiration sideways\n", "unknown respiration flag"),
        ("steps 10\nat 0..5 explode sH2O 1\n", "unknown action"),
        ("steps 10\nwait 0..5\n", "unknown directive"),
        ("steps 10\nphysiology sCO2 sO2 LUNG\n", "<protocol>:2: unknown directive 'physiology'"),
        ("", "missing steps"),
    ],
)
def test_parse_errors(organism_net, text, fragment):
    with pytest.raises(ProtocolError) as exc:
        parse_protocol(text, organism_net)
    assert fragment in str(exc.value)


# Lines of a directive and up to three words: numbers, ranges, names, actions
# and stray characters.
_protocol_soup = st.lists(
    st.tuples(
        st.sampled_from(["steps", "at", "physiology"]),
        st.lists(
            st.sampled_from(
                ["10", "0..5", "inject", "block", "respiration", "sH2O", "0.5", "nan", "²", "٣", "$", "0..²"]
            ),
            max_size=3,
        ),
    ).map(lambda line: " ".join([line[0], *line[1]])),
    max_size=5,
).map("\n".join)


@settings(max_examples=300, deadline=None)
@given(_protocol_soup)
def test_protocol_parser_fails_only_with_protocol_errors(organism_net, text):
    """Any text parses, or fails with a ProtocolError naming the source."""
    try:
        parse_protocol(text, organism_net, source="fuzz.protocol")
    except ProtocolError as exc:
        assert str(exc).startswith("fuzz.protocol:")


def test_parse_errors_carry_source_and_line(organism_net):
    with pytest.raises(ProtocolError) as exc:
        parse_protocol("steps 10\nat 0..5 inject sGHOST 1\n", organism_net, source="exp.protocol")
    assert str(exc.value).startswith("exp.protocol:2:")


def test_load_protocol_refuses_a_byte_that_is_no_utf8_at_its_line(organism_net, tmp_path):
    path = tmp_path / "bad.protocol"
    path.write_bytes(b"steps 5\n\n# caf\xe9\n")
    with pytest.raises(ProtocolError) as exc:
        load_protocol(path, organism_net)
    assert str(exc.value) == f"{path}:3: byte 0xe9 is not UTF-8"


def test_load_protocol_resolves_against_net(organism_net, conditioning_protocol_path):
    proto = load_protocol(conditioning_protocol_path, organism_net)
    assert proto.total_steps == 700
    injects = [ev for ev in proto.events if ev.kind is EventKind.INJECT]
    assert len(injects) == 5
    assert all(ev.element == "sH2O" for ev in injects)


def test_control_variant_keeps_only_the_probe(organism_net):
    proto = parse_protocol(GOOD, organism_net)
    control = control_variant(proto)
    assert control.total_steps == proto.total_steps
    assert len(control.events) == 1
    (probe,) = control.events
    assert probe.kind is EventKind.INJECT
    assert (probe.start, probe.end, probe.value) == (70, 80, 0.4)


@pytest.mark.parametrize(
    "lines,probe",
    [
        # the probe is the latest injection in time, not the last line
        (["at 80..90 inject sH2O 0.5", "at 10..20 inject sCO2 0.3"], ("sH2O", 80)),
        # a tie in start below the latest one does not matter
        (["at 10..20 inject sH2O 0.5", "at 10..15 inject sCO2 0.3", "at 80..85 inject sCO2 0.3"], ("sCO2", 80)),
    ],
)
def test_probe_is_the_latest_injection(organism_net, lines, probe):
    proto = parse_protocol("\n".join(["steps 100", *lines]) + "\n", organism_net)
    ev = probe_event(proto)
    assert (ev.element, ev.start) == probe
    assert control_variant(proto).events == (ev,)


@pytest.mark.parametrize("reverse", [False, True], ids=["written_order", "reversed"])
def test_a_tie_for_the_probe_fails_naming_the_step_and_both_injections(organism_net, reverse):
    lines = ["at 80..90 inject sH2O 0.5", "at 80..85 inject sCO2 0.3", "at 10..20 inject sO2 0.2"]
    proto = parse_protocol("\n".join(["steps 100", *(lines[::-1] if reverse else lines)]) + "\n", organism_net)
    for pick in (probe_event, control_variant):
        with pytest.raises(ProtocolError) as info:
            pick(proto)
        message = str(info.value)
        assert "step 80" in message
        assert "'inject sH2O 0.5' (80..90)" in message and "'inject sCO2 0.3' (80..85)" in message
        assert "sO2" not in message


@pytest.mark.parametrize(
    "lines",
    [
        ["at 10..30 clamp eFEAR 0.5", "at 20..40 clamp eFEAR 0.1"],
        ["at 0..5 clamp eFEAR 0.0", "at 4..6 clamp eFEAR -0.0"],  # the signs of zero differ
        ["at 0..50 clamp eFEAR 0.5", "at 20..21 clamp eFEAR 0.5000000000000001"],
    ],
)
def test_overlapping_clamps_of_one_neuron_must_agree(organism_net, lines):
    for first, second in (lines, lines[::-1]):
        text = "\n".join(["steps 50", "at 0..50 inject sH2O 0.1", first, second])
        with pytest.raises(ProtocolError) as info:
            parse_protocol(text, organism_net, source="p.protocol")
        message = str(info.value)
        assert message.startswith(f"p.protocol:4: '{second.split(' ', 2)[2]}'")
        assert f"'{first.split(' ', 2)[2]}'" in message and "of line 3" in message


def test_clamps_that_agree_touch_or_hold_other_neurons_may_overlap(organism_net):
    lines = [
        "at 10..30 clamp eFEAR 0.5",
        "at 20..40 clamp eFEAR 0.5",  # the same value
        "at 40..45 clamp eFEAR 0.1",  # starts where the second ends
        "at 0..50 clamp ePLEASURE -0.0",  # another neuron
        "at 0..50 inject eFEAR 0.2",  # an injection, not a clamp
    ]
    text = "\n".join(["steps 50", *lines])
    proto = parse_protocol(text, organism_net)
    assert [ev.label for ev in proto.events] == [line.split(" ", 2)[2] for line in lines]
    fear = run(organism_net, proto, RunConfig()).column("eFEAR")
    assert np.all(fear[10:40] == 0.5) and np.all(fear[40:45] == 0.1)


def test_protocol_without_injections_has_no_probe(organism_net):
    proto = parse_protocol("steps 10\nat 0..5 block respiration\n", organism_net)
    assert probe_event(proto) is None
    assert control_variant(proto).events == ()


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------


def test_run_shapes_and_markers(organism_net):
    proto = parse_protocol("steps 30\nat 5..10 inject sH2O 0.5\n", organism_net)
    trace = run(organism_net, proto, RunConfig())
    assert trace.activations.shape == (30, organism_net.n)
    assert trace.names[: 3] == ("sCO2", "sO2", "sH2O")
    assert (5, "start inject sH2O 0.5") in trace.markers
    assert (10, "end inject sH2O 0.5") in trace.markers


def test_run_weight_snapshot_cadence(organism_net):
    proto = parse_protocol("steps 25\n", organism_net)
    trace = run(organism_net, proto, RunConfig(weight_snapshot_every=10))
    assert [s for s, _ in trace.weight_snapshots] == [0, 10, 20, 25]
    proto2 = parse_protocol("steps 20\n", organism_net)
    trace2 = run(organism_net, proto2, RunConfig(weight_snapshot_every=10))
    assert [s for s, _ in trace2.weight_snapshots] == [0, 10, 20]


def test_snapshots_share_unchanged_weights_and_none_can_be_written(organism_net, conditioning_protocol_path):
    """A snapshot stores one entry per mutable synapse, in a row that the
    steps with unchanged weights share; every read is a new read-only array
    with one entry per synapse, so no read can change another."""
    view = NetView.of(organism_net)
    assert not view.syn_w0.flags.writeable  # every read starts from a copy of it
    snapshots = run(organism_net, load_protocol(conditioning_protocol_path, organism_net)).weight_snapshots
    rows = list({id(row): row for row in snapshots.rows}.values())
    assert (len(rows), len(snapshots)) == (30, 71)
    assert all(row.shape == view.syn_mutable.shape for row in rows)
    reads = [w for _, w in snapshots] + [w for _, w in snapshots]
    assert len({id(w) for w in reads}) == len(reads) == 142
    for w in reads:
        assert w.shape == view.syn_w0.shape
        with pytest.raises(ValueError, match="read-only"):
            w[0] = 0.5


def test_weight_snapshots_read_like_the_every_step_list(organism_net, conditioning_protocol_path):
    """Indices, negative ones too, ``len`` and iteration give the pairs the
    every-step oracle lists, byte for byte."""
    protocol = load_protocol(conditioning_protocol_path, organism_net)
    got = run(organism_net, protocol).weight_snapshots
    want = run_every_step(organism_net, protocol).weight_snapshots

    def pairs(snapshots):
        return [(s, w.tobytes()) for s, w in snapshots]

    assert len(got) == len(want) == 71
    assert pairs(got) == pairs(want)
    for i in (0, 1, 35, 70, -1, -2, -71):
        assert pairs([got[i]]) == pairs([want[i]])
    for i in (71, -72):
        with pytest.raises(IndexError):
            got[i]
    assert pairs(reversed(got)) == pairs(reversed(want))


def test_a_run_keeps_no_weights_array_that_no_snapshot_holds(
    organism_net, conditioning_protocol_path, monkeypatch
):
    """While it runs, a run holds the live weights and the array a pass
    just replaced, not every array a pass has made: the bundled run makes
    280, and a large network replaces its weights on most steps."""
    made, most = [], 0
    learn = ortus.protocol.plasticity_step

    def tracked(history, weights, *args):
        nonlocal most
        out = learn(history, weights, *args)
        if out is not weights:
            made.append(weakref.ref(out))
        most = max(most, sum(ref() is not None for ref in made))
        return out

    monkeypatch.setattr(ortus.protocol, "plasticity_step", tracked)
    run(organism_net, load_protocol(conditioning_protocol_path, organism_net))
    assert most <= 2 < len(made)


def test_a_dense_run_holds_its_trace_and_little_more(load_perfbench, monkeypatch):
    """What a run leaves allocated beyond its activations, on the benchmark's
    ``dense`` inputs (3,094 neurons, 10,253 synapses, 2,046 of them mutable,
    71 snapshots): about 1.6 MiB, against 4.4 MiB when each snapshot held a
    full weights array."""
    monkeypatch.chdir(Path(__file__).resolve().parents[1])  # the inputs read the assets by relative path
    inputs = load_perfbench("inputs").generate("dense", 0)
    net = ortus.build(ortus.parse_source(inputs["organism.ort"]), ortus.BuildConfig(eei_initial_weight=0.3))
    protocol = parse_protocol(inputs["experiment.protocol"], net)
    tracemalloc.start()
    try:
        trace = run(net, protocol)
        held = tracemalloc.get_traced_memory()[0] - trace.activations.nbytes
    finally:
        tracemalloc.stop()
    assert held < 2.5 * 2**20


def test_run_config_rejects_negative_snapshot_cadence():
    with pytest.raises(ConfigError):
        RunConfig(weight_snapshot_every=-1)


@pytest.mark.parametrize("value", [2.5, 10.0, True])
def test_run_config_rejects_a_snapshot_cadence_that_is_no_integer(value):
    # a float once passed here and the run died in range() with a TypeError
    with pytest.raises(ConfigError, match="^weight_snapshot_every must be an integer"):
        RunConfig(weight_snapshot_every=value)
    assert RunConfig(weight_snapshot_every=np.int64(10)).weight_snapshot_every == 10


def test_injection_moves_the_sensor(organism_net):
    quiet = run(organism_net, parse_protocol("steps 20\n", organism_net), RunConfig())
    poked = run(
        organism_net,
        parse_protocol("steps 20\nat 5..15 inject sH2O 0.8\n", organism_net),
        RunConfig(),
    )
    assert np.array_equal(quiet.column("sH2O")[:5], poked.column("sH2O")[:5])
    assert poked.column("sH2O")[6] > quiet.column("sH2O")[6] + 0.5


def test_clamp_holds_exactly_then_releases(organism_net):
    proto = parse_protocol("steps 20\nat 5..10 clamp eFEAR 0.33\n", organism_net)
    trace = run(organism_net, proto, RunConfig())
    fear = trace.column("eFEAR")
    assert np.all(fear[5:10] == 0.33)
    assert fear[10] != 0.33


def test_half_open_windows(organism_net):
    proto = parse_protocol("steps 10\nat 3..6 clamp sH2O 0.9\n", organism_net)
    trace = run(organism_net, proto, RunConfig())
    h2o = trace.column("sH2O")
    assert h2o[2] == 0.0 and h2o[3] == 0.9 and h2o[5] == 0.9
    assert h2o[6] < 0.9  # released, decaying


def test_physio_disabled_leaves_gases_flat(organism_net):
    cfg = RunConfig()
    cfg.physio = type(cfg.physio)(enabled=False)
    trace = run(organism_net, parse_protocol("steps 15\n", organism_net), cfg)
    assert not trace.column("sCO2").any()
    assert not trace.column("sO2").any()


def test_trace_column_unknown_name(organism_net):
    trace = run(organism_net, parse_protocol("steps 5\n", organism_net), RunConfig())
    with pytest.raises(QueryError):
        trace.column("nNOPE")


# ---------------------------------------------------------------------------
# csv output
# ---------------------------------------------------------------------------


def test_write_csv_layout(organism_net, tmp_path):
    proto = parse_protocol("steps 12\nat 2..4 inject sH2O 0.5\n", organism_net)
    trace = run(organism_net, proto, RunConfig())
    paths = trace.write_csv(tmp_path)
    assert [p.name for p in paths] == ["trace.csv", "weights.csv", "markers.csv"]

    lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert lines[0] == ",".join(trace.names)  # header is names only
    assert len(lines) == 1 + 12
    first = [float(v) for v in lines[1].split(",")]
    np.testing.assert_allclose(first, trace.activations[0])

    wlines = (tmp_path / "weights.csv").read_text().splitlines()
    assert wlines[0] == "step,pre,post,weight"
    assert len(wlines) == 1 + len(trace.weight_snapshots) * len(organism_net.chem)

    mlines = (tmp_path / "markers.csv").read_text().splitlines()
    assert mlines[0] == "step,marker"
    assert mlines[1] == "2,start inject sH2O 0.5"


def test_weights_csv_reuses_strings_with_the_per_cell_bytes(tmp_path):
    # snapshots that repeat (the same array and an equal copy), change some
    # cells, flip a zero's sign both ways, and hold one value at a new step
    w0 = np.array([0.05, 0.0, 1.0, 0.3, -0.0])
    w1 = w0.copy()
    w1[[0, 3]] = [0.051, 0.30000000000000004]
    w2 = w1.copy()
    w2[1], w2[4] = -0.0, 0.0
    w3 = w2.copy()
    w3[1] = 0.0
    snapshots = [(0, w0), (10, w0), (20, w0.copy()), (30, w1), (40, w2), (50, w3), (60, w3.copy())]
    pre, post = np.array([0, 1, 2, 3, 4]), np.array([5, 5, 6, 6, 7])
    stored = WeightSnapshots(w0, pre, post, np.arange(5), [n for n, _ in snapshots], [ws for _, ws in snapshots])
    log = TraceLog(("n0",), np.zeros((1, 1)), stored, [])
    log.write_csv(tmp_path)
    want = "step,pre,post,weight\n" + "".join(
        f"{n},{i},{j},{w!r}\n" for n, ws in snapshots for i, j, w in zip(pre.tolist(), post.tolist(), ws.tolist())
    )
    got = (tmp_path / "weights.csv").read_text()
    assert got == want
    assert "40,1,5,-0.0\n" in got and "50,1,5,0.0\n" in got and "40,4,7,0.0\n" in got


def test_weights_csv_lists_every_read_snapshot_of_a_learning_run(load_perfbench, monkeypatch, tmp_path):
    """On a 5-sensor organism whose associations start at 0.3, where about
    thirty mutable weights move, weights.csv is every read snapshot's
    synapses in order."""
    monkeypatch.chdir(Path(__file__).resolve().parents[1])  # the inputs read the assets by relative path
    inputs = load_perfbench("inputs")
    extra = inputs.extra_sensor_names(0, count=2)
    net = ortus.build(ortus.parse_source(inputs.organism(extra)), ortus.BuildConfig(eei_initial_weight=0.3))
    trace = run(net, parse_protocol(inputs.dense_protocol(0, extra), net))
    snapshots = trace.weight_snapshots
    assert (snapshots[0][1] != snapshots[-1][1]).sum() > 20
    trace.write_csv(tmp_path)
    view = NetView.of(net)
    want = "step,pre,post,weight\n" + "".join(
        f"{n},{pre},{post},{w!r}\n"
        for n, ws in snapshots
        for pre, post, w in zip(view.syn_pre.tolist(), view.syn_post.tolist(), ws.tolist())
    )
    assert (tmp_path / "weights.csv").read_text() == want


def test_a_net_without_chemical_synapses_writes_the_weights_header_alone(tmp_path):
    net = make_net(2)
    protocol = parse_protocol("steps 12\nat 0..5 inject n0 0.5\n", net)
    trace = run(net, protocol, RunConfig(physio=PhysioConfig(enabled=False)))
    assert len(trace.weight_snapshots) == 3
    trace.write_csv(tmp_path)
    assert (tmp_path / "weights.csv").read_text() == "step,pre,post,weight\n"


def test_write_csv_prefix(organism_net, tmp_path):
    proto = parse_protocol("steps 3\n", organism_net)
    trace = run(organism_net, proto, RunConfig())
    paths = trace.write_csv(tmp_path, prefix="control_")
    assert paths == [tmp_path / f"control_{name}" for name in ("trace.csv", "weights.csv", "markers.csv")]


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def synthetic_trace():
    t = np.arange(200)
    wave = 0.4 * np.sin(2 * np.pi * t / 40.0)
    flat = np.zeros(200)
    activations = np.stack([wave, flat], axis=1)
    return TraceLog(
        names=("osc", "flat"),
        activations=activations,
        weight_snapshots=[],
        markers=[],
    )


def test_peak_indices_counts_cycles():
    trace = synthetic_trace()
    idx = peak_indices(trace.column("osc"))
    assert len(idx) == 5
    np.testing.assert_allclose(np.diff(idx), 40)


def test_peak_indices_ignores_flat_signals():
    assert len(peak_indices(np.zeros(50))) == 0
    assert len(peak_indices(np.full(50, 0.7))) == 0


def test_peak_indices_plateaus_and_edges():
    # a flat top counts once at its middle (the left one of an even run);
    # the first and last samples are never peaks
    x = np.array([3, 1, 2, 2, 0, 2, 2, 2, 1, 1, 4], dtype=float)
    np.testing.assert_array_equal(peak_indices(x, 0.0), [2, 6])
    # prominence is measured against the whole signal and kept when >= the bar
    x = np.array([0, 2, 1, 3, 0], dtype=float)  # swing 3; the peak at 1 stands 1 high
    np.testing.assert_array_equal(peak_indices(x, 1 / 3), [1, 3])
    np.testing.assert_array_equal(peak_indices(x, 0.34), [3])


def test_peak_indices_match_scipy_on_bundled_traces(organism_net, conditioning_protocol_path):
    signal = pytest.importorskip("scipy.signal")
    proto = load_protocol(conditioning_protocol_path, organism_net)
    checked = 0
    for protocol in (proto, control_variant(proto)):
        trace = run(organism_net, protocol, RunConfig())
        for col in trace.activations.T:
            want, _ = signal.find_peaks(col, prominence=0.05 * float(col.max() - col.min()))
            got = peak_indices(col)
            np.testing.assert_array_equal(got, want)
            checked += len(got)
    assert checked > 0


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=4), max_size=60),
    st.sampled_from([0.0, 0.05, 0.25, 0.5, 1.0]),
)
def test_peak_indices_match_scipy_with_plateaus(levels, min_prominence):
    signal = pytest.importorskip("scipy.signal")
    x = np.array(levels, dtype=float)
    swing = float(x.max() - x.min()) if len(x) else 0.0
    want, _ = signal.find_peaks(x, prominence=min_prominence * swing)
    np.testing.assert_array_equal(peak_indices(x, min_prominence), want)


def test_import_loads_no_scipy():
    src = str(Path(ortus.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, ortus; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"


def test_summarize_window_metrics():
    trace = synthetic_trace()
    rows = summarize(
        trace,
        [
            Query("peak", "osc", 0, 40),
            Query("peak_count", "osc"),
            Query("interval_mean", "osc"),
            Query("interval_cv", "osc"),
        ],
    )
    values = {r.metric: r.value for r in rows}
    assert values["peak"] == pytest.approx(0.4, abs=1e-3)
    assert values["peak_count"] == 5.0
    assert values["interval_mean"] == pytest.approx(40.0)
    assert values["interval_cv"] == pytest.approx(0.0)


def test_summarize_interval_metrics_need_two_peaks():
    trace = synthetic_trace()
    rows = summarize(trace, [Query("interval_cv", "osc", 0, 50)])  # one cycle only
    assert math.isnan(rows[0].value)


def test_summarize_rejects_bad_windows():
    trace = synthetic_trace()
    with pytest.raises(QueryError):
        summarize(trace, [Query("peak", "osc", 10, 5)])
    with pytest.raises(QueryError):
        summarize(trace, [Query("peak", "osc", 0, 999)])
    with pytest.raises(QueryError):
        summarize(trace, [Query("median", "osc")])


def test_metrics_csv_format():
    trace = synthetic_trace()
    rows = summarize(trace, [Query("peak", "osc", 0, 40)])
    text = metrics_csv(rows, extra=[("probe_peak_ratio", "osc", 2.5)])
    lines = text.splitlines()
    assert lines[0] == "metric,neuron,start,end,value"
    assert lines[1].startswith("peak,osc,0,40,")
    assert lines[2] == "probe_peak_ratio,osc,,,2.5"


# ---------------------------------------------------------------------------
# whole-loop properties: any valid organism, any protocol
# ---------------------------------------------------------------------------


@st.composite
def organisms_and_protocols(draw):
    """A buildable random organism and protocol text for it: inject, clamp
    and block events over random windows, and physiology bound by the
    ``PhysioConfig`` names to three distinct declared elements, or switched
    off.  Clamps of one neuron may overlap only where they agree.  Some
    protocols run long, so that a state repeats and the runner fast-forwards."""
    # About a third of the random specs build; drawing again, rather than
    # rejecting the example, keeps Hypothesis from filtering too much.
    for _ in range(10):
        try:
            net = ortus.build(ortus.parse_source(draw(random_specs())))
            break
        except BuildError:
            pass
    else:
        assume(False)
    names = [nr.name for nr in net.neurons]
    total = draw(st.integers(1, 60) | st.integers(200, 400))
    unit = st.floats(-1.0, 1.0, allow_nan=False)
    lines = [f"steps {total}"]
    physio = PhysioConfig(enabled=False)
    if draw(st.booleans()):
        co2, o2, lung = draw(st.lists(st.sampled_from(names), min_size=3, max_size=3, unique=True))
        physio = PhysioConfig(co2_name=co2, o2_name=o2, lung_name=lung)
    clamps = {}  # one value per clamped neuron, so overlapping clamps agree
    for _ in range(draw(st.integers(0, 6))):
        start = draw(st.integers(0, total - 1))
        window = f"at {start}..{draw(st.integers(start + 1, total))}"
        kind = draw(st.sampled_from(["inject", "clamp", "block"]))
        if kind == "block":
            flags = draw(st.sampled_from(["", " exhale", " inhale", " exhale inhale"]))
            lines.append(f"{window} block respiration{flags}")
        else:
            name = draw(st.sampled_from(names))
            value = clamps.setdefault(name, draw(unit)) if kind == "clamp" else draw(unit)
            lines.append(f"{window} {kind} {name} {value!r}")
    cfg = RunConfig(sim=SimConfig(check_conservation=True), physio=physio, weight_snapshot_every=1)
    return net, parse_protocol("\n".join(lines), net), cfg


@settings(max_examples=60, deadline=None)
@given(organisms_and_protocols())
def test_closed_loop_invariants_hold_for_any_organism_and_protocol(case):
    net, protocol, cfg = case
    view = NetView.of(net)
    immutable = view.syn_mi == 0
    trace = run(net, protocol, cfg)  # gap-junction flux is checked every step

    a = trace.activations
    assert a.shape == (protocol.total_steps, net.n)
    assert np.isfinite(a).all() and (np.abs(a) <= 1.0).all()
    assert [s for s, _ in trace.weight_snapshots] == list(range(protocol.total_steps + 1))
    for _, weights in trace.weight_snapshots:
        assert ((weights >= 0.0) & (weights <= 1.0)).all()
        assert weights[immutable].tobytes() == view.syn_w0[immutable].tobytes()

    for again in (run(net, protocol, cfg), run_every_step(net, protocol, cfg)):
        assert_same_bytes(again, trace)


def assert_same_bytes(got: TraceLog, want: TraceLog) -> None:
    assert got.activations.tobytes() == want.activations.tobytes()
    assert [(s, w.tobytes()) for s, w in got.weight_snapshots] == [
        (s, w.tobytes()) for s, w in want.weight_snapshots
    ]
    assert got.markers == want.markers


@pytest.mark.parametrize(
    "case, every",
    [
        ("conditioned", 10),
        ("control", 10),
        ("late_block", 10),
        ("late_block", 1),  # a snapshot every step
        ("resting", 7),
        ("resting", 0),
        ("control", 1000),  # a cadence longer than the run: the first and last only
    ],
)
def test_run_fast_forwards_repeats_byte_for_byte(organism_net, conditioning_protocol_path, monkeypatch, case, every):
    """The bundled organism at rest repeats with period 19 from step 200, as
    in the control run, and without physiology or events it rests at zero
    (period 1).  A block from step 400 starts on a step where the lung is
    quiet, so its first state is one the rest segment saw; the block still
    changes what follows.  The conditioned run never repeats, so every one
    of its steps is computed."""
    conditioned = load_protocol(conditioning_protocol_path, organism_net)
    prot = {
        "conditioned": conditioned,
        "control": control_variant(conditioned),
        "late_block": parse_protocol("steps 700\nat 400..700 block respiration", organism_net),
        "resting": Protocol(300, ()),
    }[case]
    cfg = RunConfig(physio=PhysioConfig(enabled=case != "resting"), weight_snapshot_every=every)
    calls = []
    kernel_step = ortus.protocol.step

    def counted(*args):
        calls.append(args)
        return kernel_step(*args)

    monkeypatch.setattr(ortus.protocol, "step", counted)
    trace = run(organism_net, prot, cfg)
    assert_same_bytes(trace, run_every_step(organism_net, prot, cfg))
    if case == "conditioned":
        assert len(calls) == prot.total_steps
    else:
        assert len(calls) < prot.total_steps


def test_a_history_repeated_under_new_weights_is_no_repeat():
    """Two neurons clamped at 0.5 repeat their history on every step from
    step 8, while the synapse between them strengthens to the cap of 1.0
    (+0.01 a step from 0.05); only from then on do states repeat."""
    net = make_net(2, chem=[ChemicalSynapse(0, 1, 0.05, 1.0, 1.0)])
    prot = parse_protocol("steps 200\nat 0..200 clamp n0 0.5\nat 0..200 clamp n1 0.5", net)
    cfg = RunConfig(physio=PhysioConfig(enabled=False), weight_snapshot_every=1)
    trace = run(net, prot, cfg)
    assert_same_bytes(trace, run_every_step(net, prot, cfg))
    weights = [float(w[0]) for _, w in trace.weight_snapshots]
    assert weights[50] < weights[51] < 1.0 == weights[-1]


# ---------------------------------------------------------------------------
# compiled schedule
# ---------------------------------------------------------------------------


@st.composite
def crowded_protocols(draw):
    """Events piled onto a few neurons and steps: overlapping injections into
    one neuron, injections into the gas elements, overlapping clamps that
    agree, as ``parse_protocol`` requires (one value per neuron, +0.0 and
    -0.0 among them), and blocks, with physiology bound or off."""
    n = draw(st.integers(3, 6))
    total = draw(st.integers(1, 40))
    amount = st.one_of(
        st.floats(-1.0, 1.0, allow_nan=False), st.sampled_from([0.1, 0.2, 0.3, 0.0, -0.0, 1e-17])
    )
    clamp_values = draw(st.lists(amount, min_size=n, max_size=n))
    events = []
    for _ in range(draw(st.integers(0, 12))):
        start = draw(st.integers(0, total - 1))
        end = draw(st.integers(start + 1, total))
        kind = draw(st.sampled_from(EventKind))
        if kind is EventKind.BLOCK:
            exhale, inhale = draw(st.sampled_from([(True, False), (False, True), (True, True)]))
            events.append(ProtocolEvent(start, end, kind, block_exhale=exhale, block_inhale=inhale))
        else:
            element = draw(st.integers(0, n - 1))
            value = clamp_values[element] if kind is EventKind.CLAMP else draw(amount)
            events.append(ProtocolEvent(start, end, kind, f"n{element}", element, value))
    roles = draw(st.one_of(st.none(), st.permutations(range(n))))
    return n, Protocol(total, tuple(events)), None if roles is None else PhysioBinding(*roles[:3])


@settings(max_examples=200, deadline=None)
@given(crowded_protocols(), st.integers(0, 2**32 - 1))
@example(  # two injections at once into the CO2 sensor, while the lung breathes
    (
        3,
        Protocol(
            4,
            (
                ProtocolEvent(0, 4, EventKind.INJECT, "n0", 0, 0.1),
                ProtocolEvent(1, 3, EventKind.INJECT, "n0", 0, 0.2),
            ),
        ),
        PhysioBinding(0, 1, 2),
    ),
    0,
)
def test_compiled_schedule_equals_the_per_step_event_scan_bit_for_bit(case, seed):
    n, protocol, binding = case
    cfg = PhysioConfig()
    rng = np.random.default_rng(seed)
    segments = list(schedule(protocol, n))
    ends = [seg.end for seg in segments]
    assert ends == sorted(set(ends)) and ends[0] > 0 and ends[-1] == protocol.total_steps
    for start, seg in zip([0, *ends], segments):
        for m in range(start, seg.end):
            activation = rng.uniform(-1, 1, n)
            activation[binding.lung if binding else 0] = rng.choice([0.2, 0.9])  # at rest or breathing
            inject, mask, value, exhale, inhale = scan_events(protocol, m, activation, cfg, binding)
            assert seg.drive(activation, cfg, binding).tobytes() == inject.tobytes()
            assert (seg.clamp_mask is None) == (not mask.any())
            if seg.clamp_mask is not None:
                assert seg.clamp_mask.tobytes() == mask.tobytes()
                assert seg.clamp_value.tobytes() == value.tobytes()
            assert (seg.block_exhale, seg.block_inhale) == (exhale, inhale)


# ---------------------------------------------------------------------------
# line order
# ---------------------------------------------------------------------------

# injected: the bundled organism's CO2 sensor (which physiology also
# drives), its water sensor and a neuron downstream; clamped or injected:
# those, the lung and two neurons of the fear pathway
_INJECTED = ["sCO2", "sH2O", "c_sH2O"]
_ELEMENTS = [*_INJECTED, "LUNG", "eFEAR", "xeFEAR_c_sH2O"]


# small enough that no sum saturates a sensor at 1
_WATER_AND_CO2 = [
    "at 0..30 inject sH2O 0.01",
    "at 2..30 inject sH2O 0.02",
    "at 4..30 inject sH2O 0.03",
    "at 0..30 inject sCO2 0.01",
    "at 2..30 inject sCO2 0.02",
]

_CLAMPS = ["at 0..10 clamp eFEAR 0.03", "at 5..15 clamp eFEAR 0.03", "at 8..12 clamp eFEAR -0.0"]


@st.composite
def shuffled_event_lines(draw):
    """A step count and protocol event lines for the bundled organism, in
    their drawn order and shuffled.  The events crowd onto a few elements:
    overlapping injections (the gases included), small enough that their
    float sums rarely saturate a neuron and so depend on the order they are
    added in, blocks, and clamps, whose values repeat often enough that
    overlapping ones both agree and disagree."""
    total = draw(st.integers(10, 40))
    amount = st.one_of(
        st.sampled_from([0.01, 0.02, 0.03, 0.07, -0.04]),
        st.sampled_from([0.0, -0.0, 1e-17]),
        st.floats(-0.1, 0.1, allow_nan=False),
    )
    clamp_value = st.one_of(st.sampled_from([0.03, 0.0, -0.0]), amount)
    lines = []
    for _ in range(draw(st.integers(3, 16))):
        start = draw(st.integers(0, total - 1))
        end = draw(st.integers(start + 1, total))
        kind = draw(st.sampled_from(["inject", "inject", "inject", "clamp", "block"]))
        element = draw(st.sampled_from(_INJECTED if kind == "inject" else _ELEMENTS))
        if kind == "block":
            flags = draw(st.sampled_from(["", " exhale", " inhale"]))
            lines.append(f"at {start}..{end} block respiration{flags}")
        else:
            value = draw(clamp_value if kind == "clamp" else amount)
            lines.append(f"at {start}..{end} {kind} {element} {value!r}")
    return total, lines, draw(st.permutations(lines))


@settings(max_examples=100, deadline=None)
@given(shuffled_event_lines())
@example((30, _WATER_AND_CO2, _WATER_AND_CO2[::-1]))  # overlapping sums into sH2O and sCO2
@example((20, _CLAMPS[:2], _CLAMPS[1::-1]))  # overlapping clamps that agree
@example((20, _CLAMPS[1:], _CLAMPS[:0:-1]))  # and that disagree
def test_event_line_order_changes_no_output_byte(organism_net, case):
    """Either both orders run to the same bytes, or both are refused for
    overlapping clamps that disagree."""
    total, *orders = case
    cfg = RunConfig(weight_snapshot_every=1)
    traces = []
    for lines in orders:
        try:
            protocol = parse_protocol("\n".join([f"steps {total}", *lines]), organism_net)
        except ProtocolError as exc:
            assert "overlapping clamps of one neuron must hold the same value" in str(exc)
            traces.append(None)
        else:
            traces.append(run(organism_net, protocol, cfg))
    if None in traces:
        assert traces == [None, None]
        return
    assert traces[0].activations.tobytes() == traces[1].activations.tobytes()
    assert [(n, w.tobytes()) for n, w in traces[0].weight_snapshots] == [
        (n, w.tobytes()) for n, w in traces[1].weight_snapshots
    ]


# ---------------------------------------------------------------------------
# one view per connectome
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("change", ["add_chem", "add_gap", "add_neuron"])
def test_a_connectome_changed_after_a_run_is_run_as_changed(organism_spec, conditioning_protocol_path, change):
    # both runs of an experiment share one view; an add_* drops it, so the
    # next run sees the new element, as a run on a fresh build with it does
    def built():
        net = ortus.build(organism_spec, ortus.BuildConfig())
        return net, load_protocol(conditioning_protocol_path, net)

    def add(net):
        ids = net.name_to_id
        if change == "add_chem":
            net.add_chem(ids["sH2O"], ids["eFEAR"], 1.0, 1.0, 0.0)
        elif change == "add_gap":
            net.add_gap(ids["sH2O"], ids["eFEAR"], 0.5)
        else:
            net.add_neuron("mSPARE", Layer.MOTOR, 0.1)

    net, prot = built()
    before = run(net, prot)
    view = NetView.of(net)
    run(net, control_variant(prot))
    assert NetView.of(net) is view
    add(net)
    assert net.view is None
    after = run(net, prot)
    assert NetView.of(net) is not view
    fresh, fresh_prot = built()
    add(fresh)
    assert after.activations.tobytes() == run(fresh, fresh_prot).activations.tobytes()
    if change == "add_neuron":  # one more column, at rest
        assert after.activations.shape == (before.activations.shape[0], net.n)
        assert after.activations[:, :-1].tobytes() == before.activations.tobytes()
    else:
        assert after.activations.tobytes() != before.activations.tobytes()


def test_a_replaced_connectome_gets_a_view_of_its_own(organism_net):
    view = NetView.of(organism_net)
    fewer = replace(organism_net, chem=organism_net.chem[:-1])
    assert fewer.view is None
    assert len(NetView.of(fewer).syn_pre) == len(view.syn_pre) - 1
    assert NetView.of(organism_net) is view
