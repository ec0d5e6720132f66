"""Protocol parsing, the closed-loop runner, trace logging, and metrics."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import ortus
from ortus.connectome import ChemicalSynapse
from ortus.errors import ConfigError
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
    assert inject.element_id == organism_net.id_of("sH2O")
    assert inject.value == 0.8


def test_block_with_no_flags_blocks_both(organism_net):
    proto = parse_protocol("steps 10\nat 0..5 block respiration\n", organism_net)
    (ev,) = proto.events
    assert ev.block_exhale and ev.block_inhale


def test_block_single_flag(organism_net):
    proto = parse_protocol("steps 10\nat 0..5 block respiration exhale\n", organism_net)
    (ev,) = proto.events
    assert ev.block_exhale and not ev.block_inhale


def test_physiology_remap_directive(organism_net):
    proto = parse_protocol(
        "steps 10\nphysiology sO2 sCO2 LUNG\n", organism_net
    )
    assert proto.physio_names == ("sO2", "sCO2", "LUNG")


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("at 0..5 inject sH2O 0.5\n", "steps must be declared before"),
        ("steps 10\nsteps 20\n", "declared twice"),
        ("steps ten\n", "expected: steps <N>"),
        ("steps ²\n", "expected: steps <N>"),
        ("steps 10\nat 5..5 inject sH2O 0.5\n", "0 <= start < end"),
        ("steps 10\nat 5..20 inject sH2O 0.5\n", "0 <= start < end"),
        ("steps 10\nat 0..5 inject sH2O 1.5\n", "outside [-1, 1]"),
        ("steps 10\nat 0..5 inject sGHOST 0.5\n", "unknown element"),
        ("steps 10\nat 0..5 clamp eFEAR high\n", "bad number"),
        ("steps 10\nat 0..5 block respiration sideways\n", "unknown respiration flag"),
        ("steps 10\nat 0..5 explode sH2O 1\n", "unknown action"),
        ("steps 10\nwait 0..5\n", "unknown directive"),
        ("steps 10\nphysiology sCO2 sCO2 sCO2\n", "<protocol>:2: physiology roles need three distinct"),
        ("steps 10\nphysiology sCO2 sO2 sO2\n", "<protocol>:2: physiology roles need three distinct"),
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
        # on a tie in start, the line written last wins
        (["at 80..90 inject sH2O 0.5", "at 80..85 inject sCO2 0.3"], ("sCO2", 80)),
    ],
)
def test_probe_is_the_latest_injection(organism_net, lines, probe):
    proto = parse_protocol("\n".join(["steps 100", *lines]) + "\n", organism_net)
    ev = probe_event(proto)
    assert (ev.element, ev.start) == probe
    assert control_variant(proto).events == (ev,)


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


def test_run_config_rejects_negative_snapshot_cadence():
    with pytest.raises(ConfigError):
        RunConfig(weight_snapshot_every=-1)


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


def test_write_csv_prefix(organism_net, tmp_path):
    proto = parse_protocol("steps 3\n", organism_net)
    trace = run(organism_net, proto, RunConfig())
    paths = trace.write_csv(tmp_path, prefix="control_")
    assert [p.name for p in paths] == [
        "control_trace.csv",
        "control_weights.csv",
        "control_markers.csv",
    ]


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
        syn_pre=np.array([], dtype=int),
        syn_post=np.array([], dtype=int),
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
            Query("mean", "flat"),
            Query("auc", "flat", 0, 10),
            Query("peak_count", "osc"),
            Query("interval_mean", "osc"),
            Query("interval_cv", "osc"),
        ],
    )
    values = {r.metric: r.value for r in rows}
    assert values["peak"] == pytest.approx(0.4, abs=1e-3)
    assert values["mean"] == 0.0
    assert values["auc"] == 0.0
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
    and block events over random windows, and physiology bound to three
    distinct declared elements or switched off.  Some protocols run long,
    so that a state repeats and the runner fast-forwards."""
    # About a third of the random specs build; drawing again, rather than
    # rejecting the example, keeps Hypothesis from filtering too much.
    for _ in range(10):
        try:
            net = ortus.build(ortus.parse_source(draw(random_specs())))
            break
        except ortus.BuildError:
            pass
    else:
        assume(False)
    names = [nr.name for nr in net.neurons]
    total = draw(st.integers(1, 60) | st.integers(200, 400))
    unit = st.floats(-1.0, 1.0, allow_nan=False)
    lines = [f"steps {total}"]
    physio = draw(st.booleans())
    if physio:
        bound = draw(st.lists(st.sampled_from(names), min_size=3, max_size=3, unique=True))
        lines.append("physiology " + " ".join(bound))
    for _ in range(draw(st.integers(0, 6))):
        start = draw(st.integers(0, total - 1))
        window = f"at {start}..{draw(st.integers(start + 1, total))}"
        kind = draw(st.sampled_from(["inject", "clamp", "block"]))
        if kind == "block":
            flags = draw(st.sampled_from(["", " exhale", " inhale", " exhale inhale"]))
            lines.append(f"{window} block respiration{flags}")
        else:
            lines.append(f"{window} {kind} {draw(st.sampled_from(names))} {draw(unit)!r}")
    cfg = RunConfig(
        sim=ortus.SimConfig(check_conservation=True),
        physio=ortus.PhysioConfig(enabled=physio),
        weight_snapshot_every=1,
    )
    return net, parse_protocol("\n".join(lines), net), cfg


@settings(max_examples=60, deadline=None)
@given(organisms_and_protocols())
def test_closed_loop_invariants_hold_for_any_organism_and_protocol(case):
    net, protocol, cfg = case
    view = ortus.NetView.of(net)
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
    [("conditioned", 10), ("control", 10), ("late_block", 10), ("resting", 7), ("resting", 0)],
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
        calls.append(args[0].step)
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
    one neuron, injections into the gas elements, overlapping clamps (with
    +0.0 and -0.0 values) and blocks, with physiology bound or off."""
    n = draw(st.integers(3, 6))
    total = draw(st.integers(1, 40))
    amount = st.one_of(
        st.floats(-1.0, 1.0, allow_nan=False), st.sampled_from([0.1, 0.2, 0.3, 0.0, -0.0, 1e-17])
    )
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
            events.append(ProtocolEvent(start, end, kind, f"n{element}", element, draw(amount)))
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
    assert [seg.start for seg in segments] == [0] + [seg.end for seg in segments[:-1]]
    assert segments[-1].end == protocol.total_steps
    for seg in segments:
        for m in range(seg.start, seg.end):
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


@st.composite
def shuffled_event_lines(draw):
    """A step count and protocol event lines for the bundled organism, in
    their drawn order and shuffled.  The events crowd onto a few elements:
    overlapping injections (the gases included), small enough that their
    float sums rarely saturate a neuron and so depend on the order they are
    added in, blocks, and clamps, of which no two on one neuron overlap."""
    total = draw(st.integers(10, 40))
    amount = st.one_of(
        st.sampled_from([0.01, 0.02, 0.03, 0.07, -0.04]),
        st.sampled_from([0.0, -0.0, 1e-17]),
        st.floats(-0.1, 0.1, allow_nan=False),
    )
    lines, clamps = [], []
    for _ in range(draw(st.integers(3, 16))):
        start = draw(st.integers(0, total - 1))
        end = draw(st.integers(start + 1, total))
        kind = draw(st.sampled_from(["inject", "inject", "inject", "clamp", "block"]))
        element = draw(st.sampled_from(_INJECTED if kind == "inject" else _ELEMENTS))
        if kind == "block":
            flags = draw(st.sampled_from(["", " exhale", " inhale"]))
            lines.append(f"at {start}..{end} block respiration{flags}")
        elif kind == "clamp" and any(e == element and start < b and a < end for e, a, b in clamps):
            continue  # overlapping clamps of one neuron: the last line wins
        else:
            if kind == "clamp":
                clamps.append((element, start, end))
            lines.append(f"at {start}..{end} {kind} {element} {draw(amount)!r}")
    return total, lines, draw(st.permutations(lines))


@settings(max_examples=100, deadline=None)
@given(shuffled_event_lines())
@example((30, _WATER_AND_CO2, _WATER_AND_CO2[::-1]))  # overlapping sums into sH2O and sCO2
def test_event_line_order_changes_no_output_byte(organism_net, case):
    total, *orders = case
    cfg = RunConfig(weight_snapshot_every=1)
    traces = [
        run(organism_net, parse_protocol("\n".join([f"steps {total}", *lines]), organism_net), cfg)
        for lines in orders
    ]
    assert traces[0].activations.tobytes() == traces[1].activations.tobytes()
    assert [(n, w.tobytes()) for n, w in traces[0].weight_snapshots] == [
        (n, w.tobytes()) for n, w in traces[1].weight_snapshots
    ]
